#include "probe.hpp"

#include <algorithm>

#include "core/messages.hpp"
#include "crypto/sig.hpp"

namespace sessionbench {

namespace {

double ns_since(ProbeTransport::Clock::time_point t0) {
  return std::chrono::duration<double, std::nano>(
             ProbeTransport::Clock::now() - t0)
      .count();
}

std::size_t class_of(std::span<const std::uint8_t> bytes) {
  const std::size_t c = bytes.empty() ? 0 : (bytes[0] & 0x7f);
  return std::min(c, kClasses - 1);
}

/// SHA-256 blocks one verify of a sealed wire hashes: the challenge digests
/// the 8-byte commitment plus the signed prefix (FIPS 180-4 padding adds 9
/// bytes, rounded up to 64-byte blocks).
std::uint64_t verify_blocks(std::size_t wire_bytes) {
  if (wire_bytes < crypto::kSignatureBytes) return 0;
  const std::size_t hashed = 8 + wire_bytes - crypto::kSignatureBytes;
  return (hashed + 9 + 63) / 64;
}

}  // namespace

ProbeTransport::ProbeTransport(std::unique_ptr<net::Transport> inner,
                               bool timed, std::size_t capture_limit)
    : inner_(std::move(inner)),
      timed_(timed),
      capture_limit_(capture_limit == 0 ? 1 : capture_limit),
      handlers_(inner_->size()) {
  counts_.captures.reserve(2 * capture_limit_);
  // Every node gets the probe's handler for the whole run; the session's
  // handler (possibly null while a node is down) is looked up per delivery.
  // The inner network counts a delivery the same whether or not a handler
  // is installed, so this changes nothing it records.
  for (PlayerId p = 0; p < inner_->size(); ++p) {
    inner_->set_handler(p, [this, p](const net::Envelope& env) {
      on_deliver(p, env);
    });
  }
}

void ProbeTransport::set_handler(PlayerId node, Handler handler) {
  handlers_.at(node) = std::move(handler);
}

void ProbeTransport::send(PlayerId from, PlayerId to,
                          std::shared_ptr<const std::vector<std::uint8_t>> payload,
                          std::size_t payload_bits, TimeMs sent_at) {
  const std::size_t bytes = payload ? payload->size() : 0;
  if (mtu_ != 0 && bytes > mtu_) {
    ++counts_.oversize;
  } else {
    ++counts_.sends;
    counts_.wire_bits +=
        (payload_bits != 0 ? payload_bits : bytes * 8) + net::kUdpOverheadBits;
  }
  if (!timed_) {
    inner_->send(from, to, std::move(payload), payload_bits, sent_at);
    return;
  }
  const auto t0 = Clock::now();
  inner_->send(from, to, std::move(payload), payload_bits, sent_at);
  counts_.send_ns += ns_since(t0);
  ++counts_.timed_sends;
}

void ProbeTransport::run_until(TimeMs t) {
  if (!timed_) {
    inner_->run_until(t);
    return;
  }
  const auto t0 = Clock::now();
  inner_->run_until(t);
  counts_.run_until_ns += ns_since(t0);
}

void ProbeTransport::on_deliver(PlayerId node, const net::Envelope& env) {
  if (draining_) return;  // counted by drain_in_flight from NetStats
  ++counts_.delivered;
  const auto age = static_cast<std::size_t>(std::max<TimeMs>(0, env.delivered_at - env.sent_at));
  if (age >= counts_.age_hist.size()) counts_.age_hist.resize(age + 1, 0);
  ++counts_.age_hist[age];
  const std::span<const std::uint8_t> bytes = env.bytes();
  const std::size_t cls = class_of(bytes);
  ++counts_.rx[cls];
  if (counts_.delivered % capture_stride_ == 0) {
    counts_.captures.push_back(env.payload);
    if (counts_.captures.size() == 2 * capture_limit_) {
      // Keep every other capture and double the stride: the sample stays
      // every stride-th delivery, spread over the whole run.
      auto& c = counts_.captures;
      for (std::size_t i = 1; i < c.size(); i += 2) c[i / 2] = std::move(c[i]);
      c.resize(capture_limit_);
      capture_stride_ *= 2;
    }
  }
  const Handler& h = handlers_[node];
  if (!h) return;
  if (!timed_) {
    h(env);
    return;
  }
  const auto t0 = Clock::now();
  h(env);
  const double ns = ns_since(t0);
  counts_.rx_ns[cls] += ns;
  counts_.handler_ns += ns;
  ++counts_.rx_handled[cls];
  // Signature work the receiver just did, counted outside the timed region.
  if (core::is_batch_wire(bytes)) {
    for (const auto sub : core::decode_batch_prefix(bytes).wires) {
      ++counts_.sealed_delivered;
      counts_.sha256_blocks += verify_blocks(sub.size());
    }
  } else {
    ++counts_.sealed_delivered;
    counts_.sha256_blocks += verify_blocks(bytes.size());
  }
}

std::uint64_t ProbeTransport::drain_in_flight() {
  const net::NetStats before = inner_->stats();
  draining_ = true;
  // Far beyond any latency, spike or upload backlog the workloads create.
  inner_->run_until(inner_->clock().now() + 600'000);
  const net::NetStats after = inner_->stats();
  return (after.delivered - before.delivered) + (after.dropped - before.dropped);
}

}  // namespace sessionbench
