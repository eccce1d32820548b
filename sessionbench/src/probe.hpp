#pragma once
// ProbeTransport: a net::Transport decorator the session receives through
// SessionOptions::transport_factory. It forwards every call to the real
// transport unchanged (so the session's digest is the same with or without
// it) and counts, from outside, what the network layer does: sends and
// wire bits, deliveries and their ages, per-class receive-handler cost,
// and the run_until time spent outside handlers.

#include <array>
#include <chrono>
#include <cstdint>
#include <memory>
#include <vector>

#include "net/transport.hpp"

namespace sessionbench {

using namespace watchmen;

/// Classes the probe buckets deliveries into: the datagram's lead byte with
/// the compact-header bit masked off, as NetStats buckets them.
constexpr std::size_t kClasses = net::NetStats::kClassBuckets;

struct ProbeCounts {
  std::uint64_t sends = 0;      ///< sends that fit the MTU
  std::uint64_t oversize = 0;   ///< sends rejected by the MTU
  std::uint64_t wire_bits = 0;  ///< payload + UDP/IP overhead, as sent
  std::uint64_t delivered = 0;  ///< deliveries, handler or not
  /// Deliveries by age (delivered_at - sent_at, whole simulated ms): a
  /// histogram, so counting costs the same at any run length.
  std::vector<std::uint64_t> age_hist;
  std::array<std::uint64_t, kClasses> rx{};  ///< deliveries by class

  // Timed mode only.
  std::array<std::uint64_t, kClasses> rx_handled{};  ///< handler invoked
  std::array<double, kClasses> rx_ns{};              ///< handler wall time
  std::uint64_t timed_sends = 0;
  double send_ns = 0.0;
  double run_until_ns = 0.0;
  double handler_ns = 0.0;
  std::uint64_t sealed_delivered = 0;  ///< signed sub-messages delivered
  std::uint64_t sha256_blocks = 0;     ///< blocks their verifies hash

  /// Every k-th delivered datagram, by reference, for the smallest power of
  /// two k that keeps fewer than twice the capture limit.
  std::vector<std::shared_ptr<const std::vector<std::uint8_t>>> captures;
};

class ProbeTransport final : public net::Transport {
 public:
  using Clock = std::chrono::steady_clock;

  /// `timed` adds wall-clock reads around sends, handlers and run_until
  /// (the traced mode); untimed, the probe only counts.
  ProbeTransport(std::unique_ptr<net::Transport> inner, bool timed,
                 std::size_t capture_limit);

  net::SimClock& clock() override { return inner_->clock(); }
  std::size_t size() const override { return inner_->size(); }
  void set_handler(PlayerId node, Handler handler) override;
  void set_upload_bps(PlayerId node, double bps) override {
    inner_->set_upload_bps(node, bps);
  }
  void set_fault_plan(net::FaultPlan plan) override {
    inner_->set_fault_plan(std::move(plan));
  }
  net::FaultPlan fault_plan() const override { return inner_->fault_plan(); }
  using net::Transport::send;
  void send(PlayerId from, PlayerId to,
            std::shared_ptr<const std::vector<std::uint8_t>> payload,
            std::size_t payload_bits, TimeMs sent_at) override;
  void run_until(TimeMs t) override;
  net::NetStats stats() const override { return inner_->stats(); }
  std::uint64_t bits_sent_by(PlayerId node) const override {
    return inner_->bits_sent_by(node);
  }
  void reset_bit_counters() override { inner_->reset_bit_counters(); }
  void set_mtu(std::size_t bytes) override {
    mtu_ = bytes;
    inner_->set_mtu(bytes);
  }
  void set_oversize_handler(OversizeHandler handler) override {
    inner_->set_oversize_handler(std::move(handler));
  }

  ProbeCounts take_counts() { return std::move(counts_); }

  /// Delivers everything still queued without invoking the session's
  /// handlers and returns how many datagrams that resolved (delivered or
  /// dropped): the in-flight count, measured rather than derived. Call
  /// once, after the last frame and after the session's digest is taken.
  std::uint64_t drain_in_flight();

 private:
  void on_deliver(PlayerId node, const net::Envelope& env);

  std::unique_ptr<net::Transport> inner_;
  const bool timed_;
  const std::size_t capture_limit_;
  std::size_t capture_stride_ = 1;
  std::size_t mtu_ = 0;
  bool draining_ = false;
  std::vector<Handler> handlers_;
  ProbeCounts counts_;
};

}  // namespace sessionbench
