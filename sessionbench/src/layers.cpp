#include "layers.hpp"

#include <algorithm>
#include <chrono>
#include <random>

#include "core/messages.hpp"
#include "crypto/sig.hpp"
#include "interest/visibility_cache.hpp"
#include "util/bytes.hpp"

namespace sessionbench {

namespace {

using Clock = std::chrono::steady_clock;

double ns_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
}

/// Best of `reps` timed sweeps of `fn` (ns per sweep): the replays do
/// identical work each sweep, so the minimum drops neighbours' noise.
template <typename Fn>
double best_ns(int reps, Fn&& fn) {
  double best = 0.0;
  for (int i = 0; i < reps; ++i) {
    const auto t0 = Clock::now();
    fn();
    const double ns = ns_since(t0);
    if (i == 0 || ns < best) best = ns;
  }
  return best;
}

constexpr int kReps = 3;

}  // namespace

InterestReplay replay_interest(const game::GameTrace& trace,
                               const game::GameMap& map,
                               const interest::InterestConfig& cfg,
                               const std::vector<Frame>& sample_frames,
                               std::size_t players_per_sample,
                               std::uint64_t seed) {
  InterestReplay out;
  const std::size_t n = trace.n_players;
  game::TraceReplayer rep(trace);
  interest::VisibilityCache vis;
  interest::EyeTable eyes;
  std::vector<interest::PlayerSets> prev(n), cur(n);
  const interest::InteractionFn last_hit = [&rep](PlayerId a, PlayerId b) {
    return rep.last_interaction(a, b);
  };
  std::size_t next_sample = 0;
  for (std::size_t fi = 0; fi < trace.num_frames(); ++fi) {
    const Frame f = static_cast<Frame>(fi);
    rep.seek(fi);
    const std::vector<game::AvatarState>& avatars = rep.current().avatars;
    const auto t0 = Clock::now();
    eyes.build(avatars);
    vis.begin_frame(n);
    for (PlayerId p = 0; p < n; ++p) {
      interest::compute_sets_into(p, avatars, map, f, last_hit, cfg, &prev[p],
                                  &vis, cur[p], &eyes);
    }
    out.ns += ns_since(t0);
    out.calls += n;
    if (next_sample < sample_frames.size() && sample_frames[next_sample] == f) {
      ++next_sample;
      const std::size_t k = std::min(players_per_sample, n);
      const std::size_t offset = static_cast<std::size_t>((seed + fi) % n);
      for (std::size_t i = 0; i < k; ++i) {
        const auto p = static_cast<PlayerId>((offset + i * n / k) % n);
        InterestSample s;
        s.frame = f;
        s.self = p;
        s.avatars = avatars;
        s.prev = prev[p];
        s.fast = cur[p];
        s.reference = interest::compute_sets_reference(p, avatars, map, f,
                                                       last_hit, cfg, &prev[p]);
        out.samples.push_back(std::move(s));
      }
    }
    std::swap(prev, cur);
  }
  return out;
}

ScheduleEvidence schedule_evidence(const core::ProxySchedule& s,
                                   std::int64_t rounds) {
  ScheduleEvidence e;
  const std::size_t n = s.num_players();
  for (PlayerId q = 0; q < n; ++q) e.in_pool.push_back(s.in_pool(q));
  for (std::int64_t r = 0; r < rounds; ++r) {
    std::vector<PlayerId> row(n);
    std::vector<std::vector<PlayerId>> inv(n);
    for (PlayerId p = 0; p < n; ++p) row[p] = s.proxy_of(p, r);
    for (PlayerId q = 0; q < n; ++q) inv[q] = s.proxied_by(q, r);
    e.proxy.push_back(std::move(row));
    e.proxied.push_back(std::move(inv));
  }
  return e;
}

double time_proxy_of_us(const core::ProxySchedule& s, std::int64_t rounds) {
  const std::size_t n = s.num_players();
  std::uint64_t sink = 0;
  const double ns = best_ns(kReps, [&] {
    for (std::int64_t r = 0; r < rounds; ++r) {
      for (PlayerId p = 0; p < n; ++p) sink += s.proxy_of(p, r);
    }
  });
  // Keep the calls observable so the sweep cannot be folded away.
  if (sink == 0xffffffffffffffffULL) return -1.0;
  return ns / 1e3 / static_cast<double>(n * static_cast<std::size_t>(rounds));
}

WireReplay replay_wires(
    const std::vector<std::shared_ptr<const std::vector<std::uint8_t>>>& captures,
    const crypto::KeyRegistry& keys, bool timed) {
  WireReplay out;
  std::vector<std::span<const std::uint8_t>> batch_wires;
  for (const auto& cap : captures) {
    const std::span<const std::uint8_t> bytes(*cap);
    if (!core::is_batch_wire(bytes)) {
      out.sealed.emplace_back(bytes.begin(), bytes.end());
      continue;
    }
    batch_wires.push_back(bytes);
    try {
      for (const auto sub : core::decode_batch(bytes)) {
        out.sealed.emplace_back(sub.begin(), sub.end());
      }
    } catch (const DecodeError&) {
      out.failures.push_back("codec: a captured batch does not decode");
    }
  }
  if (out.sealed.empty()) return out;

  std::size_t bytes = 0;
  struct Parts {
    std::uint64_t public_key = 0;
    const crypto::KeyPair* key = nullptr;
    std::span<const std::uint8_t> signed_part;
    crypto::Signature sig;
  };
  std::vector<Parts> parts;
  parts.reserve(out.sealed.size());
  std::size_t unparsed = 0, drifted = 0;
  for (const auto& w : out.sealed) {
    bytes += w.size();
    const auto msg = core::open_unverified(w);
    if (!msg || msg->header.origin >= keys.size()) {
      ++unparsed;
      continue;
    }
    const std::span<const std::uint8_t> all(w);
    const std::size_t signed_len = w.size() - crypto::kSignatureBytes;
    Parts p;
    p.public_key = keys.public_key(msg->header.origin);
    p.key = &keys.key_pair(msg->header.origin);
    p.signed_part = all.first(signed_len);
    p.sig = crypto::Signature::decode(all.subspan(signed_len));
    // Nonces are derived from (secret, message), so re-signing reproduces
    // the signature on the wire exactly.
    if (crypto::sign(*p.key, p.signed_part) != p.sig) ++drifted;
    parts.push_back(p);
  }
  if (unparsed) out.failures.push_back("codec: captured messages that do not parse");
  if (drifted) {
    out.failures.push_back("signatures: re-signing a captured message gives another signature");
  }
  out.bytes_per_msg =
      static_cast<double>(bytes) / static_cast<double>(out.sealed.size());
  if (!timed || parts.empty()) return out;

  const double msgs = static_cast<double>(out.sealed.size());
  std::size_t opened = 0;
  out.open_us = best_ns(kReps, [&] {
                  opened = 0;
                  for (const auto& w : out.sealed) opened += core::open(w, keys) ? 1 : 0;
                }) / 1e3 / msgs;
  std::size_t verified = 0;
  out.verify_us = best_ns(kReps, [&] {
                    verified = 0;
                    for (const Parts& p : parts) {
                      verified += crypto::verify(p.public_key, p.signed_part, p.sig) ? 1 : 0;
                    }
                  }) / 1e3 / static_cast<double>(parts.size());
  std::uint64_t sink = 0;
  out.sign_us = best_ns(kReps, [&] {
                  for (const Parts& p : parts) sink += crypto::sign(*p.key, p.signed_part).e;
                }) / 1e3 / static_cast<double>(parts.size());
  if (!batch_wires.empty()) {
    std::size_t subs = 0;
    out.batch_decode_us = best_ns(kReps, [&] {
                            subs = 0;
                            for (const auto b : batch_wires) subs += core::decode_batch(b).size();
                          }) / 1e3 / static_cast<double>(batch_wires.size());
  }
  if (opened != out.sealed.size() || verified != parts.size() || sink == 0) {
    out.failures.push_back("signatures: a timed replay disagreed with the untimed one");
  }
  return out;
}

ReputationReplay replay_reputation(
    const std::vector<verify::CheatReport>& log,
    const std::vector<std::size_t>& log_size_after_frame,
    const reputation::EngineConfig& cfg, const core::ProxySchedule& schedule,
    std::uint64_t shuffle_seed) {
  ReputationReplay out;
  const std::size_t n = schedule.num_players();
  reputation::MisbehaviorEngine engine(n, cfg);
  // The session's vantage oracle: the verifiable schedule, ±1 round.
  engine.set_proxy_vantage_check(
      [&schedule](PlayerId reporter, PlayerId subject, Frame frame) {
        const std::int64_t r = schedule.round_of(frame);
        for (std::int64_t d = -1; d <= 1; ++d) {
          if (r + d >= 0 && schedule.proxy_of(subject, r + d) == reporter) return true;
        }
        return false;
      });
  std::mt19937_64 rng(shuffle_seed);
  const auto frames = static_cast<Frame>(log_size_after_frame.size());
  const Frame epoch = cfg.epoch_frames;
  std::vector<verify::CheatReport> batch;
  double ns = 0.0;
  for (Frame e0 = 0; e0 < frames; e0 += epoch) {
    const Frame e1 = std::min(frames, e0 + epoch);
    const std::size_t hi =
        std::min(log.size(), log_size_after_frame[static_cast<std::size_t>(e1 - 1)]);
    // A rejoin's absolution erases reports from the log, so the length can
    // shrink; the range then starts where it ends.
    const std::size_t lo = std::min(
        hi, e0 == 0 ? 0 : log_size_after_frame[static_cast<std::size_t>(e0 - 1)]);
    batch.assign(log.begin() + static_cast<std::ptrdiff_t>(lo),
                 log.begin() + static_cast<std::ptrdiff_t>(hi));
    std::shuffle(batch.begin(), batch.end(), rng);
    const auto t0 = Clock::now();
    engine.advance_to_frame(e0);
    for (const verify::CheatReport& r : batch) engine.submit(r, 1.0);
    ns += ns_since(t0);
    out.reports += batch.size();
  }
  for (PlayerId p = 0; p < n; ++p) out.standings.push_back(engine.standing(p));
  out.submit_us = out.reports ? ns / 1e3 / static_cast<double>(out.reports) : 0.0;
  return out;
}

}  // namespace sessionbench
