#pragma once
// Per-layer replays. Each one re-drives a library entry point over inputs
// or traffic captured from a session run, times it from outside, and
// returns the evidence the matching correctness check reads.

#include <cstdint>
#include <memory>
#include <vector>

#include "checks.hpp"
#include "core/proxy_schedule.hpp"
#include "crypto/keys.hpp"
#include "game/map.hpp"
#include "game/trace.hpp"
#include "interest/sets.hpp"
#include "reputation/misbehavior_engine.hpp"
#include "verify/report.hpp"

namespace sessionbench {

/// compute_sets_into over every player-frame of the trace (one thread,
/// hysteresis carried frame to frame), plus reference samples on
/// `sample_frames` for `players_per_sample` players each.
struct InterestReplay {
  std::vector<InterestSample> samples;
  double ns = 0.0;          ///< wall time inside compute_sets_into
  std::uint64_t calls = 0;  ///< player-frames computed
};
InterestReplay replay_interest(const game::GameTrace& trace,
                               const game::GameMap& map,
                               const interest::InterestConfig& cfg,
                               const std::vector<Frame>& sample_frames,
                               std::size_t players_per_sample,
                               std::uint64_t seed);

/// proxy_of / proxied_by for every player over `rounds` rounds.
ScheduleEvidence schedule_evidence(const core::ProxySchedule& s,
                                   std::int64_t rounds);

/// Mean wall time of one proxy_of call over the run's (player, round) grid.
double time_proxy_of_us(const core::ProxySchedule& s, std::int64_t rounds);

/// Sealed messages unpacked from captured datagrams, with the codec and
/// signature costs of opening and re-signing them.
struct WireReplay {
  std::vector<std::vector<std::uint8_t>> sealed;  ///< one per sub-message
  double open_us = 0.0;          ///< core::open per sealed message
  double batch_decode_us = 0.0;  ///< core::decode_batch per batch datagram
  double verify_us = 0.0;        ///< crypto::verify per sealed message
  double sign_us = 0.0;          ///< crypto::sign per sealed message
  double bytes_per_msg = 0.0;    ///< mean sealed message size
  Failures failures;             ///< malformed captures, signature drift
};
WireReplay replay_wires(
    const std::vector<std::shared_ptr<const std::vector<std::uint8_t>>>& captures,
    const crypto::KeyRegistry& keys, bool timed);

/// Re-submits the detector log to a fresh engine, shuffled within each
/// epoch. `log_size_after_frame[f]` is the log length after frame f, which
/// recovers the frame each report was submitted in. Valid where the
/// session's pool never changes (no churn, no enforcement, no faults).
struct ReputationReplay {
  std::vector<reputation::Standing> standings;
  double submit_us = 0.0;  ///< per report, submit plus epoch aggregation
  std::uint64_t reports = 0;
};
ReputationReplay replay_reputation(
    const std::vector<verify::CheatReport>& log,
    const std::vector<std::size_t>& log_size_after_frame,
    const reputation::EngineConfig& cfg, const core::ProxySchedule& schedule,
    std::uint64_t shuffle_seed);

}  // namespace sessionbench
