#pragma once
// Correctness checks. Each takes only evidence captured from a run (or
// recomputed from the run's inputs) and returns what it found wrong; an
// empty list is a pass. None reads a clock, a thread count or a timing, so
// a check's verdict depends on the seed and the inputs alone. The
// self-check mode feeds each one a deliberately corrupted twin of real
// evidence to prove it can fail.

#include <cstdint>
#include <string>
#include <vector>

#include "core/proxy_schedule.hpp"
#include "crypto/keys.hpp"
#include "crypto/sha256.hpp"
#include "game/avatar.hpp"
#include "game/map.hpp"
#include "interest/sets.hpp"
#include "net/transport.hpp"
#include "reputation/misbehavior_engine.hpp"
#include "verify/report.hpp"

namespace sessionbench {

using namespace watchmen;

using Failures = std::vector<std::string>;

/// Every pass (and the traced pass) ends with the same session digest.
Failures check_determinism(const std::vector<crypto::Digest>& digests);

/// One player's sets on one sampled frame, from the optimized path and the
/// reference, with the inputs the geometry check needs.
struct InterestSample {
  Frame frame = 0;
  PlayerId self = 0;
  std::vector<game::AvatarState> avatars;  ///< the frame's snapshot
  interest::PlayerSets prev;               ///< hysteresis input
  interest::PlayerSets fast;               ///< compute_sets_into
  interest::PlayerSets reference;          ///< compute_sets_reference
};
Failures check_interest(const std::vector<InterestSample>& samples,
                        const game::GameMap& map,
                        const interest::InterestConfig& cfg);

/// proxy[r][p] = proxy_of(p, r); proxied[r][q] = proxied_by(q, r);
/// in_pool[q] = schedule.in_pool(q) (weights are 1 or 0 in every workload).
struct ScheduleEvidence {
  std::vector<std::vector<PlayerId>> proxy;
  std::vector<std::vector<std::vector<PlayerId>>> proxied;
  std::vector<bool> in_pool;
};
Failures check_schedule(const ScheduleEvidence& e);

/// Network conservation, with every figure reached two ways.
struct NetEvidence {
  net::NetStats stats;          ///< the transport's own counters
  std::uint64_t probe_sends = 0;
  std::uint64_t probe_oversize = 0;
  std::uint64_t probe_wire_bits = 0;
  std::uint64_t probe_delivered = 0;
  std::uint64_t in_flight = 0;  ///< measured by draining the queue
  std::vector<std::uint64_t> probe_age_hist;  ///< deliveries by age in ms
};
Failures check_network(const NetEvidence& e);

/// Every captured sealed wire opens under its origin's key; the same wire
/// with one bit flipped (bit index from `flip_seed`) does not.
Failures check_signatures(
    const std::vector<std::vector<std::uint8_t>>& sealed_wires,
    const crypto::KeyRegistry& keys, std::uint64_t flip_seed);

/// Every scripted cheater draws at least one report rated above 1.
Failures check_detection(const std::vector<verify::CheatReport>& reports,
                         const std::vector<PlayerId>& cheaters);

/// The standings a fresh engine reaches from the shuffled detector log equal
/// the session's.
Failures check_reputation(const std::vector<reputation::Standing>& session,
                          const std::vector<reputation::Standing>& replayed);

/// Linear-interpolated quantile over a sorted copy: the rule util::Samples
/// uses.
double quantile(std::vector<double> xs, double q);

/// The same rule over a histogram of whole values (hist[v] = count of v), so
/// the probe's delivery percentile can equal NetStats' own exactly.
double quantile_of_histogram(const std::vector<std::uint64_t>& hist, double q);

}  // namespace sessionbench
