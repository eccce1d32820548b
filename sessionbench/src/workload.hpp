#pragma once
// The benchmark's three workloads: what the game trace, the cheat roster and
// the session options are for each, as a pure function of (workload, seed).

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/session.hpp"
#include "game/map.hpp"
#include "game/trace.hpp"
#include "obs/recorder.hpp"

namespace sessionbench {

using namespace watchmen;

struct Workload {
  std::string name;
  std::size_t players = 0;
  std::size_t humans = 0;  ///< the rest are patrol bots
  std::size_t frames = 0;
  /// Interest-phase pool size. Fixed per workload, never 0 (0 follows the
  /// host): results are bit-identical for every value, so this only moves
  /// wall time, and a fixed value keeps that comparable across hosts.
  std::size_t compute_threads = 1;
  /// The "Deployed" configuration: wire levers, hardening levers, standing
  /// enforcement and a fault plan. False is the paper protocol.
  bool deployed = false;
  /// True when --seed picks the game trace and the session seed. The
  /// deployed workload keeps fixed inputs: its failed-operation count comes
  /// from a known fault and must be the same share in every run.
  bool seeded_inputs = true;
};

/// Looks a workload up by name; nullopt for an unknown name.
std::optional<Workload> find_workload(const std::string& name);

/// Every workload, in the order BENCHMARK.json lists them.
std::vector<Workload> all_workloads();

/// Seeds actually used for the run (fixed for unseeded workloads).
struct Seeds {
  std::uint64_t trace = 0;    ///< game::SessionConfig::seed
  std::uint64_t session = 0;  ///< core::SessionOptions::seed (keys, schedule,
                              ///< latency matrix, loss draws)
};
Seeds seeds_for(const Workload& w, std::uint64_t seed);

game::SessionConfig trace_config(const Workload& w, const Seeds& s);

/// The four-cheater roster of examples/deathmatch_48 on players 0..3.
std::vector<obs::CheatSpec> roster();

/// Session options without observability sinks or transport factory; the
/// transport backend and the pool size are always explicit.
core::SessionOptions session_options(const Workload& w, const Seeds& s);

/// Frames per registry snapshot: a 1 Hz monitor at 50 ms frames.
constexpr std::size_t kSnapshotEveryFrames = 20;

}  // namespace sessionbench
