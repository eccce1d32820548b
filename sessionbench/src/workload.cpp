#include "workload.hpp"

namespace sessionbench {

namespace {

// Five sixths humans, the rest patrol bots (rounded down).
std::size_t humans_of(std::size_t players) { return players * 5 / 6; }

// The deployed workload's fixed inputs: the trace and session seeds of
// examples/deathmatch_48.
constexpr std::uint64_t kFixedTraceSeed = 2013;
constexpr std::uint64_t kFixedSessionSeed = 42;

// The honest player the deployed fault plan crashes and rejoins.
constexpr PlayerId kCrashedPlayer = 10;

void deployed_levers(core::SessionOptions& o) {
  core::WatchmenConfig& c = o.watchmen;
  // Wire levers.
  c.batching = true;
  c.delta_updates = true;
  c.ack_anchored = true;
  c.quantized_guidance = true;
  c.subscriber_diffs = true;
  c.compact_headers = true;
  // The repository's Deployed wire block (examples/deathmatch_48 --batch,
  // wmtop, sec6_bandwidth_scaling) budgets Others at 64 receivers.
  c.other_update_budget = 64;
  // Hardening levers and the chaos suite's loss tolerances.
  c.reliable_control = true;
  c.liveness_watchdog = true;
  c.mtu_bytes = 1200;
  c.proxy_failover_silence = 20;
  c.rate_loss_allowance = 0.30;
  c.starve_loss_allowance = 0.8;
  c.starve_floor = 0.15;
  o.misbehavior_enforcement = true;

  // One Gilbert–Elliott burst (~17 % mean loss), one crash and rejoin of
  // an honest player, one latency spike — spread over the run so each
  // recovery completes before the next fault.
  net::FaultPlan& f = o.faults;
  f.bursts.push_back(
      {time_of(200), time_of(360), net::GilbertElliott{0.05, 0.25, 0.0, 0.6}});
  f.crashes.push_back({500, kCrashedPlayer, 620});
  f.latency_spikes.push_back({time_of(800), time_of(900), 120.0});
}

}  // namespace

std::vector<Workload> all_workloads() {
  return {
      {"paper48", 48, humans_of(48), 1200, 1, false, true},
      {"crowd256", 256, humans_of(256), 200, 4, false, true},
      {"deployed64_chaos", 64, humans_of(64), 1000, 1, true, false},
  };
}

std::optional<Workload> find_workload(const std::string& name) {
  for (const Workload& w : all_workloads()) {
    if (w.name == name) return w;
  }
  return std::nullopt;
}

Seeds seeds_for(const Workload& w, std::uint64_t seed) {
  if (!w.seeded_inputs) return {kFixedTraceSeed, kFixedSessionSeed};
  return {seed, seed ^ 0x5eed5e55104cULL};
}

game::SessionConfig trace_config(const Workload& w, const Seeds& s) {
  game::SessionConfig c;
  c.n_players = w.players;
  c.n_humans = w.humans;
  c.n_frames = w.frames;
  c.seed = s.trace;
  return c;
}

std::vector<obs::CheatSpec> roster() {
  return {
      {obs::RosterCheat::kSpeedHack, 0, {1, 0.08, 6.0}},
      {obs::RosterCheat::kFakeKill, 1, {2, 0.05}},
      {obs::RosterCheat::kGuidanceLie, 2, {3, 0.5, 4.0}},
      {obs::RosterCheat::kSuppressCorrect, 3, {40, 15}},
  };
}

core::SessionOptions session_options(const Workload& w, const Seeds& s) {
  core::SessionOptions o;
  o.seed = s.session;
  o.net = core::NetProfile::kKing;
  o.loss_rate = 0.01;
  // Explicit, so WATCHMEN_TRANSPORT in the environment cannot move a run
  // onto real sockets.
  o.transport = net::TransportKind::kSim;
  o.compute_threads = w.compute_threads;
  if (w.deployed) deployed_levers(o);
  return o;
}

}  // namespace sessionbench
