// session_bench: replays a recorded game through the whole Watchmen stack
// and reports end-to-end metrics (untraced) or per-layer metrics (traced).
//
//   session_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//   session_bench --self-check
//
// A run records the workload's game trace, then replays it through fresh
// sessions in whole passes, as many as fit in --seconds (at least two).
// Every pass does bit-identical work (their digests must agree), so each
// frame's time is the minimum over the passes: neighbours' cache and memory
// contention inflates single passes for seconds at a time, and the minimum
// over identical passes filters it out. The last line of standard output is
// one JSON object: correct, attempted, failed, metrics.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "checks.hpp"
#include "core/session.hpp"
#include "layers.hpp"
#include "net/latency.hpp"
#include "obs/recorder.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "probe.hpp"
#include "workload.hpp"

namespace sessionbench {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

constexpr std::size_t kCaptureLimit = 4096;
constexpr std::size_t kMinPasses = 2;
constexpr std::size_t kNumCheaters = 4;

// ---------------------------------------------------------------- one pass

struct PassOutput {
  bool traced = false;
  double ctor_s = 0.0;
  std::vector<double> frame_ms;
  std::vector<double> snapshot_ms;
  std::size_t snapshot_bytes = 0;
  crypto::Digest digest{};
  net::NetStats stats;
  ProbeCounts probe;
  std::uint64_t in_flight = 0;
  std::vector<reputation::Standing> standings;
  std::vector<verify::CheatReport> reports;
  std::vector<std::size_t> log_size_after_frame;
  std::uint64_t samples_held = 0;
  std::optional<core::ProxySchedule> schedule;
  crypto::KeyRegistry keys;
  reputation::EngineConfig engine;
  std::map<std::string, double> span_self_us;  ///< traced passes only
  std::string chrome_trace;                     ///< traced passes only
  std::uint64_t trace_dropped = 0;
};

/// Raw values every unbounded util::Samples of the run holds at its end.
std::uint64_t samples_held(const core::WatchmenSession& s) {
  std::uint64_t n = s.network().stats().delivery_age_ms.count();
  for (PlayerId p = 0; p < s.num_players(); ++p) {
    const core::PeerMetrics& m = s.peer(p).metrics();
    n += m.update_age_frames.count() + m.staleness_frames.count() +
         m.handoff_latency_ms.count() + m.subscribe_latency_ms.count() +
         m.batch_sizes.count();
  }
  return n;
}

PassOutput run_pass(const Workload& w, const Seeds& seeds,
                    const game::GameTrace& trace, const game::GameMap& map,
                    bool traced, std::size_t ring_capacity,
                    std::optional<Clock::time_point>* constructed_at = nullptr) {
  PassOutput out;
  out.traced = traced;
  // Misbehaviors carry their own random state: fresh ones every pass.
  std::vector<std::unique_ptr<core::Misbehavior>> owned;
  const auto cheaters = obs::make_misbehaviors(roster(), w.players, owned);

  core::SessionOptions opts = session_options(w, seeds);
  obs::Registry registry;  // outlives the session, which deregisters from it
  std::unique_ptr<obs::Tracer> tracer;
  if (traced) tracer = std::make_unique<obs::Tracer>(ring_capacity);
  opts.registry = &registry;
  opts.tracer = tracer.get();
  ProbeTransport* probe = nullptr;
  const std::uint64_t session_seed = opts.seed;
  const double loss = opts.loss_rate;
  opts.transport_factory = [&probe, session_seed, loss,
                            traced](std::size_t n) -> std::unique_ptr<net::Transport> {
    net::TransportConfig tc;
    tc.kind = net::TransportKind::kSim;
    tc.n_nodes = n;
    tc.latency = net::make_king_latency(n, session_seed);
    tc.loss_rate = loss;
    tc.seed = session_seed;
    auto p = std::make_unique<ProbeTransport>(net::make_transport(std::move(tc)),
                                              traced, kCaptureLimit);
    probe = p.get();
    return p;
  };

  const auto t_ctor = Clock::now();
  core::WatchmenSession session(trace, map, opts, cheaters);
  out.ctor_s = seconds_since(t_ctor);
  if (constructed_at) *constructed_at = Clock::now();

  const std::size_t frames = trace.num_frames();
  out.frame_ms.resize(frames);
  out.log_size_after_frame.resize(frames);
  for (std::size_t f = 0; f < frames; ++f) {
    const auto t0 = Clock::now();
    session.run_frames(1);
    out.frame_ms[f] = seconds_since(t0) * 1e3;
    out.log_size_after_frame[f] = session.detector().reports().size();
    if ((f + 1) % kSnapshotEveryFrames == 0) {
      const auto t1 = Clock::now();
      const std::string snap = registry.snapshot_json();
      out.snapshot_ms.push_back(seconds_since(t1) * 1e3);
      out.snapshot_bytes = snap.size();
    }
  }

  out.digest = obs::session_digest(session);
  out.stats = session.network().stats();
  out.samples_held = samples_held(session);
  for (PlayerId p = 0; p < w.players; ++p) {
    out.standings.push_back(session.misbehavior().standing(p));
  }
  out.reports = session.detector().reports();
  out.schedule = session.schedule();
  out.keys = session.keys();
  out.engine = session.misbehavior().config();
  if (tracer) {
    out.chrome_trace = tracer->chrome_trace_json();
    out.trace_dropped = tracer->dropped_events();
  }
  out.in_flight = probe->drain_in_flight();
  out.probe = probe->take_counts();
  return out;
}

// ------------------------------------------------------------- statistics

double mean(const std::vector<double>& v) {
  return v.empty() ? 0.0
                   : std::accumulate(v.begin(), v.end(), 0.0) /
                         static_cast<double>(v.size());
}

/// Element-wise minimum over the series of the selected passes.
std::vector<double> per_index_min(const std::vector<PassOutput>& passes,
                                  bool traced,
                                  std::vector<double> PassOutput::*series) {
  std::vector<double> out;
  for (const PassOutput& p : passes) {
    if (p.traced != traced) continue;
    const std::vector<double>& s = p.*series;
    if (out.empty()) {
      out = s;
      continue;
    }
    for (std::size_t i = 0; i < out.size() && i < s.size(); ++i) {
      out[i] = std::min(out[i], s[i]);
    }
  }
  return out;
}

/// Self time per span name (µs) from the tracer's Chrome export, which
/// writes one "key": value per line with "tid" last before "args".
std::map<std::string, double> span_self_us(const std::string& chrome) {
  struct Open {
    std::string name;
    std::int64_t ts;
    std::int64_t child_us;
  };
  std::map<std::string, double> self;
  std::map<std::int64_t, std::vector<Open>> stacks;
  std::string name, ph;
  std::int64_t ts = 0;
  std::istringstream in(chrome);
  std::string line;
  const auto value_of = [](const std::string& l) {
    const auto colon = l.find(':');
    std::string v = l.substr(colon + 1);
    v.erase(std::remove_if(v.begin(), v.end(),
                           [](char c) { return c == '"' || c == ',' || c == ' '; }),
            v.end());
    return v;
  };
  while (std::getline(in, line)) {
    const auto k = line.find_first_not_of(' ');
    if (k == std::string::npos) continue;
    const std::string l = line.substr(k);
    if (l.rfind("\"name\":", 0) == 0) {
      name = value_of(l);
    } else if (l.rfind("\"ph\":", 0) == 0) {
      ph = value_of(l);
    } else if (l.rfind("\"ts\":", 0) == 0) {
      ts = std::stoll(value_of(l));
    } else if (l.rfind("\"tid\":", 0) == 0) {
      auto& stack = stacks[std::stoll(value_of(l))];
      if (ph == "B") {
        stack.push_back({name, ts, 0});
      } else if (ph == "E" && !stack.empty() && stack.back().name == name) {
        const Open o = stack.back();
        stack.pop_back();
        const std::int64_t dur = ts - o.ts;
        self[name] += static_cast<double>(dur - o.child_us);
        if (!stack.empty()) stack.back().child_us += dur;
      }
    }
  }
  return self;
}

// ------------------------------------------------------------------ output

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string json_line(bool correct, std::uint64_t attempted,
                      std::uint64_t failed, const std::vector<Metric>& metrics) {
  std::string s = "{\"correct\": ";
  s += correct ? "true" : "false";
  s += ", \"attempted\": " + std::to_string(attempted);
  s += ", \"failed\": " + std::to_string(failed);
  s += ", \"metrics\": {";
  char buf[64];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buf, sizeof buf, "%.17g", metrics[i].value);
    s += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " + buf +
         ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  s += "}}";
  return s;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// ------------------------------------------------------------------ checks

struct Evidence {
  std::vector<crypto::Digest> digests;
  InterestReplay interest;
  ScheduleEvidence schedule;
  NetEvidence net;
  WireReplay wires;
  std::vector<verify::CheatReport> reports;
  std::vector<reputation::Standing> standings;
  crypto::KeyRegistry keys;
  ReputationReplay reputation;
  bool reputation_exact = false;
};

std::vector<Frame> sample_frames(std::size_t frames, std::uint64_t seed) {
  constexpr std::size_t kSamples = 6;
  std::vector<Frame> out;
  const std::size_t stride = std::max<std::size_t>(1, frames / kSamples);
  for (std::size_t f = seed % stride; f < frames; f += stride) {
    out.push_back(static_cast<Frame>(f));
  }
  return out;
}

Evidence gather(const Workload& w, const game::GameTrace& trace,
                const game::GameMap& map, const std::vector<PassOutput>& passes,
                std::uint64_t seed, bool timed) {
  Evidence e;
  const PassOutput& p0 = passes.front();
  for (const PassOutput& p : passes) e.digests.push_back(p.digest);
  const core::SessionOptions opts = session_options(w, seeds_for(w, seed));
  e.interest = replay_interest(trace, map, opts.watchmen.interest,
                               sample_frames(trace.num_frames(), seed), 12, seed);
  const std::int64_t rounds =
      static_cast<std::int64_t>(trace.num_frames()) / p0.schedule->renewal_frames() + 1;
  e.schedule = schedule_evidence(*p0.schedule, rounds);
  e.net.stats = p0.stats;
  e.net.probe_sends = p0.probe.sends;
  e.net.probe_oversize = p0.probe.oversize;
  e.net.probe_wire_bits = p0.probe.wire_bits;
  e.net.probe_delivered = p0.probe.delivered;
  e.net.in_flight = p0.in_flight;
  e.net.probe_age_hist = p0.probe.age_hist;
  e.wires = replay_wires(p0.probe.captures, p0.keys, timed);
  e.reports = p0.reports;
  e.standings = p0.standings;
  e.keys = p0.keys;
  e.reputation = replay_reputation(p0.reports, p0.log_size_after_frame,
                                   p0.engine, *p0.schedule, seed ^ 0x5eedULL);
  // The replay's vantage oracle is the final schedule and its discount is
  // 1: exact only where the pool never changes and no fault window
  // discounts a report, which rules out the deployed workload (churn and
  // standing enforcement reweight its pool mid-run). There the replay
  // still times the engine.
  e.reputation_exact = !w.deployed;
  return e;
}

Failures run_checks(const Evidence& e, const game::GameMap& map,
                    const interest::InterestConfig& icfg, std::uint64_t seed) {
  Failures all;
  const auto add = [&all](Failures f) { all.insert(all.end(), f.begin(), f.end()); };
  add(check_determinism(e.digests));
  add(check_interest(e.interest.samples, map, icfg));
  add(check_schedule(e.schedule));
  add(check_network(e.net));
  add(e.wires.failures);
  add(check_signatures(e.wires.sealed, e.keys, seed));
  std::vector<PlayerId> cheaters;
  for (PlayerId p = 0; p < kNumCheaters; ++p) cheaters.push_back(p);
  add(check_detection(e.reports, cheaters));
  if (e.reputation_exact) add(check_reputation(e.standings, e.reputation.standings));
  return all;
}

// ------------------------------------------------------------------- modes

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool self_check = false;
};

std::optional<Args> parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--self-check") {
      a.self_check = true;
      continue;
    }
    if (i + 1 >= argc) return std::nullopt;
    const std::string v = argv[++i];
    char* end = nullptr;
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v.c_str(), &end, 10);
      if (*end) return std::nullopt;
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v.c_str(), &end);
      if (*end || !(a.seconds > 0.0)) return std::nullopt;
    } else if (k == "--trace") {
      if (v != "0" && v != "1") return std::nullopt;
      a.trace = v == "1";
    } else {
      return std::nullopt;
    }
  }
  if (!a.self_check && a.workload.empty()) return std::nullopt;
  return a;
}

/// Drops the bulky evidence a pass keeps; only the first pass's is checked.
void slim(PassOutput& p) {
  p.probe.age_hist = {};
  p.probe.captures = {};
  p.reports = {};
  p.log_size_after_frame = {};
  p.chrome_trace = {};
  p.stats.delivery_age_ms = {};
}

std::uint64_t failed_players(const PassOutput& p) {
  std::uint64_t n = 0;
  for (PlayerId q = kNumCheaters; q < p.standings.size(); ++q) {
    if (p.standings[q] != reputation::Standing::kGood) ++n;
  }
  return n;
}

void write_file(const std::filesystem::path& path, const std::string& text) {
  std::ofstream f(path);
  f << text;
  if (!f) throw std::runtime_error("cannot write " + path.string());
}

/// Session phase names as the session's Tracer spans call them, and the
/// metric each one's self time feeds.
const std::pair<const char*, const char*> kPhases[] = {
    {"deliver", "session.deliver_ms"},
    {"handoff", "session.handoff_ms"},
    {"interest_compute", "session.interest_ms"},
    {"dissemination", "session.dissemination_ms"},
};

/// Lead MsgTypes the receive path is split by, with their metric suffixes.
const std::pair<core::MsgType, const char*> kRxClasses[] = {
    {core::MsgType::kStateUpdate, "state_update"},
    {core::MsgType::kPositionUpdate, "position"},
    {core::MsgType::kGuidance, "guidance"},
    {core::MsgType::kSubscribe, "subscribe"},
    {core::MsgType::kSubscriberList, "subscriber_list"},
    {core::MsgType::kHandoff, "handoff"},
    {core::MsgType::kBatch, "batch"},
    {core::MsgType::kAck, "ack"},
};

/// Minimum of `fn` over the traced passes (each does identical work).
template <typename Fn>
double traced_min(const std::vector<PassOutput>& passes, Fn&& fn) {
  double best = 0.0;
  bool first = true;
  for (const PassOutput& p : passes) {
    if (!p.traced) continue;
    const double v = fn(p);
    if (first || v < best) best = v;
    first = false;
  }
  return best;
}

std::vector<Metric> layer_metrics(const Workload& w,
                                  const std::vector<PassOutput>& passes,
                                  const Evidence& e, double trace_s,
                                  const std::vector<double>& untraced_min,
                                  const std::vector<double>& traced_min_frames) {
  std::vector<Metric> m;
  const PassOutput& p0 = passes.front();
  const PassOutput* tp = nullptr;
  for (const PassOutput& p : passes) {
    if (p.traced) tp = &p;
  }
  const double frames = static_cast<double>(w.frames);
  for (const auto& [span, name] : kPhases) {
    m.push_back({name, traced_min(passes, [&](const PassOutput& p) {
                   const auto it = p.span_self_us.find(span);
                   return it == p.span_self_us.end() ? 0.0 : it->second / 1e3 / frames;
                 }), "ms"});
  }
  const ProbeCounts& tc = tp->probe;
  m.push_back({"net.sends_per_frame", static_cast<double>(tc.sends) / frames, "1/frame"});
  m.push_back({"net.bytes_per_frame", static_cast<double>(tc.wire_bits) / 8.0 / frames,
               "B/frame"});
  m.push_back({"net.send_us", traced_min(passes, [](const PassOutput& p) {
                 return p.probe.timed_sends
                            ? p.probe.send_ns / 1e3 / static_cast<double>(p.probe.timed_sends)
                            : 0.0;
               }), "us"});
  m.push_back({"net.queue_ms", traced_min(passes, [&](const PassOutput& p) {
                 return (p.probe.run_until_ns - p.probe.handler_ns) / 1e6 / frames;
               }), "ms"});
  m.push_back({"net.drops_per_frame", static_cast<double>(tp->stats.dropped) / frames,
               "1/frame"});
  for (const auto& [type, suffix] : kRxClasses) {
    const auto c = static_cast<std::size_t>(type);
    m.push_back({std::string("core.peer.rx_us.") + suffix,
                 traced_min(passes, [c](const PassOutput& p) {
                   return p.probe.rx_handled[c]
                              ? p.probe.rx_ns[c] / 1e3 /
                                    static_cast<double>(p.probe.rx_handled[c])
                              : 0.0;
                 }), "us"});
  }
  for (const auto& [type, suffix] : kRxClasses) {
    const auto c = static_cast<std::size_t>(type);
    m.push_back({std::string("core.peer.rx_per_frame.") + suffix,
                 static_cast<double>(tc.rx[c]) / frames, "1/frame"});
  }
  m.push_back({"crypto.verify_us", e.wires.verify_us, "us"});
  m.push_back({"crypto.sign_us", e.wires.sign_us, "us"});
  m.push_back({"crypto.verifies_per_frame",
               static_cast<double>(tc.sealed_delivered) / frames, "1/frame"});
  m.push_back({"crypto.sha256_blocks_per_frame",
               static_cast<double>(tc.sha256_blocks) / frames, "1/frame"});
  m.push_back({"core.codec.open_us", e.wires.open_us, "us"});
  m.push_back({"core.codec.batch_decode_us", e.wires.batch_decode_us, "us"});
  m.push_back({"core.codec.bytes_per_msg", e.wires.bytes_per_msg, "B"});
  const std::int64_t rounds = static_cast<std::int64_t>(e.schedule.proxy.size());
  m.push_back({"core.schedule.proxy_of_us", time_proxy_of_us(*p0.schedule, rounds), "us"});
  m.push_back({"interest.sets_us",
               e.interest.calls ? e.interest.ns / 1e3 / static_cast<double>(e.interest.calls)
                                : 0.0,
               "us"});
  m.push_back({"verify.reports_per_frame", static_cast<double>(e.reports.size()) / frames,
               "1/frame"});
  m.push_back({"reputation.submit_us", e.reputation.submit_us, "us"});
  m.push_back({"reputation.reports", static_cast<double>(e.reputation.reports), "count"});
  m.push_back({"obs.snapshot_bytes", static_cast<double>(p0.snapshot_bytes), "B"});
  m.push_back({"obs.samples_held", static_cast<double>(p0.samples_held), "count"});
  m.push_back({"obs.trace_overhead_pct",
               (mean(traced_min_frames) / mean(untraced_min) - 1.0) * 100.0, "%"});
  m.push_back({"game.trace_s", trace_s, "s"});
  m.push_back({"core.session.ctor_s", p0.ctor_s, "s"});
  return m;
}

int run_benchmark(const Args& a, Clock::time_point t_start) {
  const std::optional<Workload> found = find_workload(a.workload);
  if (!found) {
    std::fprintf(stderr, "unknown workload '%s'\n", a.workload.c_str());
    return 2;
  }
  const Workload& w = *found;
  const Seeds seeds = seeds_for(w, a.seed);

  // Set-up: the game trace, then the first session.
  const auto t_trace = Clock::now();
  const game::GameMap map = game::make_longest_yard();
  const game::GameTrace trace = game::record_session(map, trace_config(w, seeds));
  const double trace_s = seconds_since(t_trace);

  std::vector<PassOutput> passes;
  std::optional<Clock::time_point> setup_end;
  passes.push_back(run_pass(w, seeds, trace, map, false, 0, &setup_end));
  const double setup_s = std::chrono::duration<double>(*setup_end - t_start).count();
  // Peak memory of set-up plus one whole pass: later passes reuse the freed
  // heap, and the benchmark's own evidence grows with the pass count.
  const double rss_mb = peak_rss_mb();
  // The tracer ring holds the whole pass: twelve span events per frame, two
  // per detector report (each report is a cheat_report instant) and room
  // for churn and exclusion instants.
  const std::size_t ring =
      12 * w.frames + 2 * passes.front().reports.size() + (std::size_t{1} << 16);

  // Whole passes until the next would overrun --seconds; the traced mode
  // alternates untraced and traced passes so both see the same conditions.
  std::size_t untraced = 1, traced = 0;
  double last_s = seconds_since(*setup_end);
  std::filesystem::path trace_file;
  for (;;) {
    const double elapsed = seconds_since(*setup_end);
    const bool required = a.trace ? traced == 0 : passes.size() < kMinPasses;
    if (!required && elapsed + last_s > a.seconds) break;
    const bool do_trace = a.trace && traced < untraced;
    const auto t0 = Clock::now();
    passes.push_back(run_pass(w, seeds, trace, map, do_trace, ring));
    last_s = seconds_since(t0);
    PassOutput& p = passes.back();
    if (do_trace) {
      ++traced;
      p.span_self_us = span_self_us(p.chrome_trace);
      const std::filesystem::path dir = ".bench_out";
      std::filesystem::create_directories(dir);
      trace_file = dir / (w.name + "_seed" + std::to_string(a.seed) + ".trace.json");
      write_file(trace_file, p.chrome_trace);
    } else {
      ++untraced;
    }
    slim(p);
  }

  // Checks, on the first pass's evidence plus every pass's digest.
  const Evidence e = gather(w, trace, map, passes, a.seed, a.trace);
  const core::SessionOptions opts = session_options(w, seeds);
  Failures failures = run_checks(e, map, opts.watchmen.interest, a.seed);
  for (const PassOutput& p : passes) {
    if (p.traced && p.trace_dropped != 0) {
      failures.push_back("trace: the tracer ring overwrote events");
    }
  }
  for (const std::string& f : failures) std::fprintf(stderr, "CHECK FAILED: %s\n", f.c_str());

  std::uint64_t attempted = 0, failed = 0;
  for (const PassOutput& p : passes) {
    attempted += w.players - kNumCheaters;
    failed += failed_players(p);
  }

  const std::vector<double> frame_min = per_index_min(passes, false, &PassOutput::frame_ms);
  std::vector<Metric> metrics;
  if (!a.trace) {
    const PassOutput& p0 = passes.front();
    const double sim_s = static_cast<double>(w.frames) * kFrameMs / 1e3;
    metrics = {
        {"setup_s", setup_s, "s"},
        {"frame_ms", mean(frame_min), "ms"},
        {"frame_ms_p99", quantile(frame_min, 0.99), "ms"},
        {"snapshot_ms", mean(per_index_min(passes, false, &PassOutput::snapshot_ms)), "ms"},
        {"peak_rss_mb", rss_mb, "MB"},
        {"upload_kbps",
         static_cast<double>(p0.stats.bits_sent) / static_cast<double>(w.players) / sim_s /
             1e3,
         "kbit/s"},
        {"delivery_p99_ms", p0.stats.delivery_age_ms.quantile(0.99), "sim_ms"},
    };
  } else {
    metrics = layer_metrics(w, passes, e, trace_s, frame_min,
                            per_index_min(passes, true, &PassOutput::frame_ms));
    std::string layers = json_line(failures.empty(), attempted, failed, metrics);
    write_file(std::filesystem::path(".bench_out") /
                   (w.name + "_seed" + std::to_string(a.seed) + ".layers.json"),
               layers + "\n");
    std::fprintf(stderr, "chrome trace: %s\n", trace_file.string().c_str());
  }
  std::string pass_ms;
  for (const PassOutput& p : passes) {
    char buf[32];
    std::snprintf(buf, sizeof buf, " %s%.3f", p.traced ? "T" : "", mean(p.frame_ms));
    pass_ms += buf;
  }
  std::fprintf(stderr,
               "%s seed %llu: %zu untraced + %zu traced passes of %zu frames, "
               "mean ms/frame per pass:%s\n",
               w.name.c_str(), static_cast<unsigned long long>(a.seed), untraced, traced,
               w.frames, pass_ms.c_str());
  std::printf("%s\n", json_line(failures.empty(), attempted, failed, metrics).c_str());
  return 0;
}

/// Runs every check on a short input, then on corrupted twins of its
/// evidence; each twin must trip its check. Returns 0 when all of that
/// holds.
int self_check() {
  bool ok = true;
  const auto report = [&ok](const char* what, bool pass) {
    std::printf("%-52s %s\n", what, pass ? "ok" : "FAILED");
    ok = ok && pass;
  };
  const game::GameMap map = game::make_longest_yard();
  constexpr std::uint64_t kSeed = 7;
  std::optional<Evidence> paper;
  for (const bool deployed : {false, true}) {
    const Workload w{deployed ? "selfcheck_deployed" : "selfcheck_paper", 16, 13, 320, 2,
                     deployed, true};
    const Seeds seeds = seeds_for(w, kSeed);
    const game::GameTrace trace = game::record_session(map, trace_config(w, seeds));
    std::vector<PassOutput> passes;
    passes.push_back(run_pass(w, seeds, trace, map, false, 0));
    passes.push_back(run_pass(w, seeds, trace, map, true, 1 << 16));
    const Evidence e = gather(w, trace, map, passes, kSeed, true);
    const Failures f =
        run_checks(e, map, session_options(w, seeds).watchmen.interest, kSeed);
    for (const std::string& s : f) std::printf("  %s\n", s.c_str());
    report((w.name + ": every check passes").c_str(), f.empty());
    report((w.name + ": traced run kept every event").c_str(),
           passes.back().trace_dropped == 0);

    // The probe is transparent: a session on the bare transport ends in
    // the same state.
    std::vector<std::unique_ptr<core::Misbehavior>> owned;
    core::WatchmenSession bare(trace, map, session_options(w, seeds),
                               obs::make_misbehaviors(roster(), w.players, owned));
    bare.run();
    report((w.name + ": probe leaves the digest unchanged").c_str(),
           obs::session_digest(bare) == passes.front().digest);
    if (!deployed) paper = e;
  }

  // Corrupted twins of the paper evidence.
  const Evidence& e = *paper;
  const auto trips = [&report](const char* what, const Failures& f) {
    report(what, !f.empty());
  };
  {
    auto wires = e.wires.sealed;
    wires.front().back() ^= 0x01;  // last byte: inside the signature
    trips("twin: flipped signature bit fails signatures",
          check_signatures(wires, e.keys, kSeed));
  }
  {
    ScheduleEvidence s = e.schedule;
    auto& row = s.proxy.front();
    for (PlayerId b = 1; b < row.size(); ++b) {
      if (row[b] != row[0] && row[b] != 0 && row[0] != b) {
        std::swap(row[0], row[b]);
        break;
      }
    }
    trips("twin: swapped proxy fails the schedule check", check_schedule(s));
  }
  {
    auto samples = e.interest.samples;
    interest::PlayerSets& sets = samples.front().fast;
    for (PlayerId q = 0; q < samples.front().avatars.size(); ++q) {
      if (q != samples.front().self && !sets.in_interest(q) && !sets.in_vision(q)) {
        sets.vision.push_back(q);
        break;
      }
    }
    const interest::InterestConfig icfg;
    trips("twin: perturbed interest set fails the interest check",
          check_interest(samples, map, icfg));
  }
  {
    NetEvidence n = e.net;
    --n.probe_delivered;
    --*std::find_if(n.probe_age_hist.rbegin(), n.probe_age_hist.rend(),
                    [](std::uint64_t c) { return c != 0; });
    trips("twin: delivery removed from the count fails conservation", check_network(n));
  }
  {
    auto digests = e.digests;
    std::reverse(digests.back().begin(), digests.back().end());
    trips("twin: reordered pass digest fails determinism", check_determinism(digests));
  }
  {
    auto reports = e.reports;
    std::erase_if(reports, [](const verify::CheatReport& r) { return r.suspect == 0; });
    std::vector<PlayerId> cheaters;
    for (PlayerId p = 0; p < kNumCheaters; ++p) cheaters.push_back(p);
    trips("twin: cheater without reports fails detection", check_detection(reports, cheaters));
  }
  {
    auto replayed = e.reputation.standings;
    replayed.back() = replayed.back() == reputation::Standing::kGood
                          ? reputation::Standing::kDiscouraged
                          : reputation::Standing::kGood;
    trips("twin: changed standing fails the reputation check",
          check_reputation(e.standings, replayed));
  }
  std::printf("self-check %s\n", ok ? "passed" : "FAILED");
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace sessionbench

int main(int argc, char** argv) {
  const auto t_start = sessionbench::Clock::now();
  const auto args = sessionbench::parse_args(argc, argv);
  if (!args) {
    std::fprintf(stderr,
                 "usage: session_bench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1>\n       session_bench --self-check\n");
    return 2;
  }
  try {
    return args->self_check ? sessionbench::self_check()
                            : sessionbench::run_benchmark(*args, t_start);
  } catch (const std::exception& ex) {
    std::fprintf(stderr, "session_bench: %s\n", ex.what());
    return 1;
  }
}
