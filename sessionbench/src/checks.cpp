#include "checks.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>

#include "core/messages.hpp"
#include "util/rng.hpp"
#include "util/vec.hpp"

namespace sessionbench {

namespace {

template <typename... Args>
std::string format(const char* fmt, Args... args) {
  char buf[256];
  std::snprintf(buf, sizeof buf, fmt, args...);
  return buf;
}

bool contains(const std::vector<PlayerId>& v, PlayerId p) {
  return std::find(v.begin(), v.end(), p) != v.end();
}

// Hysteresis widening compute_sets applies to last frame's IS members.
constexpr double kStickyAngle = 0.15;
constexpr double kStickyRadius = 1.1;
// Slack for the optimized path's squared-cosine compare near the boundary.
constexpr double kGeomEps = 1e-9;

}  // namespace

double quantile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const double pos = q * static_cast<double>(xs.size() - 1);
  const auto i = static_cast<std::size_t>(pos);
  const double frac = pos - static_cast<double>(i);
  if (i + 1 >= xs.size()) return xs.back();
  return xs[i] * (1.0 - frac) + xs[i + 1] * frac;
}

double quantile_of_histogram(const std::vector<std::uint64_t>& hist, double q) {
  const std::uint64_t n = std::accumulate(hist.begin(), hist.end(), std::uint64_t{0});
  if (n == 0) return 0.0;
  const double pos = q * static_cast<double>(n - 1);
  const auto i = static_cast<std::uint64_t>(pos);
  const double frac = pos - static_cast<double>(i);
  // The values at sorted ranks i and i + 1.
  double at_i = 0.0, at_next = 0.0;
  std::uint64_t seen = 0;
  bool found_i = false;
  for (std::size_t v = 0; v < hist.size(); ++v) {
    seen += hist[v];
    if (!found_i && seen > i) {
      at_i = static_cast<double>(v);
      found_i = true;
    }
    if (seen > i + 1) {
      at_next = static_cast<double>(v);
      break;
    }
  }
  if (i + 1 >= n) return at_i;
  return at_i * (1.0 - frac) + at_next * frac;
}

Failures check_determinism(const std::vector<crypto::Digest>& digests) {
  Failures out;
  if (digests.size() < 2) {
    out.push_back("determinism: fewer than two digests to compare");
    return out;
  }
  for (std::size_t i = 1; i < digests.size(); ++i) {
    if (digests[i] != digests[0]) {
      out.push_back(format("determinism: pass %zu digest differs from pass 0", i));
    }
  }
  return out;
}

Failures check_interest(const std::vector<InterestSample>& samples,
                        const game::GameMap& map,
                        const interest::InterestConfig& cfg) {
  Failures out;
  if (samples.empty()) out.push_back("interest: no sampled player-frames");
  for (const InterestSample& s : samples) {
    const auto where = [&](const char* what) {
      return format("interest: frame %lld player %u: %s",
                    static_cast<long long>(s.frame), s.self, what);
    };
    if (s.fast.interest != s.reference.interest ||
        s.fast.vision != s.reference.vision) {
      out.push_back(where("compute_sets_into differs from the reference"));
    }
    if (s.fast.interest.size() > cfg.is_size) {
      out.push_back(where("interest set larger than is_size"));
    }
    const game::AvatarState& me = s.avatars.at(s.self);
    std::vector<PlayerId> members = s.fast.interest;
    members.insert(members.end(), s.fast.vision.begin(), s.fast.vision.end());
    std::vector<PlayerId> sorted = members;
    std::sort(sorted.begin(), sorted.end());
    if (std::adjacent_find(sorted.begin(), sorted.end()) != sorted.end()) {
      out.push_back(where("a player is listed twice (IS and VS overlap)"));
    }
    if (!members.empty() && !me.alive) {
      out.push_back(where("a dead observer has a vision set"));
    }
    for (const PlayerId m : members) {
      if (m == s.self || m >= s.avatars.size()) {
        out.push_back(where("self or out-of-range id in the sets"));
        continue;
      }
      const game::AvatarState& t = s.avatars[m];
      const bool sticky = contains(s.prev.interest, m);
      const double radius =
          cfg.vision.radius * (sticky ? kStickyRadius : 1.0) * (1.0 + kGeomEps);
      const double half =
          cfg.vision.half_angle + (sticky ? kStickyAngle : 0.0) + kGeomEps;
      const Vec3 to = t.eye() - me.eye();
      const double d = to.norm();
      if (!t.alive) out.push_back(where("a dead target is in the vision set"));
      if (d > radius) out.push_back(where("a VS member is beyond the radius"));
      if (d > 1e-9 && angle_between(me.aim_dir(), to) > half) {
        out.push_back(where("a VS member is outside the cone"));
      }
      if (cfg.vision.use_occlusion && !map.visible(me.eye(), t.eye())) {
        out.push_back(where("a VS member is occluded"));
      }
    }
  }
  return out;
}

Failures check_schedule(const ScheduleEvidence& e) {
  Failures out;
  const std::size_t n = e.in_pool.size();
  std::size_t pool = 0;
  for (const bool b : e.in_pool) pool += b ? 1 : 0;
  if (e.proxy.empty() || pool < 2) {
    out.push_back("schedule: no rounds or a pool below two members");
    return out;
  }
  std::vector<double> hits(n, 0.0), mean(n, 0.0), var(n, 0.0);
  for (std::size_t r = 0; r < e.proxy.size(); ++r) {
    std::vector<std::vector<PlayerId>> inverse(n);
    for (PlayerId p = 0; p < n; ++p) {
      const PlayerId x = e.proxy[r].at(p);
      if (x == p) out.push_back(format("schedule: round %zu: %u proxies itself", r, p));
      if (x >= n || !e.in_pool[x]) {
        out.push_back(format("schedule: round %zu: proxy of %u is not a pool member", r, p));
        continue;
      }
      inverse[x].push_back(p);
      hits[x] += 1.0;
      // Uniform weights over the pool minus the player itself.
      const double others = static_cast<double>(pool - (e.in_pool[p] ? 1 : 0));
      for (PlayerId q = 0; q < n; ++q) {
        if (q == p || !e.in_pool[q]) continue;
        const double pi = 1.0 / others;
        mean[q] += pi;
        var[q] += pi * (1.0 - pi);
      }
    }
    for (PlayerId q = 0; q < n; ++q) {
      if (e.proxied[r].at(q) != inverse[q]) {
        out.push_back(format("schedule: round %zu: proxied_by(%u) is not the inverse of proxy_of", r, q));
      }
    }
  }
  // Binomial bound at six standard deviations: a sound draw trips it with
  // probability ~1e-9 per player, so a trip means the draw is biased.
  for (PlayerId q = 0; q < n; ++q) {
    if (std::fabs(hits[q] - mean[q]) > 6.0 * std::sqrt(var[q]) + 1.0) {
      out.push_back(format("schedule: player %u served %.0f times, expected %.1f", q,
                           hits[q], mean[q]));
    }
  }
  return out;
}

Failures check_network(const NetEvidence& e) {
  Failures out;
  const net::NetStats& s = e.stats;
  const auto u = [](std::uint64_t v) { return static_cast<unsigned long long>(v); };
  if (e.probe_sends != s.sent || e.probe_oversize != s.oversize) {
    out.push_back(format("network: probe saw %llu sends (%llu oversize), transport %llu (%llu)",
                         u(e.probe_sends), u(e.probe_oversize), u(s.sent), u(s.oversize)));
  }
  if (e.probe_wire_bits != s.bits_sent) {
    out.push_back(format("network: probe summed %llu wire bits, transport %llu",
                         u(e.probe_wire_bits), u(s.bits_sent)));
  }
  const std::uint64_t aged =
      std::accumulate(e.probe_age_hist.begin(), e.probe_age_hist.end(), std::uint64_t{0});
  if (e.probe_delivered != s.delivered || aged != s.delivered) {
    out.push_back(format("network: probe saw %llu deliveries, transport %llu",
                         u(e.probe_delivered), u(s.delivered)));
  }
  if (s.sent != s.delivered + s.dropped + e.in_flight) {
    out.push_back(format("network: sent %llu != delivered %llu + dropped %llu + in flight %llu",
                         u(s.sent), u(s.delivered), u(s.dropped), u(e.in_flight)));
  }
  const double own = quantile_of_histogram(e.probe_age_hist, 0.99);
  const double theirs = s.delivery_age_ms.quantile(0.99);
  if (own != theirs) {
    out.push_back(format("network: delivery p99 %.6f ms from the probe, %.6f from NetStats",
                         own, theirs));
  }
  return out;
}

Failures check_signatures(
    const std::vector<std::vector<std::uint8_t>>& sealed_wires,
    const crypto::KeyRegistry& keys, std::uint64_t flip_seed) {
  Failures out;
  if (sealed_wires.empty()) out.push_back("signatures: no captured messages");
  std::size_t bad = 0, forgeable = 0;
  for (std::size_t i = 0; i < sealed_wires.size(); ++i) {
    const auto& wire = sealed_wires[i];
    if (!core::open(wire, keys)) ++bad;
    if (wire.empty()) continue;
    std::vector<std::uint8_t> flipped = wire;
    const std::uint64_t bit = mix64(flip_seed ^ mix64(i)) % (wire.size() * 8);
    flipped[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    if (core::open(flipped, keys)) ++forgeable;
  }
  if (bad) out.push_back(format("signatures: %zu of %zu captured messages do not open", bad,
                                sealed_wires.size()));
  if (forgeable) {
    out.push_back(format("signatures: %zu one-bit-flipped messages still open", forgeable));
  }
  return out;
}

Failures check_detection(const std::vector<verify::CheatReport>& reports,
                         const std::vector<PlayerId>& cheaters) {
  Failures out;
  for (const PlayerId c : cheaters) {
    const bool seen = std::any_of(reports.begin(), reports.end(),
                                  [c](const verify::CheatReport& r) {
                                    return r.suspect == c && r.rating > 1.0;
                                  });
    if (!seen) out.push_back(format("detection: cheater %u drew no report rated above 1", c));
  }
  return out;
}

Failures check_reputation(const std::vector<reputation::Standing>& session,
                          const std::vector<reputation::Standing>& replayed) {
  Failures out;
  if (session.size() != replayed.size()) {
    out.push_back("reputation: standing vectors differ in size");
    return out;
  }
  for (PlayerId p = 0; p < session.size(); ++p) {
    if (session[p] != replayed[p]) {
      out.push_back(format("reputation: player %u is %s in the session, %s on replay", p,
                           reputation::to_string(session[p]),
                           reputation::to_string(replayed[p])));
    }
  }
  return out;
}

}  // namespace sessionbench
