#include "scenario/fuzz.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>

#include "services/channels.hpp"
#include "util/error.hpp"
#include "util/fnv.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace hades::scenario {

using namespace hades::literals;

namespace {

// ------------------------------------------------------------- helpers --

/// FNV-1a fold of two words: the per-case seed derivation. Pure integer,
/// so (campaign_seed, index) -> case stream is compiler-invariant.
std::uint64_t mix64(std::uint64_t a, std::uint64_t b) {
  return fnv1a{}.mix(a).mix(b).value();
}

/// A date at `ms` milliseconds plus an odd sub-millisecond offset in
/// [97us, 499us] — never on a service tick (multiples of the 10ms
/// heartbeat / 100ms resync periods) and never within a sharded-round
/// lookahead of one, the same discipline the curated scenarios follow.
time_point odd_date(rng& r, std::int64_t lo_ms, std::int64_t hi_ms) {
  const std::int64_t ms = r.uniform_int(lo_ms, hi_ms);
  const std::int64_t us = 97 + 2 * r.uniform_int(0, 201);
  return time_point::at(duration::milliseconds(ms) +
                        duration::microseconds(us));
}

/// A node id in [lo, hi] not yet in `used`; records the pick.
node_id pick_node(rng& r, std::vector<node_id>& used, node_id lo,
                  node_id hi) {
  for (;;) {
    const auto n = static_cast<node_id>(r.uniform_int(lo, hi));
    if (std::find(used.begin(), used.end(), n) == used.end()) {
      used.push_back(n);
      return n;
    }
  }
}

double ppm(std::int64_t v) { return static_cast<double>(v) / 1e6; }

/// First node the plan may crash: node 0 hosts the mode manager and the
/// gateways' admitted work cannot outlive its gateway, so both are off
/// limits (scenarios.hpp, traffic_params).
node_id first_crashable(const scenario_spec& s) {
  return s.traffic.gateway_nodes > 0
             ? static_cast<node_id>(1 + s.traffic.gateway_nodes)
             : 1;
}

// -------------------------------------------------------------- themes --
//
// Each theme emits one admissible fault family; a case is one theme plus
// optional data-plane burst garnish. Probabilistic storms, clock faults
// and topology faults never mix within a case: the checkers grade
// recoveries and skew only in windows a storm would make flaky (see the
// header comment), and keeping families separate is what lets a red
// checker indict the runtime rather than the generator.

void gen_crashes(scenario_spec& s, rng& r) {
  const auto n_crashes = r.uniform_int(1, 3);
  std::vector<node_id> victims;
  std::int64_t t = 250 + r.uniform_int(0, 150);
  for (std::int64_t k = 0; k < n_crashes; ++k) {
    const node_id v = pick_node(r, victims, first_crashable(s),
                                static_cast<node_id>(s.nodes - 1));
    const time_point at = odd_date(r, t, t + 60);
    s.p.crash(at, v);
    // Down windows stay >= 200ms (far above the ~47ms detection bound)
    // and recoveries land >= 150ms before the horizon so the un-suspect
    // bound can be graded.
    if (r.chance(0.6)) {
      const std::int64_t crash_ms = at.nanoseconds() / 1'000'000;
      const std::int64_t rec_ms =
          std::min<std::int64_t>(crash_ms + 200 + r.uniform_int(0, 300), 1300);
      s.p.recover(odd_date(r, rec_ms, rec_ms), v);
    }
    t += 180 + r.uniform_int(0, 80);
  }
}

void gen_partition(scenario_spec& s, rng& r) {
  std::vector<node_id> order(s.nodes);
  for (std::size_t i = 0; i < s.nodes; ++i) order[i] = i;
  for (std::size_t i = s.nodes - 1; i > 0; --i)
    std::swap(order[i],
              order[static_cast<std::size_t>(
                  r.uniform_int(0, static_cast<std::int64_t>(i)))]);
  const auto cut = static_cast<std::size_t>(
      r.uniform_int(1, static_cast<std::int64_t>(s.nodes) - 1));
  std::vector<node_id> low(order.begin(), order.begin() + cut);
  std::vector<node_id> high(order.begin() + cut, order.end());
  std::sort(low.begin(), low.end());
  std::sort(high.begin(), high.end());
  s.p.split(odd_date(r, 350, 500), {std::move(low), std::move(high)})
      .heal(odd_date(r, 850, 1000));
  // A partition is not a crash: the suspicion-driven mode policy stays
  // disarmed (suspicions_for_degraded = 0), so the system stays NORMAL.
}

void gen_links(scenario_spec& s, rng& r) {
  const auto pairs = r.uniform_int(1, 3);
  std::vector<std::pair<node_id, node_id>> taken;
  for (std::int64_t k = 0; k < pairs; ++k) {
    for (;;) {
      const auto src = static_cast<node_id>(
          r.uniform_int(0, static_cast<std::int64_t>(s.nodes) - 1));
      const auto dst = static_cast<node_id>(
          r.uniform_int(0, static_cast<std::int64_t>(s.nodes) - 1));
      if (src == dst ||
          std::find(taken.begin(), taken.end(), std::make_pair(src, dst)) !=
              taken.end())
        continue;
      taken.emplace_back(src, dst);
      s.p.link_down(odd_date(r, 350, 500), src, dst)
          .link_up(odd_date(r, 850, 1000), src, dst);
      break;
    }
  }
}

void gen_bursts(scenario_spec& s, rng& r) {
  // Heartbeat-channel bursts stay at or under the detector's omission
  // degree (k = 2 at period 10ms / timeout 35ms: a third consecutive loss
  // would legitimately suspect) and each directed link carries at most one
  // burst so bursts can never chain past the degree.
  const auto hb = r.uniform_int(2, 5);
  std::vector<std::pair<node_id, node_id>> taken;
  for (std::int64_t k = 0; k < hb; ++k) {
    for (;;) {
      const auto src = static_cast<node_id>(
          r.uniform_int(0, static_cast<std::int64_t>(s.nodes) - 1));
      const auto dst = static_cast<node_id>(
          r.uniform_int(0, static_cast<std::int64_t>(s.nodes) - 1));
      if (src == dst ||
          std::find(taken.begin(), taken.end(), std::make_pair(src, dst)) !=
              taken.end())
        continue;
      taken.emplace_back(src, dst);
      s.p.omission_burst(odd_date(r, 250, 1100), src, dst,
                         static_cast<int>(r.uniform_int(1, 2)),
                         svc::ch_heartbeat);
      break;
    }
  }
}

void add_data_bursts(scenario_spec& s, rng& r, std::int64_t n) {
  for (std::int64_t k = 0; k < n; ++k) {
    const auto src = static_cast<node_id>(
        r.uniform_int(0, static_cast<std::int64_t>(s.nodes) - 1));
    auto dst = static_cast<node_id>(
        r.uniform_int(0, static_cast<std::int64_t>(s.nodes) - 2));
    if (dst >= src) ++dst;
    s.p.omission_burst(odd_date(r, 250, 1150), src, dst,
                       static_cast<int>(r.uniform_int(1, 4)),
                       svc::ch_reliable_bcast);
  }
}

void gen_storm(scenario_spec& s, rng& r) {
  const time_point on = odd_date(r, 300, 500);
  const time_point off = odd_date(r, 800, 1000);
  if (r.chance(0.5)) {
    // Global omission storm. At the default 35ms timeout three random
    // consecutive heartbeat losses suspect, and p^3 over every link of a
    // 500ms window is not rare enough for a thousand-cell night — so storm
    // cases widen the timeout to 95ms (nine consecutive losses, p^9).
    s.fd.timeout = 95_ms;
    s.p.omission_rate(on, ppm(r.uniform_int(20'000, 150'000)))
        .omission_rate(off, 0.0);
  } else {
    // Performance-fault window: the added delay stays under the detector's
    // margin (timeout 35ms - 30.06ms bound) so heartbeats arrive late but
    // in time, while the 2ms Delta hold-back is breached and counted.
    s.p.perf_fault(on, ppm(r.uniform_int(100'000, 400'000)),
                   duration::microseconds(r.uniform_int(500, 2500)))
        .perf_fault(off, 0.0, duration::zero());
  }
}

void gen_clocks(scenario_spec& s, rng& r) {
  s.with_clock_sync = true;
  std::vector<node_id> used;
  const auto last = static_cast<node_id>(s.nodes - 1);
  const auto drifts = r.uniform_int(1, 2);
  for (std::int64_t k = 0; k < drifts; ++k) {
    const std::int64_t rho_ppm =
        r.uniform_int(50, 350) * (r.chance(0.5) ? 1 : -1);
    s.p.clock_drift(odd_date(r, 150, 400), pick_node(r, used, 0, last),
                    ppm(rho_ppm));
  }
  if (r.chance(0.5)) {
    const std::int64_t step_us =
        r.uniform_int(200, 1500) * (r.chance(0.5) ? 1 : -1);
    s.p.clock_step(odd_date(r, 500, 900), pick_node(r, used, 0, last),
                   duration::microseconds(step_us));
  }
  // Byzantine crystals: at most f with n >= 3f+1, rates far outside any
  // honest reading so the trimmed average has real liars to mask.
  const auto max_f =
      std::min<std::int64_t>(2, (static_cast<std::int64_t>(s.nodes) - 1) / 3);
  if (max_f >= 1 && r.chance(0.4)) {
    const auto f = r.uniform_int(1, max_f);
    s.clock_sync_max_faulty = static_cast<int>(f);
    for (std::int64_t k = 0; k < f; ++k) {
      static constexpr double wild[] = {0.4, 1.7, 2.2};
      s.p.clock_byzantine(
          odd_date(r, 200, 300), pick_node(r, used, 0, last),
          wild[r.uniform_int(0, 2)],
          duration::microseconds(r.uniform_int(-900, 900)));
    }
  }
}

void gen_traffic(scenario_spec& s, rng& r) {
  s.traffic.gateway_nodes = 2;
  switch (r.uniform_int(0, 2)) {
    case 0:
      s.traffic.mix = traffic::arrival_mix::poisson;
      s.traffic.rate_per_s = static_cast<double>(r.uniform_int(2000, 2800));
      break;
    case 1:
      s.traffic.mix = traffic::arrival_mix::bursty;
      s.traffic.rate_per_s = static_cast<double>(r.uniform_int(700, 950));
      break;
    default:
      s.traffic.mix = traffic::arrival_mix::diurnal;
      s.traffic.rate_per_s = static_cast<double>(r.uniform_int(1500, 2100));
      break;
  }
  if (r.chance(0.4) && s.nodes > 3)
    s.p.crash(odd_date(r, 600, 800),
              static_cast<node_id>(r.uniform_int(
                  3, static_cast<std::int64_t>(s.nodes) - 1)));
}

}  // namespace

// --------------------------------------------------------- expectations --

void recompute_expectations(scenario_spec& spec) {
  std::size_t crashes = 0;
  bool perf_active = false;
  for (const action& a : spec.p.actions) {
    if (a.kind == action_kind::crash_node) ++crashes;
    if (a.kind == action_kind::perf_fault && a.rate > 0.0) perf_active = true;
  }
  // The mode manager counts monitor node_crash events against the crash
  // thresholds and degradation is sticky, so the crash count alone decides
  // the final mode of a generated spec (no deadline workload, suspicion
  // policy disarmed).
  if (crashes == 0)
    spec.modes.final_mode = svc::op_mode::normal;
  else if (crashes < static_cast<std::size_t>(spec.thresholds.crashes_for_safe))
    spec.modes.final_mode = svc::op_mode::degraded;
  else
    spec.modes.final_mode = svc::op_mode::safe;
  spec.expect_order_faults = perf_active;
}

// ----------------------------------------------------------- generator --

fuzz_case generate_case(std::uint64_t campaign_seed, std::uint64_t index) {
  rng r(mix64(campaign_seed, index));
  fuzz_case c;
  c.case_seed = mix64(campaign_seed ^ 0xA076'1D64'78BD'642Full, index);
  // "clean" is exactly the curated base configuration (scenarios.cpp):
  // starting from it keeps the generator in lockstep with the registry's
  // thresholds and service parameters.
  c.spec = find_scenario("clean");
  scenario_spec& s = c.spec;
  s.name = "fuzz_" + std::to_string(campaign_seed) + "_" +
           std::to_string(index);
  s.description = "generated by scenario::fuzz";
  s.p.name = s.name;
  s.nodes = static_cast<std::size_t>(6 + r.uniform_int(0, 4));

  switch (r.uniform_int(0, 9)) {
    case 0:
    case 1:
    case 2:
      gen_crashes(s, r);
      if (r.chance(0.4)) add_data_bursts(s, r, r.uniform_int(1, 2));
      break;
    case 3:
      gen_partition(s, r);
      if (r.chance(0.3)) add_data_bursts(s, r, 1);
      break;
    case 4:
      gen_links(s, r);
      break;
    case 5:
      gen_bursts(s, r);
      if (r.chance(0.5)) add_data_bursts(s, r, r.uniform_int(1, 2));
      break;
    case 6:
      gen_storm(s, r);
      break;
    case 7:
      gen_clocks(s, r);
      break;
    default:
      gen_traffic(s, r);
      break;
  }
  recompute_expectations(s);

  const std::vector<std::string> bad =
      s.p.validate(s.nodes, time_point::at(s.horizon));
  require(bad.empty(), "generate_case: inadmissible plan " + s.name +
                           (bad.empty() ? "" : ": " + bad.front()));
  return c;
}

// ----------------------------------------------------------------- JSON --

namespace {

const char* mix_to_string(traffic::arrival_mix m) {
  switch (m) {
    case traffic::arrival_mix::poisson: return "poisson";
    case traffic::arrival_mix::bursty: return "bursty";
    case traffic::arrival_mix::diurnal: return "diurnal";
  }
  return "poisson";
}

traffic::arrival_mix mix_from_string(const std::string& s) {
  if (s == "poisson") return traffic::arrival_mix::poisson;
  if (s == "bursty") return traffic::arrival_mix::bursty;
  if (s == "diurnal") return traffic::arrival_mix::diurnal;
  throw invariant_violation("fuzz json: unknown arrival mix \"" + s + '"');
}

svc::op_mode mode_from_string(const std::string& s) {
  for (svc::op_mode m :
       {svc::op_mode::normal, svc::op_mode::degraded, svc::op_mode::safe})
    if (s == to_string(m)) return m;
  throw invariant_violation("fuzz json: unknown mode \"" + s + '"');
}

}  // namespace

std::string fuzz_case_to_json(const fuzz_case& c) {
  const scenario_spec& s = c.spec;
  std::ostringstream os;
  os << "{\n  \"format\": \"hades-fuzz-case v1\",\n"
     << "  \"case_seed\": " << static_cast<std::int64_t>(c.case_seed)
     << ",\n"
     << "  \"name\": \"" << json::escape(s.name) << "\",\n"
     << "  \"nodes\": " << s.nodes << ",\n"
     << "  \"horizon_ns\": " << s.horizon.count() << ",\n"
     << "  \"fd_period_ns\": " << s.fd.heartbeat_period.count() << ",\n"
     << "  \"fd_timeout_ns\": " << s.fd.timeout.count() << ",\n"
     << "  \"with_clock_sync\": " << (s.with_clock_sync ? "true" : "false")
     << ",\n"
     << "  \"clock_sync_max_faulty\": " << s.clock_sync_max_faulty << ",\n"
     << "  \"expect_order_faults\": "
     << (s.expect_order_faults ? "true" : "false") << ",\n"
     << "  \"final_mode\": \"" << to_string(s.modes.final_mode) << "\",\n"
     << "  \"traffic_gateways\": " << s.traffic.gateway_nodes << ",\n"
     << "  \"traffic_mix\": \"" << mix_to_string(s.traffic.mix) << "\",\n"
     << "  \"traffic_rate_milli_per_s\": "
     << static_cast<std::int64_t>(std::llround(s.traffic.rate_per_s * 1e3))
     << ",\n"
     << "  \"plan\": " << plan_to_json(s.p, 2).substr(2) << "\n}\n";
  return os.str();
}

fuzz_case fuzz_case_from_json(const std::string& text) {
  const json::value root = json::parse(text);
  require(root.k == json::value::kind::object,
          "fuzz json: expected an object");
  fuzz_case c;
  const json::value* fmt = root.find("format");
  if (fmt != nullptr && fmt->as_string() == "hades-plan v1") {
    // Convenience: a bare plan document wraps into the curated base spec
    // with truthful expectations, so `--shrink` works straight off a
    // campaign's diverged-plan dump.
    c.spec = find_scenario("clean");
    c.spec.p = plan_from_json(text);
    c.spec.name = c.spec.p.name;
    recompute_expectations(c.spec);
    return c;
  }
  require(fmt != nullptr && fmt->as_string() == "hades-fuzz-case v1",
          "fuzz json: unsupported format");
  c.case_seed = static_cast<std::uint64_t>(root.at("case_seed").as_int());
  c.spec = find_scenario("clean");
  scenario_spec& s = c.spec;
  s.name = root.at("name").as_string();
  s.description = "parsed hades-fuzz-case v1";
  s.nodes = static_cast<std::size_t>(root.at("nodes").as_int());
  s.horizon = duration::nanoseconds(root.at("horizon_ns").as_int());
  s.fd.heartbeat_period =
      duration::nanoseconds(root.at("fd_period_ns").as_int());
  s.fd.timeout = duration::nanoseconds(root.at("fd_timeout_ns").as_int());
  s.with_clock_sync = root.at("with_clock_sync").as_bool();
  s.clock_sync_max_faulty =
      static_cast<int>(root.at("clock_sync_max_faulty").as_int());
  s.expect_order_faults = root.at("expect_order_faults").as_bool();
  s.modes.final_mode = mode_from_string(root.at("final_mode").as_string());
  s.traffic.gateway_nodes =
      static_cast<std::size_t>(root.at("traffic_gateways").as_int());
  s.traffic.mix = mix_from_string(root.at("traffic_mix").as_string());
  s.traffic.rate_per_s =
      static_cast<double>(root.at("traffic_rate_milli_per_s").as_int()) / 1e3;
  s.p = plan_from_json(text);
  s.p.name = s.name;
  return c;
}

// --------------------------------------------------------------- matrix --

matrix_verdict run_matrix(const fuzz_case& c, std::size_t jobs) {
  static constexpr std::size_t shard_counts[] = {1, 2, 4};
  constexpr std::size_t n = std::size(shard_counts);
  std::vector<cell_result> rs(n);
  parallel_for(n, jobs, [&](std::size_t i) {
    rs[i] = run_cell(c.spec, c.case_seed, shard_counts[i]);
  });

  matrix_verdict v;
  v.reference_checksum = rs[0].checksum;
  v.checksums_match =
      std::all_of(rs.begin(), rs.end(), [&](const cell_result& cr) {
        return cr.checksum == rs[0].checksum;
      });
  v.reference_checks = rs[0].checks;
  bool checks_ok = true;
  for (const cell_result& cr : rs)
    for (const check_result& ck : cr.checks)
      if (!ck.passed) {
        checks_ok = false;
        if (v.failure_signature.empty()) v.failure_signature = ck.name;
      }
  if (checks_ok && !v.checksums_match)
    v.failure_signature = "campaign.checksum_match";
  v.passed = checks_ok && v.checksums_match;
  v.coverage.fold(c.spec, rs[0].checks, rs[0].obs);
  if (!v.checksums_match) v.coverage.mark("checksum-divergence");
  return v;
}

// -------------------------------------------------------------- shrinker --

namespace {

bool fails_same(const fuzz_case& c, const std::string& signature,
                std::size_t jobs) {
  if (!c.spec.p
           .validate(c.spec.nodes, time_point::at(c.spec.horizon))
           .empty())
    return false;
  return run_matrix(c, jobs).failure_signature == signature;
}

/// Sorted copy of the timeline (stable on date), the order every shrink
/// transformation reasons in.
std::vector<action> sorted_actions(const plan& p) {
  std::vector<action> out = p.actions;
  std::stable_sort(out.begin(), out.end(),
                   [](const action& x, const action& y) {
                     return x.at < y.at;
                   });
  return out;
}

}  // namespace

fuzz_case shrink_case(const fuzz_case& failing, const std::string& signature,
                      std::size_t jobs, bool verbose) {
  require(!signature.empty(), "shrink_case: empty failure signature");
  fuzz_case best = failing;

  for (int round = 0; round < 8; ++round) {
    bool changed = false;

    // Phase 1 — ddmin action removal: drop complement chunks, halving
    // granularity. Candidates that no longer validate (a recover whose
    // crash was dropped, a heal whose split went) simply don't count as
    // failing; ddmin routes around them.
    std::vector<action> acts = sorted_actions(best.spec.p);
    std::size_t granularity = 2;
    while (acts.size() >= 2) {
      const std::size_t chunk =
          std::max<std::size_t>(1, acts.size() / granularity);
      bool reduced = false;
      for (std::size_t start = 0; start < acts.size(); start += chunk) {
        std::vector<action> candidate;
        for (std::size_t i = 0; i < acts.size(); ++i)
          if (i < start || i >= start + chunk) candidate.push_back(acts[i]);
        if (candidate.empty()) continue;
        fuzz_case trial = best;
        trial.spec.p.actions = candidate;
        if (fails_same(trial, signature, jobs)) {
          acts = std::move(candidate);
          best.spec.p.actions = acts;
          granularity = std::max<std::size_t>(2, granularity - 1);
          reduced = true;
          changed = true;
          if (verbose)
            std::printf("shrink: %zu actions remain\n", acts.size());
          break;
        }
      }
      if (!reduced) {
        if (granularity >= acts.size()) break;
        granularity = std::min(acts.size(), granularity * 2);
      }
    }

    // Phase 2 — timeline compression (window tightening): re-date the
    // surviving actions onto a canonical early grid, preserving their
    // order. One candidate; idempotent by construction.
    {
      std::vector<action> acts2 = sorted_actions(best.spec.p);
      const std::int64_t spacing_ms = std::clamp<std::int64_t>(
          acts2.empty() ? 120 : 900 / static_cast<std::int64_t>(acts2.size()),
          30, 120);
      for (std::size_t i = 0; i < acts2.size(); ++i)
        acts2[i].at = time_point::at(
            duration::milliseconds(300 +
                                   static_cast<std::int64_t>(i) * spacing_ms) +
            duration::microseconds(137 + 2 * static_cast<std::int64_t>(i)));
      const std::vector<action> before = sorted_actions(best.spec.p);
      bool moved = false;
      for (std::size_t i = 0; i < acts2.size(); ++i)
        moved = moved || acts2[i].at != before[i].at;
      fuzz_case trial = best;
      trial.spec.p.actions = acts2;
      if (moved && fails_same(trial, signature, jobs)) {
        best = std::move(trial);
        changed = true;
        if (verbose) std::printf("shrink: timeline compressed\n");
      }
    }

    // Phase 3 — node-count reduction: drop to the highest node the plan
    // still references (floor 4: the services assume a real ensemble, and
    // clock sync needs 3f+1). Partition plans whose groups enumerate every
    // node fail validate() at the smaller count and are skipped.
    {
      node_id highest = 0;
      for (const action& a : best.spec.p.actions) {
        if (a.a != invalid_node) highest = std::max(highest, a.a);
        if (a.b != invalid_node) highest = std::max(highest, a.b);
        for (const auto& g : a.groups)
          for (node_id m : g) highest = std::max(highest, m);
      }
      std::size_t floor_nodes = std::max<std::size_t>(4, highest + 1);
      if (best.spec.clock_sync_max_faulty > 0)
        floor_nodes = std::max<std::size_t>(
            floor_nodes,
            3 * static_cast<std::size_t>(best.spec.clock_sync_max_faulty) + 1);
      if (best.spec.traffic.gateway_nodes > 0)
        floor_nodes = std::max<std::size_t>(
            floor_nodes, 2 + best.spec.traffic.gateway_nodes);
      if (floor_nodes < best.spec.nodes) {
        fuzz_case trial = best;
        trial.spec.nodes = floor_nodes;
        if (fails_same(trial, signature, jobs)) {
          best = std::move(trial);
          changed = true;
          if (verbose)
            std::printf("shrink: %zu nodes remain\n", best.spec.nodes);
        }
      }
    }

    if (!changed) break;
  }
  return best;
}

// ------------------------------------------------------------- mutation --

namespace {

/// Structural mutation of a corpus case. Returns false when the edit came
/// out inadmissible (the caller falls back to fresh generation). Every
/// operator keeps the admissibility rules intact and recomputes the
/// checker expectations afterwards.
bool mutate(fuzz_case& c, rng& r) {
  scenario_spec& s = c.spec;
  switch (r.uniform_int(0, 4)) {
    case 0: {  // shift the whole timeline
      const duration delta = duration::milliseconds(r.uniform_int(-80, 80));
      for (action& a : s.p.actions) {
        const time_point moved = a.at + delta;
        const std::int64_t ns = moved.nanoseconds();
        if (ns < 120'000'000 || ns > s.horizon.count() - 120'000'000)
          return false;
        a.at = moved;
      }
      break;
    }
    case 1: {  // retarget one crash victim (and its recoveries)
      std::vector<node_id> victims;
      for (const action& a : s.p.actions)
        if (a.kind == action_kind::crash_node &&
            std::find(victims.begin(), victims.end(), a.a) == victims.end())
          victims.push_back(a.a);
      if (victims.empty()) return false;
      const node_id old_v = victims[static_cast<std::size_t>(
          r.uniform_int(0, static_cast<std::int64_t>(victims.size()) - 1))];
      const node_id lo = first_crashable(s);
      const auto hi = static_cast<node_id>(s.nodes - 1);
      if (hi < lo) return false;
      const auto new_v = static_cast<node_id>(r.uniform_int(lo, hi));
      if (new_v == old_v ||
          std::find(victims.begin(), victims.end(), new_v) != victims.end())
        return false;
      for (action& a : s.p.actions)
        if ((a.kind == action_kind::crash_node ||
             a.kind == action_kind::recover_node) &&
            a.a == old_v)
          a.a = new_v;
      break;
    }
    case 2:  // garnish with a data-plane burst
      add_data_bursts(s, r, 1);
      break;
    case 3: {  // drop one scripted burst
      std::vector<std::size_t> bursts;
      for (std::size_t i = 0; i < s.p.actions.size(); ++i)
        if (s.p.actions[i].kind == action_kind::omission_burst)
          bursts.push_back(i);
      if (bursts.empty()) return false;
      s.p.actions.erase(
          s.p.actions.begin() +
          static_cast<std::ptrdiff_t>(bursts[static_cast<std::size_t>(
              r.uniform_int(0, static_cast<std::int64_t>(bursts.size()) - 1))]));
      break;
    }
    default:  // replay the same plan under a different deployment seed
      c.case_seed = r.next_u64();
      break;
  }
  recompute_expectations(s);
  return s.p.validate(s.nodes, time_point::at(s.horizon)).empty();
}

}  // namespace

// ------------------------------------------------------------ campaign --

std::string fuzz_result::summary_json() const {
  std::ostringstream os;
  os << "{\n  \"format\": \"hades-fuzz v1\",\n"
     << "  \"campaign_seed\": " << campaign_seed << ",\n"
     << "  \"cases\": " << cases_run << ",\n"
     << "  \"corpus\": " << corpus_size << ",\n"
     << "  \"coverage_bits\": " << coverage.popcount() << ",\n"
     << "  \"failures\": " << failing.size() << ",\n"
     << "  \"signatures\": [";
  for (std::size_t i = 0; i < failure_signatures.size(); ++i)
    os << (i == 0 ? "\n    \"" : ",\n    \"")
       << json::escape(failure_signatures[i]) << "\"";
  os << (failure_signatures.empty() ? "]" : "\n  ]") << "\n}\n";
  return os.str();
}

fuzz_result run_fuzz(const fuzz_options& opt) {
  fuzz_result res;
  res.campaign_seed = opt.campaign_seed;
  std::vector<fuzz_case> corpus;

  for (std::uint64_t i = 0; i < opt.cases; ++i) {
    rng decide(mix64(opt.campaign_seed ^ 0x9E37'79B9'7F4A'7C15ull, i));
    fuzz_case c;
    if (i == 0) {
      // The curated anchor heads the corpus: a known-rich timeline
      // (overlapping crash windows, recoveries, a sticky SAFE verdict)
      // that gives the mutator structure to perturb from case one.
      c.case_seed = decide.next_u64();
      c.spec = find_scenario("replication_failover_rolling_crashes");
    } else if (!corpus.empty() && decide.chance(0.5)) {
      c = corpus[static_cast<std::size_t>(decide.uniform_int(
          0, static_cast<std::int64_t>(corpus.size()) - 1))];
      c.spec.name = "fuzz_" + std::to_string(opt.campaign_seed) + "_" +
                    std::to_string(i);
      c.spec.p.name = c.spec.name;
      const std::int64_t muts = decide.uniform_int(1, 2);
      bool ok = true;
      for (std::int64_t m = 0; ok && m < muts; ++m) ok = mutate(c, decide);
      if (!ok) c = generate_case(opt.campaign_seed, i);
    } else {
      c = generate_case(opt.campaign_seed, i);
    }

    const matrix_verdict v = run_matrix(c, opt.jobs);
    const std::size_t fresh = res.coverage.merge(v.coverage);
    if (fresh > 0) corpus.push_back(c);
    if (!v.passed) {
      if (opt.verbose)
        std::printf("fuzz[%03llu] %-28s FAIL %s — shrinking\n",
                    static_cast<unsigned long long>(i), c.spec.name.c_str(),
                    v.failure_signature.c_str());
      res.failing.push_back(c);
      res.failure_signatures.push_back(v.failure_signature);
      res.shrunken.push_back(
          shrink_case(c, v.failure_signature, opt.jobs, opt.verbose));
    } else if (opt.verbose) {
      std::printf("fuzz[%03llu] %-28s pass  actions=%zu  coverage +%zu = %zu\n",
                  static_cast<unsigned long long>(i), c.spec.name.c_str(),
                  c.spec.p.actions.size(), fresh, res.coverage.popcount());
    }
  }
  res.cases_run = opt.cases;
  res.corpus_size = corpus.size();

  if (!opt.out_dir.empty()) {
    const std::filesystem::path dir(opt.out_dir);
    std::filesystem::create_directories(dir);
    { std::ofstream f(dir / "coverage.json"); f << res.coverage.to_json(); }
    { std::ofstream f(dir / "summary.json"); f << res.summary_json(); }
    for (std::size_t i = 0; i < res.failing.size(); ++i) {
      std::ostringstream base;
      base << "failing_" << i;
      { std::ofstream f(dir / (base.str() + ".json"));
        f << fuzz_case_to_json(res.failing[i]); }
      { std::ofstream f(dir / (base.str() + "_shrunk.json"));
        f << fuzz_case_to_json(res.shrunken[i]); }
    }
  }
  return res;
}

}  // namespace hades::scenario
