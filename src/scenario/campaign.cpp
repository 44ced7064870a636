#include "scenario/campaign.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "core/system.hpp"
#include "scenario/deployment.hpp"
#include "util/fnv.hpp"
#include "util/json.hpp"

namespace hades::scenario {

using namespace hades::literals;

namespace {

// ------------------------------------------------------------ checksum --

/// FNV-1a, fed field-by-field; dates and durations fold as nanoseconds.
/// Every input is either per-node state (whose internal order is
/// deterministic) or a list sorted on a deterministic key before hashing,
/// so the digest is identical across runtime backends.
class digest : public fnv1a {
 public:
  using fnv1a::mix;
  void mix(time_point t) { mix(static_cast<std::uint64_t>(t.nanoseconds())); }
  void mix(duration d) { mix(static_cast<std::uint64_t>(d.count())); }
};

}  // namespace

// --------------------------------------------------------- parallel_for --

void parallel_for(std::size_t n, std::size_t jobs,
                  const std::function<void(std::size_t)>& fn) {
  if (jobs == 0) {
    const std::size_t hw = std::thread::hardware_concurrency();
    jobs = std::clamp<std::size_t>(hw / 2, 1, 4);
  }
  jobs = std::min(jobs, std::max<std::size_t>(n, 1));
  if (jobs <= 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  // The factory registry's lazy init is the one shared mutable touch
  // point; force it before the pool spawns.
  (void)hades::runtime::registered_backends();
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> pool;
  pool.reserve(jobs);
  for (std::size_t j = 0; j < jobs; ++j)
    pool.emplace_back([&] {
      for (;;) {
        const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= n) return;
        fn(i);
      }
    });
  for (std::thread& t : pool) t.join();
}

// ------------------------------------------------------------ run_cell --

cell_result run_cell(const scenario_spec& spec, std::uint64_t seed,
                     std::size_t shards) {
  // The standing stack (system + services + workload + sinks) lives in
  // scenario::deployment, shared with the realtime multi-process harness;
  // the cell adds the sweep bookkeeping and the determinism checksum.
  deployment_options dopt;
  dopt.seed = seed;
  if (shards > 1) {
    dopt.backend.backend = "sharded";
    dopt.backend.shards = shards;
  }
  deployment d(spec, dopt);
  d.start();
  d.run();

  cell_result cell;
  cell.scenario = spec.name;
  cell.seed = seed;
  cell.shards = shards;
  cell.obs = d.collect();
  const observation& obs = cell.obs;
  cell.checks = d.grade(obs);
  cell.passed = std::all_of(cell.checks.begin(), cell.checks.end(),
                            [](const check_result& c) { return c.passed; });

  core::system& sys = d.sys();
  svc::fault_detector& fd = d.fd();
  svc::reliable_broadcast& bcast = d.bcast();
  svc::mode_manager& modes = d.modes();

  // ----------------------------------------------------------- checksum --
  digest dg;
  for (node_id n = 0; n < spec.nodes; ++n) {
    dg.mix(obs.delivery_logs[n].size());
    for (const auto& [origin, s] : obs.delivery_logs[n]) {
      dg.mix(origin);
      dg.mix(s);
    }
    dg.mix(obs.sent_at[n].size());
    for (time_point t : obs.sent_at[n]) dg.mix(t);
    for (node_id m = 0; m < spec.nodes; ++m)
      dg.mix(static_cast<std::uint64_t>(fd.suspects(n, m)));
    dg.mix(sys.clock(n).read());
  }
  for (const auto& s : obs.suspicions) {
    dg.mix(s.observer);
    dg.mix(s.subject);
    dg.mix(s.at);
  }
  for (const auto& r : obs.recoveries) {
    dg.mix(r.observer);
    dg.mix(r.subject);
    dg.mix(r.at);
  }
  for (const auto& sw : obs.mode_switches) {
    dg.mix(static_cast<std::uint64_t>(sw.to));
    dg.mix(sw.at);
  }
  dg.mix(static_cast<std::uint64_t>(obs.final_mode));
  dg.mix(obs.deadline_misses);
  dg.mix(obs.order_faults);
  dg.mix(bcast.delivered());
  dg.mix(bcast.relays());
  dg.mix(fd.heartbeats_sent());
  dg.mix(fd.recoveries_observed());
  // Per-task stats and the mode manager's capture digest fold the whole
  // task pipeline (creation/activation tokens, condition wakeups, capture
  // request/reply) into the determinism gate.
  for (const task_id t : sys.tasks()) {
    const auto& st = sys.stats_for(t);
    dg.mix(t);
    dg.mix(st.activations);
    dg.mix(st.completions);
    dg.mix(st.rejections);
    dg.mix(st.response_times.count());
  }
  dg.mix(modes.capture_digest());
  const auto& ns = sys.network().stats();
  dg.mix(ns.sent);
  dg.mix(ns.delivered);
  dg.mix(ns.dropped);
  dg.mix(ns.late);
  if (obs.skew_checked) dg.mix(obs.max_skew);
  if (obs.traffic_checked) {
    // The traffic fold covers the whole edge: per-gateway decision-stream
    // digests (every admit/reject/shed verdict with its victim count),
    // merged latency quantiles, and the counter totals.
    dg.mix(obs.traffic_offered);
    dg.mix(obs.traffic_admitted);
    dg.mix(obs.traffic_rejected);
    dg.mix(obs.traffic_shed);
    dg.mix(obs.traffic_completed);
    dg.mix(obs.traffic_missed);
    dg.mix(obs.traffic_outstanding);
    dg.mix(obs.traffic_renegotiations);
    dg.mix(obs.traffic_revalidation_failures);
    for (std::uint64_t g : obs.gateway_digests) dg.mix(g);
    dg.mix(static_cast<std::uint64_t>(obs.latency_p50));
    dg.mix(static_cast<std::uint64_t>(obs.latency_p99));
    dg.mix(static_cast<std::uint64_t>(obs.latency_p999));
  }
  cell.checksum = dg.value();
  cell.events = sys.engine().executed();
  // A sweep keeps every cell until it ends; past the checksum and the
  // checkers nothing reads the per-delivery arrays, so free them now.
  cell.obs.delivery_logs = decltype(cell.obs.delivery_logs)();
  cell.obs.sent_at = decltype(cell.obs.sent_at)();
  return cell;
}

// ----------------------------------------------------------------- JSON --

std::string render_verdict_json(const cell_result& c) {
  std::ostringstream os;
  os << "{\n"
     << "  \"scenario\": \"" << json::escape(c.scenario) << "\",\n"
     << "  \"seed\": " << c.seed << ",\n"
     << "  \"shards\": " << c.shards << ",\n"
     << "  \"horizon_ns\": " << c.obs.horizon.nanoseconds() << ",\n"
     << "  \"events\": " << c.events << ",\n"
     << "  \"checksum\": \"0x" << std::hex << c.checksum << std::dec
     << "\",\n"
     << "  \"passed\": " << (c.passed ? "true" : "false") << ",\n"
     << "  \"stats\": {\n"
     << "    \"suspicions\": " << c.obs.suspicions.size() << ",\n"
     << "    \"recoveries\": " << c.obs.recoveries.size() << ",\n"
     << "    \"mode_switches\": " << c.obs.mode_switches.size() << ",\n"
     << "    \"deadline_misses\": " << c.obs.deadline_misses << ",\n"
     << "    \"order_faults\": " << c.obs.order_faults << ",\n"
     << "    \"final_mode\": \"" << to_string(c.obs.final_mode) << "\"";
  if (c.obs.skew_checked)
    os << ",\n    \"max_skew_ns\": " << c.obs.max_skew.count();
  if (c.obs.traffic_checked)
    os << ",\n    \"traffic\": {"
       << "\"offered\": " << c.obs.traffic_offered
       << ", \"admitted\": " << c.obs.traffic_admitted
       << ", \"rejected\": " << c.obs.traffic_rejected
       << ", \"shed\": " << c.obs.traffic_shed
       << ", \"completed\": " << c.obs.traffic_completed
       << ", \"missed\": " << c.obs.traffic_missed
       << ", \"outstanding\": " << c.obs.traffic_outstanding
       << ", \"renegotiations\": " << c.obs.traffic_renegotiations
       << ", \"latency_p50_ns\": " << c.obs.latency_p50
       << ", \"latency_p99_ns\": " << c.obs.latency_p99
       << ", \"latency_p999_ns\": " << c.obs.latency_p999 << "}";
  os << "\n  },\n  \"checks\": [\n";
  for (std::size_t i = 0; i < c.checks.size(); ++i) {
    const check_result& ck = c.checks[i];
    os << "    {\"name\": \"" << json::escape(ck.name) << "\", \"passed\": "
       << (ck.passed ? "true" : "false");
    if (!ck.detail.empty())
      os << ", \"detail\": \"" << json::escape(ck.detail) << "\"";
    os << "}" << (i + 1 < c.checks.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
  return os.str();
}

std::string campaign_result::summary_json() const {
  std::ostringstream os;
  os << "{\n  \"passed\": " << (passed ? "true" : "false") << ",\n"
     << "  \"cells\": " << cells.size() << ",\n  \"failures\": [\n";
  for (std::size_t i = 0; i < failures.size(); ++i)
    os << "    \"" << json::escape(failures[i]) << "\""
       << (i + 1 < failures.size() ? "," : "") << "\n";
  os << "  ]\n}\n";
  return os.str();
}

// ------------------------------------------------------------- campaign --

campaign_result run_campaign(const campaign_options& opt) {
  campaign_result result;
  std::vector<scenario_spec> specs;
  if (opt.scenarios.empty()) {
    specs = all_scenarios();
    if (opt.include_scale)
      for (scenario_spec& s : scale_scenarios()) specs.push_back(std::move(s));
  } else {
    for (const std::string& name : opt.scenarios)
      specs.push_back(find_scenario(name));
  }

  if (!opt.out_dir.empty())
    std::filesystem::create_directories(opt.out_dir);

  // Enumerate the sweep up front: cells are independent deployments, so
  // they run on a bounded thread pool while every ordered effect (checksum
  // reference selection, failure list, progress lines, JSON files) happens
  // in a serial post-pass over the enumeration order — byte-identical
  // output to the historical serial sweep.
  struct cell_spec {
    const scenario_spec* spec;
    std::uint64_t seed;
    std::size_t shards;
    bool group_head;  // first cell of its (scenario, seed) checksum group
  };
  std::vector<cell_spec> plan;
  for (const scenario_spec& spec : specs)
    for (std::uint64_t seed : opt.seeds)
      for (std::size_t i = 0; i < opt.shard_counts.size(); ++i)
        plan.push_back({&spec, seed, opt.shard_counts[i], i == 0});

  std::vector<cell_result> cells(plan.size());
  parallel_for(plan.size(), opt.jobs, [&](std::size_t i) {
    cells[i] = run_cell(*plan[i].spec, plan[i].seed, plan[i].shards);
  });

  std::uint64_t reference_checksum = 0;
  const scenario_spec* diverged_spec = nullptr;
  for (std::size_t i = 0; i < plan.size(); ++i) {
    const cell_spec& cs = plan[i];
    cell_result cell = std::move(cells[i]);
    // The determinism gate is a checker like any other, so a mismatching
    // cell's own verdict JSON reports the failure instead of only the
    // summary.
    check_result sum{"campaign.checksum_match", true, ""};
    if (cs.group_head) {
      reference_checksum = cell.checksum;
      sum.detail = "reference cell";
    } else if (cell.checksum != reference_checksum) {
      sum.passed = false;
      std::ostringstream os;
      os << "checksum 0x" << std::hex << cell.checksum << " at " << std::dec
         << cs.shards << " shards != reference 0x" << std::hex
         << reference_checksum;
      sum.detail = os.str();
      // Surface the offending plan once per diverged scenario so the
      // caller can print/replay it without the registry.
      if (diverged_spec != cs.spec) {
        diverged_spec = cs.spec;
        result.diverged_plans.push_back(plan_to_json(cs.spec->p));
      }
    }
    cell.checks.push_back(std::move(sum));
    cell.passed = cell.passed && cell.checks.back().passed;
    for (const check_result& c : cell.checks)
      if (!c.passed)
        result.failures.push_back(
            cs.spec->name + "/seed" + std::to_string(cs.seed) + "/shards" +
            std::to_string(cs.shards) + ": " + c.name + " — " + c.detail);
    if (opt.verbose)
      std::printf(
          "%-22s seed=%llu shards=%zu  %s  checksum=0x%016llx  events=%llu\n",
          cs.spec->name.c_str(), static_cast<unsigned long long>(cs.seed),
          cs.shards, cell.passed ? "PASS" : "FAIL",
          static_cast<unsigned long long>(cell.checksum),
          static_cast<unsigned long long>(cell.events));
    if (!opt.out_dir.empty()) {
      std::ostringstream name;
      name << cs.spec->name << "_seed" << cs.seed << "_shards" << cs.shards
           << ".json";
      std::ofstream f(std::filesystem::path(opt.out_dir) / name.str());
      f << render_verdict_json(cell);
    }
    result.cells.push_back(std::move(cell));
  }
  // An empty sweep must not read as a green gate.
  if (result.cells.empty())
    result.failures.push_back("campaign ran zero cells (empty scenario/seed/"
                              "shard selection)");
  result.passed = result.failures.empty();
  if (!opt.out_dir.empty()) {
    std::ofstream f(std::filesystem::path(opt.out_dir) / "summary.json");
    f << result.summary_json();
  }
  return result;
}

}  // namespace hades::scenario
