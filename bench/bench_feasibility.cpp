// E4 — the section 5.3 experiment: what does integrating dispatcher,
// scheduler and kernel costs into the feasibility test buy?
//
// For each target utilization we generate random Spuri-model task sets and
// report (i) the acceptance ratio of the naive Spuri test and of the
// cost-integrated test, and (ii) the observed deadline-miss ratio when the
// sets each test accepted are executed on the simulated platform with the
// chorus_like cost model charged. The paper's claim has two sides: the
// cost-integrated test is *safe* (accepted => no miss), and the naive test
// is *unsafe* once real system costs exist (it accepts sets that miss).
//
// Since the traffic edge landed (DESIGN.md, "Traffic edge & admission
// control") there is a third contender: the incremental demand wheel that
// sits on the per-request admission path. incremental_compare() times a
// full batch re-analysis per decision against one admissible+admit+complete
// wheel cycle and reports the speedup; `--json PATH` writes the stamped
// numbers (acceptance sweep + ns/decision) for the CI artifact set.
//
// Usage: bench_feasibility [--json PATH] [google-benchmark flags]
#include <benchmark/benchmark.h>

#include <chrono>
#include <string>

#include "bench/gbench_main.hpp"
#include "bench/table.hpp"
#include "core/system.hpp"
#include "sched/feasibility.hpp"
#include "sched/incremental.hpp"
#include "sched/srp.hpp"
#include "sched/workload.hpp"

using namespace hades;
using namespace hades::literals;

namespace {

bool misses_in_simulation(const std::vector<sched::analyzed_task>& ts,
                          const core::cost_model& costs) {
  core::system::config cfg;
  cfg.costs = costs;
  cfg.tracing = false;
  core::system sys(1, cfg);
  std::vector<task_id> ids;
  std::vector<const core::task_graph*> graphs;
  for (const auto& t : ts) {
    ids.push_back(sys.register_task(sched::to_task_graph(t, 0)));
    graphs.push_back(&sys.graph(ids.back()));
  }
  sys.attach_policy(0, std::make_shared<sched::edf_srp_policy>(graphs));
  for (std::size_t i = 0; i < ts.size(); ++i)
    for (time_point a = time_point::zero(); a < time_point::at(250_ms);
         a += ts[i].t)
      sys.activate_at(ids[i], a);
  sys.run_for(350_ms);
  return sys.mon().count(core::monitor_event_kind::deadline_miss) > 0;
}

void acceptance_sweep(json::doc& json) {
  const auto costs = core::cost_model::chorus_like();
  bench::table t({"U", "naive accept", "cost accept", "naive-accepted miss%",
                  "cost-accepted miss%"});
  rng r(424242);
  constexpr int sets_per_point = 40;
  for (double u : {0.30, 0.45, 0.60, 0.70, 0.80, 0.90, 0.95}) {
    sched::workload_params p;
    p.task_count = 5;
    p.utilization = u;
    p.period_min = 2_ms;
    p.period_max = 50_ms;
    p.resource_fraction = 0.4;
    int naive_ok = 0, cost_ok = 0, naive_miss = 0, cost_miss = 0;
    for (int i = 0; i < sets_per_point; ++i) {
      const auto ts = sched::generate_taskset(p, r);
      const bool naive = sched::edf_feasible(ts).feasible;
      const bool cost = sched::edf_feasible_with_costs(ts, costs).feasible;
      if (naive) {
        ++naive_ok;
        if (misses_in_simulation(ts, costs)) ++naive_miss;
      }
      if (cost) {
        ++cost_ok;
        if (misses_in_simulation(ts, costs)) ++cost_miss;
      }
    }
    t.row({bench::fmt(u), bench::pct(double(naive_ok) / sets_per_point),
           bench::pct(double(cost_ok) / sets_per_point),
           naive_ok ? bench::pct(double(naive_miss) / naive_ok) : "-",
           cost_ok ? bench::pct(double(cost_miss) / cost_ok) : "-"});
    const std::string key = "u" + std::to_string(static_cast<int>(u * 100));
    json.num(key + "_naive_accept", double(naive_ok) / sets_per_point);
    json.num(key + "_cost_accept", double(cost_ok) / sets_per_point);
    json.num(key + "_naive_accepted_miss",
             naive_ok ? double(naive_miss) / naive_ok : 0.0);
    json.num(key + "_cost_accepted_miss",
             cost_ok ? double(cost_miss) / cost_ok : 0.0);
  }
  t.print("E4/table-2: section 5.3 — acceptance and observed misses "
          "(5 sporadic tasks, 40 sets per point, chorus_like costs)");
  std::printf("expected shape: cost-accepted miss%% identically 0 (safety); "
              "naive acceptance > cost acceptance, with naive-accepted sets "
              "missing deadlines at high U (unsafe without cost "
              "integration).\n");
}

void bm_naive_test(benchmark::State& state) {
  rng r(7);
  sched::workload_params p;
  p.task_count = static_cast<std::size_t>(state.range(0));
  p.utilization = 0.7;
  const auto ts = sched::generate_taskset(p, r);
  for (auto _ : state)
    benchmark::DoNotOptimize(sched::edf_feasible(ts).feasible);
}
BENCHMARK(bm_naive_test)->Arg(5)->Arg(20)->Arg(50);

void bm_cost_integrated_test(benchmark::State& state) {
  rng r(7);
  sched::workload_params p;
  p.task_count = static_cast<std::size_t>(state.range(0));
  p.utilization = 0.7;
  const auto ts = sched::generate_taskset(p, r);
  const auto costs = core::cost_model::chorus_like();
  for (auto _ : state)
    benchmark::DoNotOptimize(
        sched::edf_feasible_with_costs(ts, costs).feasible);
}
BENCHMARK(bm_cost_integrated_test)->Arg(5)->Arg(20)->Arg(50);

// One steady-state admission cycle on the demand wheel: advance +
// admissible + admit, completing the oldest outstanding charge to keep the
// wheel at a constant ~64-deep load. This is the per-request cost the
// traffic edge actually pays, to be read against bm_naive_test/50 (what a
// batch re-analysis per request would cost instead).
void bm_incremental_cycle(benchmark::State& state) {
  sched::incremental_feasibility wheel(
      {duration::microseconds(250), 0.7});
  constexpr std::size_t depth = 64;
  sched::incremental_feasibility::ticket ring[depth];
  static constexpr std::int64_t deadline_ns[3] = {60'000, 200'000, 800'000};
  std::int64_t now = 0;
  std::uint64_t n = 0;
  for (std::size_t i = 0; i < depth; ++i) {
    wheel.advance(time_point::zero() + duration::nanoseconds(now));
    ring[i] = wheel.admit(duration::microseconds(2),
                          time_point::zero() +
                              duration::nanoseconds(now + deadline_ns[i % 3]));
    now += 3'000;
  }
  for (auto _ : state) {
    const time_point t = time_point::zero() + duration::nanoseconds(now);
    wheel.advance(t);
    benchmark::DoNotOptimize(
        wheel.admissible(duration::microseconds(2),
                         t + duration::nanoseconds(deadline_ns[n % 3])));
    wheel.complete(ring[n % depth]);
    ring[n % depth] =
        wheel.admit(duration::microseconds(2),
                    t + duration::nanoseconds(deadline_ns[n % 3]));
    ++n;
    now += 3'000;
  }
}
BENCHMARK(bm_incremental_cycle);

// Manual timing of the same contrast for the JSON artifact: ns per
// admission decision when every decision re-runs the batch test on a
// 50-task set, versus one incremental wheel cycle.
void incremental_compare(json::doc& json) {
  rng r(7);
  sched::workload_params p;
  p.task_count = 50;
  p.utilization = 0.7;
  const auto ts = sched::generate_taskset(p, r);

  constexpr int batch_iters = 2'000;
  auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < batch_iters; ++i)
    benchmark::DoNotOptimize(sched::edf_feasible(ts).feasible);
  auto t1 = std::chrono::steady_clock::now();
  const double batch_ns =
      std::chrono::duration<double, std::nano>(t1 - t0).count() / batch_iters;

  sched::incremental_feasibility wheel(
      {duration::microseconds(250), 0.7});
  constexpr std::size_t depth = 64;
  sched::incremental_feasibility::ticket ring[depth];
  static constexpr std::int64_t deadline_ns[3] = {60'000, 200'000, 800'000};
  std::int64_t now = 0;
  for (std::size_t i = 0; i < depth; ++i) {
    wheel.advance(time_point::zero() + duration::nanoseconds(now));
    ring[i] = wheel.admit(duration::microseconds(2),
                          time_point::zero() +
                              duration::nanoseconds(now + deadline_ns[i % 3]));
    now += 3'000;
  }
  constexpr std::uint64_t inc_iters = 2'000'000;
  t0 = std::chrono::steady_clock::now();
  for (std::uint64_t n = 0; n < inc_iters; ++n) {
    const time_point t = time_point::zero() + duration::nanoseconds(now);
    wheel.advance(t);
    benchmark::DoNotOptimize(
        wheel.admissible(duration::microseconds(2),
                         t + duration::nanoseconds(deadline_ns[n % 3])));
    wheel.complete(ring[n % depth]);
    ring[n % depth] =
        wheel.admit(duration::microseconds(2),
                    t + duration::nanoseconds(deadline_ns[n % 3]));
    now += 3'000;
  }
  t1 = std::chrono::steady_clock::now();
  const double inc_ns =
      std::chrono::duration<double, std::nano>(t1 - t0).count() /
      static_cast<double>(inc_iters);

  std::printf("\nper-decision cost: batch edf_feasible (50 tasks) %.0f ns, "
              "incremental wheel cycle %.0f ns — %.0fx\n",
              batch_ns, inc_ns, batch_ns / inc_ns);
  json.num("batch_decision_ns", batch_ns);
  json.num("incremental_decision_ns", inc_ns);
  json.num("incremental_speedup", batch_ns / inc_ns);
}

}  // namespace

int main(int argc, char** argv) {
  return bench::gbench_main(argc, argv, [](json::doc& json) {
    acceptance_sweep(json);
    incremental_compare(json);
  });
}
