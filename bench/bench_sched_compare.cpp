// E5 — the flexibility claim (paper section 2.1): one dispatcher, several
// schedulers. Random workloads are executed under RM, EDF and Spring and
// compared on deadline misses (RM/EDF) and guaranteed-but-shed load
// (Spring). Expected shape: EDF sustains higher utilization than RM before
// missing; Spring never misses but rejects increasingly under overload.
//
// A fourth contender rides the dispatcher admission hook from the traffic
// edge (DESIGN.md, "Traffic edge & admission control"): plain EDF gated by
// the incremental demand wheel, which turns would-be misses into up-front
// rejections the same way Spring's guarantee test does — but in O(1) per
// activation instead of a full schedulability pass.
//
// Usage: bench_sched_compare [--json PATH] [google-benchmark flags]
#include <benchmark/benchmark.h>

#include <deque>
#include <string>
#include <unordered_map>

#include "bench/gbench_main.hpp"
#include "bench/table.hpp"
#include "core/system.hpp"
#include "sched/edf.hpp"
#include "sched/fixed_priority.hpp"
#include "sched/incremental.hpp"
#include "sched/spring.hpp"
#include "sched/workload.hpp"

using namespace hades;
using namespace hades::literals;

namespace {

struct outcome {
  double miss_ratio = 0.0;    // misses / activations
  double reject_ratio = 0.0;  // rejections / activations (Spring)
};

enum class which { rm, edf, spring, edf_wheel };

outcome run_one(const std::vector<sched::analyzed_task>& ts, which w) {
  core::system::config cfg;
  cfg.costs = core::cost_model::chorus_like();
  cfg.tracing = false;
  cfg.reject_arrival_violations = false;
  core::system sys(1, cfg);
  std::vector<task_id> ids;
  std::vector<const core::task_graph*> graphs;
  std::unordered_map<task_id, std::size_t> idx;
  for (const auto& t : ts) {
    // Plain single-EU tasks so all the schedulers are comparable.
    core::task_builder b(t.name);
    b.deadline(t.d).law(core::arrival_law::sporadic(t.t));
    b.add_code_eu(t.name, 0, t.c);
    ids.push_back(sys.register_task(b.build()));
    idx[ids.back()] = graphs.size();
    graphs.push_back(&sys.graph(ids.back()));
  }
  switch (w) {
    case which::rm:
      sys.attach_policy(0, sched::make_rate_monotonic(graphs));
      break;
    case which::edf:
    case which::edf_wheel:
      sys.attach_policy(0, std::make_shared<sched::edf_policy>());
      break;
    case which::spring:
      sys.attach_policy(0, std::make_shared<sched::spring_policy>());
      break;
  }
  // EDF gated by the incremental wheel: every activation is charged as a
  // one-shot job (cost c, deadline now + d) and rejected when the demand
  // bound would break. Per-task retirement is FIFO under EDF (equal
  // relative deadlines), so a deque of tickets pairs completions with
  // their admit-time charges.
  sched::incremental_feasibility wheel(
      {duration::milliseconds(1), 0.85});
  std::unordered_map<task_id,
                     std::deque<sched::incremental_feasibility::ticket>>
      charges;
  if (w == which::edf_wheel) {
    auto& d = sys.disp(0);
    d.set_admission_hook([&](task_id t, time_point now) {
      wheel.advance(now);
      const auto& at = ts[idx[t]];
      const time_point dl = now + at.d;
      if (!wheel.admissible(at.c, dl)) return false;
      charges[t].push_back(wheel.admit(at.c, dl));
      return true;
    });
    d.set_retire_hook([&](task_id t, instance_number, time_point, time_point,
                          bool) {
      auto& q = charges[t];
      if (q.empty()) return;
      wheel.complete(q.front());
      q.pop_front();
    });
  }
  for (std::size_t i = 0; i < ts.size(); ++i)
    for (time_point a = time_point::zero(); a < time_point::at(300_ms);
         a += ts[i].t)
      sys.activate_at(ids[i], a);
  sys.run_for(400_ms);

  std::uint64_t act = 0, rej = 0;
  for (auto id : ids) {
    act += sys.stats_for(id).activations;
    rej += sys.stats_for(id).rejections;
  }
  outcome o;
  const auto misses = sys.mon().count(core::monitor_event_kind::deadline_miss);
  if (act > 0) {
    o.miss_ratio = static_cast<double>(misses) / static_cast<double>(act);
    o.reject_ratio = static_cast<double>(rej) / static_cast<double>(act + rej);
  }
  return o;
}

void sweep(json::doc& json) {
  bench::table t({"U", "RM miss%", "EDF miss%", "Spring miss%",
                  "Spring reject%", "EDF+wheel miss%", "EDF+wheel reject%"});
  rng r(99);
  constexpr int sets = 15;
  for (double u : {0.50, 0.70, 0.85, 0.95, 1.05, 1.20}) {
    sched::workload_params p;
    p.task_count = 6;
    p.utilization = u;
    p.period_min = 4_ms;
    p.period_max = 60_ms;
    double rm = 0, edf = 0, sp_miss = 0, sp_rej = 0;
    double wh_miss = 0, wh_rej = 0;
    for (int i = 0; i < sets; ++i) {
      const auto ts = sched::generate_taskset(p, r);
      rm += run_one(ts, which::rm).miss_ratio;
      edf += run_one(ts, which::edf).miss_ratio;
      const auto sp = run_one(ts, which::spring);
      sp_miss += sp.miss_ratio;
      sp_rej += sp.reject_ratio;
      const auto wh = run_one(ts, which::edf_wheel);
      wh_miss += wh.miss_ratio;
      wh_rej += wh.reject_ratio;
    }
    t.row({bench::fmt(u), bench::pct(rm / sets), bench::pct(edf / sets),
           bench::pct(sp_miss / sets), bench::pct(sp_rej / sets),
           bench::pct(wh_miss / sets), bench::pct(wh_rej / sets)});
    const std::string key = "u" + std::to_string(static_cast<int>(u * 100));
    json.num(key + "_rm_miss", rm / sets);
    json.num(key + "_edf_miss", edf / sets);
    json.num(key + "_spring_miss", sp_miss / sets);
    json.num(key + "_spring_reject", sp_rej / sets);
    json.num(key + "_edf_wheel_miss", wh_miss / sets);
    json.num(key + "_edf_wheel_reject", wh_rej / sets);
  }
  t.print("E5/table-3: scheduler comparison on one dispatcher "
          "(6 sporadic tasks, 15 sets per point, chorus_like costs)");
  std::printf("expected shape: EDF misses later than RM as U grows; Spring "
              "and EDF+wheel trade rejections for (near-)zero misses, the "
              "wheel at O(1) per activation.\n");
}

void bm_edf_run(benchmark::State& state) {
  rng r(5);
  sched::workload_params p;
  p.task_count = 6;
  p.utilization = 0.8;
  const auto ts = sched::generate_taskset(p, r);
  for (auto _ : state) benchmark::DoNotOptimize(run_one(ts, which::edf));
}
BENCHMARK(bm_edf_run)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  return bench::gbench_main(argc, argv, sweep);
}
