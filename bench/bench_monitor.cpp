// E10 — monitoring activities (paper section 3.2.1): detection latency for
// every monitored event class. The paper notes no existing environment
// implemented all of them; this bench exercises each detector and reports
// how long after the fault the monitor event fires. Two host timings
// follow: a small system's whole monitored-event path, and one warmed
// `monitor::record` with a routed listener (the cost every shed, orphan
// and suspicion pays).
//
// Usage: bench_monitor [--json PATH] [google-benchmark flags]
// `--json PATH` writes the stamped BENCH_monitor.json: one
// `<benchmark>_ns` key per host timing, its real time per iteration.
#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "bench/gbench_main.hpp"
#include "bench/table.hpp"
#include "core/system.hpp"
#include "services/fault_detector.hpp"

using namespace hades;
using namespace hades::literals;

namespace {

core::system::config quiet() {
  core::system::config cfg;
  cfg.costs = core::cost_model::zero();
  cfg.kernel_background = false;
  cfg.net.delta_min = 20_us;
  cfg.net.delta_max = 60_us;
  return cfg;
}

duration first_event_latency(core::system& sys, core::monitor_event_kind k,
                             time_point fault_at) {
  for (const auto& e : sys.mon().events())
    if (e.kind == k) return e.at - fault_at;
  return duration::infinity();
}

void sweep() {
  bench::table t({"monitored event", "scenario", "detection latency",
                  "bound / comment"});

  {  // deadline violation: D=2ms task runs 5ms.
    core::system sys(1, quiet());
    core::task_builder b("late");
    b.deadline(2_ms);
    b.add_code_eu("late", 0, 5_ms);
    const auto id = sys.register_task(b.build());
    sys.activate(id);
    sys.run_for(20_ms);
    t.row({"deadline violation", "D=2ms, C=5ms",
           first_event_latency(sys, core::monitor_event_kind::deadline_miss,
                               time_point::at(2_ms))
               .to_string(),
           "= 0 (timer at a+D)"});
  }
  {  // arrival-law violation: sporadic re-activated too early.
    core::system sys(1, quiet());
    core::task_builder b("s");
    b.deadline(50_ms).law(core::arrival_law::sporadic(10_ms));
    b.add_code_eu("s", 0, 1_ms);
    const auto id = sys.register_task(b.build());
    sys.activate(id);
    sys.run_for(3_ms);
    sys.activate(id);
    sys.run_for(20_ms);
    t.row({"arrival-law violation", "gap 3ms < pseudo-period 10ms",
           first_event_latency(
               sys, core::monitor_event_kind::arrival_law_violation,
               time_point::at(3_ms))
               .to_string(),
           "= 0 (checked at the request)"});
  }
  {  // early termination.
    core::system sys(1, quiet());
    core::task_builder b("e");
    core::code_eu eu;
    eu.name = "e";
    eu.wcet = 10_ms;
    eu.actual = [](instance_number) { return 2_ms; };
    b.add_code_eu(std::move(eu));
    const auto id = sys.register_task(b.build());
    sys.activate(id);
    sys.run_for(20_ms);
    t.row({"early termination", "actual 2ms < wcet 10ms",
           first_event_latency(sys,
                               core::monitor_event_kind::early_termination,
                               time_point::at(2_ms))
               .to_string(),
           "= 0 (at thread end)"});
  }
  {  // orphan execution: abort-on-miss kills a started thread.
    core::system sys(1, quiet());
    core::task_builder b("o");
    b.deadline(2_ms).abort_on_deadline_miss(true);
    b.add_code_eu("o", 0, 6_ms);
    const auto id = sys.register_task(b.build());
    sys.activate(id);
    sys.run_for(20_ms);
    t.row({"orphan execution", "instance aborted at its deadline",
           first_event_latency(sys, core::monitor_event_kind::orphan_killed,
                               time_point::at(2_ms))
               .to_string(),
           "= 0 (killed with the abort)"});
  }
  {  // deadlock via condition-variable cycle.
    core::system sys(1, quiet());
    auto make = [&](const std::string& n, condition_id w, condition_id s) {
      core::task_builder b(n);
      core::code_eu e;
      e.name = n;
      e.wcet = 1_ms;
      e.waits_all = {w};
      e.sets = {s};
      b.add_code_eu(std::move(e));
      return sys.register_task(b.build());
    };
    const auto a = make("a", 1, 2);
    const auto bb = make("b", 2, 1);
    sys.arm_deadlock_scan(5_ms);
    sys.activate(a);
    sys.activate(bb);
    sys.run_for(50_ms);
    t.row({"deadlock", "condvar wait cycle, scan period 5ms",
           first_event_latency(sys,
                               core::monitor_event_kind::deadlock_suspected,
                               time_point::zero())
               .to_string(),
           "<= scan period"});
  }
  {  // network omission via remote precedence + latest start.
    core::system sys(2, quiet());
    core::task_builder b("dist");
    b.deadline(100_ms);
    const auto p = b.add_code_eu("prod", 0, 1_ms);
    core::code_eu c;
    c.name = "cons";
    c.processor = 1;
    c.wcet = 1_ms;
    c.attrs.latest_offset = 4_ms;
    const auto ci = b.add_code_eu(std::move(c));
    b.precede(p, ci, 64);
    const auto id = sys.register_task(b.build());
    sys.network().drop_next(0, 1, 1);
    sys.activate(id);
    sys.run_for(50_ms);
    t.row({"network omission", "precedence token lost, latest=4ms",
           first_event_latency(
               sys, core::monitor_event_kind::network_omission_suspected,
               time_point::at(1_ms))
               .to_string(),
           "<= latest - completion of producer"});
  }
  {  // node crash via heartbeat detector.
    core::system sys(2, quiet());
    svc::fault_detector fd(sys, {5_ms, 12_ms});
    fd.start();
    sys.run_for(50_ms);
    sys.crash_node(1);
    sys.run_for(50_ms);
    const auto at = fd.suspected_at(0, 1);
    t.row({"node crash", "heartbeat 5ms, timeout 12ms",
           at.has_value() ? (*at - time_point::at(50_ms)).to_string() : "-",
           "<= timeout + period + delta"});
  }
  t.print("E10/table-9: monitoring — detection latency per event class");
}

void bm_monitor_event_path(benchmark::State& state) {
  for (auto _ : state) {
    core::system::config cfg = quiet();
    cfg.tracing = false;
    core::system sys(1, cfg);
    core::task_builder b("late");
    b.deadline(1_ms);
    b.add_code_eu("late", 0, 2_ms);
    const auto id = sys.register_task(b.build());
    sys.activate(id);
    sys.run_for(5_ms);
    benchmark::DoNotOptimize(sys.mon().events().size());
  }
}
BENCHMARK(bm_monitor_event_path)->Unit(benchmark::kMicrosecond);

// One warmed `record` of an `instance_rejected` event per iteration, names
// interned at the call as the shed path does, with one routed listener that
// wants the kind. Every 1,024 records the clock stops while the engine runs
// their redeliveries and the log is cleared.
void bm_monitor_record(benchmark::State& state) {
  core::system::config cfg = quiet();
  cfg.kernel_background = false;
  core::system sys(1, cfg);
  std::uint64_t heard = 0;
  sys.mon().subscribe_at_node(0, 20_us,
                              {core::monitor_event_kind::instance_rejected},
                              [&](const core::monitor_event&) { ++heard; });
  constexpr std::uint64_t batch = 1024;
  std::uint64_t recorded = 0;
  const auto record = [&] {
    core::monitor_event e;
    e.kind = core::monitor_event_kind::instance_rejected;
    e.at = sys.now();
    e.node = 0;
    e.task = 1;
    e.instance = recorded;
    e.subject = sys.mon().intern("gw1_c2");
    e.detail = sys.mon().intern("shed: value density");
    sys.mon().record(e);
  };
  const auto drain = [&] {
    sys.run_for(1_ms);
    sys.mon().clear();
  };
  for (; recorded < batch; ++recorded) record();  // warm-up: names, log, pool
  drain();
  for (auto _ : state) {
    record();
    if (++recorded % batch == 0) {
      state.PauseTiming();
      drain();
      state.ResumeTiming();
    }
  }
  benchmark::DoNotOptimize(heard);
}
BENCHMARK(bm_monitor_record);

}  // namespace

int main(int argc, char** argv) {
  return bench::gbench_main(argc, argv, [](json::doc&) { sweep(); });
}
