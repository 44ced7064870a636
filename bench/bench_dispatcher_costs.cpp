// E3 — section 4 of the paper: characterize the cost of every dispatcher
// activity class and the kernel background activities.
//
// The paper measured its dispatcher prototype on ChorusOS; our analogue is
// (a) the configured cost-model constants the simulated dispatcher charges
// (the section 4 table itself) and (b) host-side microbenchmarks of this
// implementation's dispatcher operations — the "worst-case scenario
// benchmarks" the paper describes, applied to our own prototype.
//
// Usage: bench_dispatcher_costs [--json PATH] [google-benchmark flags]
// `--json PATH` writes the stamped BENCH_dispatcher_costs.json: one
// `<benchmark>_ns` key per microbenchmark, its real time per iteration.
#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "bench/gbench_main.hpp"
#include "bench/table.hpp"
#include "core/system.hpp"
#include "sim/engine.hpp"
#include "sched/edf.hpp"

using namespace hades;
using namespace hades::literals;

namespace {

core::system::config base() {
  core::system::config cfg;
  cfg.costs = core::cost_model::zero();
  cfg.kernel_background = false;
  cfg.tracing = false;
  return cfg;
}

void print_section4_table() {
  const auto m = core::cost_model::chorus_like();
  bench::table t({"activity", "class", "constant", "WCET / period"});
  t.row({"local precedence constraint", "dispatcher", "c_local",
         m.c_local.to_string()});
  t.row({"remote precedence to protocol", "dispatcher", "c_rel",
         m.c_rel.to_string()});
  t.row({"action start", "dispatcher", "c_act_start",
         m.c_act_start.to_string()});
  t.row({"action end", "dispatcher", "c_act_end", m.c_act_end.to_string()});
  t.row({"invocation start", "dispatcher", "c_inv_start",
         m.c_inv_start.to_string()});
  t.row({"invocation end", "dispatcher", "c_inv_end",
         m.c_inv_end.to_string()});
  t.row({"context switch", "kernel", "cs", m.context_switch.to_string()});
  t.row({"clock interrupt", "kernel bg", "w_clk / p_clk",
         m.w_clk.to_string() + " / " + m.p_clk.to_string()});
  t.row({"NIC interrupt", "kernel bg", "w_net / p_net",
         m.w_net.to_string() + " / " + m.p_net.to_string()});
  t.row({"scheduler per event", "scheduler", "x",
         m.scheduler_per_event.to_string()});
  t.row({"net task per message", "protocol", "-",
         m.net_task_per_msg.to_string()});
  t.print("E3/table-1: section 4 cost model (chorus_like configuration)");
}

// -- host-side microbenchmarks of our dispatcher implementation -------------

void bm_activation_to_completion(benchmark::State& state) {
  core::system sys(1, base());
  core::task_builder b("t");
  b.deadline(1_s).law(core::arrival_law::aperiodic());
  b.add_code_eu("t", 0, 10_us);
  const auto t = sys.register_task(b.build());
  for (auto _ : state) {
    sys.activate(t);
    sys.engine().run();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(bm_activation_to_completion);

void bm_precedence_chain(benchmark::State& state) {
  core::system sys(1, base());
  core::task_builder b("chain");
  b.deadline(1_s).law(core::arrival_law::aperiodic());
  eu_index prev = b.add_code_eu("eu0", 0, 1_us);
  for (int i = 1; i < 8; ++i) {
    const auto cur = b.add_code_eu("eu" + std::to_string(i), 0, 1_us);
    b.precede(prev, cur);
    prev = cur;
  }
  const auto t = sys.register_task(b.build());
  for (auto _ : state) {
    sys.activate(t);
    sys.engine().run();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * 8));
}
BENCHMARK(bm_precedence_chain);

void bm_scheduler_notification(benchmark::State& state) {
  core::system sys(1, base());
  core::task_builder b("t");
  b.deadline(1_s).law(core::arrival_law::aperiodic());
  b.add_code_eu("t", 0, 10_us);
  const auto t = sys.register_task(b.build());
  sys.attach_policy(0, std::make_shared<sched::edf_policy>());
  for (auto _ : state) {
    sys.activate(t);
    sys.engine().run();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * 2));
}
BENCHMARK(bm_scheduler_notification);

void bm_remote_precedence(benchmark::State& state) {
  core::system sys(2, base());
  core::task_builder b("dist");
  b.deadline(1_s).law(core::arrival_law::aperiodic());
  const auto a = b.add_code_eu("a", 0, 1_us);
  const auto c = b.add_code_eu("c", 1, 1_us);
  b.precede(a, c, 64);
  const auto t = sys.register_task(b.build());
  for (auto _ : state) {
    sys.activate(t);
    sys.engine().run();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(bm_remote_precedence);

void bm_engine_event_dispatch(benchmark::State& state) {
  sim::engine eng;
  for (auto _ : state) {
    eng.after(1_us, [] {});
    eng.step();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(bm_engine_event_dispatch);

}  // namespace

int main(int argc, char** argv) {
  return bench::gbench_main(argc, argv, [](json::doc&) {
    print_section4_table();
    std::printf("\nhost-side microbenchmarks of this dispatcher (the paper's "
                "\"worst-case scenario benchmarks\"):\n");
  });
}
