// Quickstart: two periodic tasks under EDF on one node.
//
// Shows the minimal HADES workflow: build HEUGs, register them with a
// system, attach a scheduling policy, run, and inspect monitoring events,
// response times and the execution trace.
#include <cstdio>

#include "core/system.hpp"
#include "sched/edf.hpp"

using namespace hades;
using namespace hades::literals;

int main() {
  // A two-node-capable system with paper-plausible kernel costs.
  core::system::config cfg;
  cfg.costs = core::cost_model::chorus_like();
  core::system sys(1, cfg);

  // Task "control": 2ms of work every 10ms, deadline = period.
  core::task_builder control("control");
  control.deadline(10_ms).law(core::arrival_law::periodic(10_ms));
  control.add_code_eu("control", 0, 2_ms);
  const auto t_control = sys.register_task(control.build());

  // Task "logger": 5ms of work every 40ms.
  core::task_builder logger("logger");
  logger.deadline(40_ms).law(core::arrival_law::periodic(40_ms));
  logger.add_code_eu("logger", 0, 5_ms);
  const auto t_logger = sys.register_task(logger.build());

  sys.attach_policy(0, std::make_shared<sched::edf_policy>());
  sys.run_for(200_ms);

  std::printf("HADES quickstart — EDF on one node, 200ms simulated\n\n");
  for (const auto t : {t_control, t_logger}) {
    auto& st = sys.stats_for(t);
    std::printf("%-8s activations=%-3llu completions=%-3llu worst-response=%s\n",
                sys.graph(t).name().c_str(),
                static_cast<unsigned long long>(st.activations),
                static_cast<unsigned long long>(st.completions),
                duration::nanoseconds(static_cast<std::int64_t>(
                                          st.response_times.max()))
                    .to_string()
                    .c_str());
  }
  std::printf("deadline misses: %zu\n",
              sys.mon().count(core::monitor_event_kind::deadline_miss));
  std::printf("\nFirst 30ms as a Gantt chart (one column = 0.5ms):\n%s\n",
              sys.mon()
                  .render_gantt(time_point::zero(), time_point::at(30_ms),
                                500_us)
                  .c_str());
  return 0;
}
