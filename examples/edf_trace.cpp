// Figure 2 of the paper, reproduced end-to-end (experiment E1).
//
// Two threads t1 and t2 under EDF. t1 runs; t2 with a shorter deadline is
// activated; the dispatcher inserts Atv(t2) into the shared FIFO; the
// scheduler thread (highest priority) processes it, raises t2 and lowers
// t1; t2 runs to completion; its Trm notification is ignored by EDF; t1
// resumes. The program prints the notification trace, the dispatcher
// primitive calls, and the resulting timeline.
#include <cstdio>

#include "core/system.hpp"
#include "sched/edf.hpp"

using namespace hades;
using namespace hades::literals;

int main() {
  core::system::config cfg;
  cfg.costs = core::cost_model::zero();
  cfg.costs.scheduler_per_event = 200_us;  // make t_edf visible in the chart
  cfg.kernel_background = false;
  core::system sys(1, cfg);

  core::task_builder b1("t1");
  b1.deadline(100_ms).law(core::arrival_law::aperiodic());
  b1.add_code_eu("t1", 0, 10_ms);
  const auto t1 = sys.register_task(b1.build());

  core::task_builder b2("t2");
  b2.deadline(10_ms).law(core::arrival_law::aperiodic());
  b2.add_code_eu("t2", 0, 2_ms);
  const auto t2 = sys.register_task(b2.build());

  sys.attach_policy(0, std::make_shared<sched::edf_policy>());
  sys.activate(t1);
  sys.activate_at(t2, time_point::at(3_ms));
  sys.run_for(30_ms);

  std::printf("Figure 2 reproduction — EDF / dispatcher cooperation\n\n");
  std::printf("%-12s %-22s %s\n", "time", "event", "detail");
  const core::monitor& mon = sys.mon();
  for (const auto& e : mon.events()) {
    if (e.kind == core::monitor_event_kind::notification ||
        e.kind == core::monitor_event_kind::priority_change) {
      std::printf("%-12s %-22s %s -> %s\n", e.at.to_string().c_str(),
                  core::to_string(e.kind), mon.subject_text(e).c_str(),
                  mon.detail_text(e).c_str());
    }
  }

  std::printf("\nTimeline (one column = 0.25ms):\n%s\n",
              sys.mon()
                  .render_gantt(time_point::zero(), time_point::at(16_ms),
                                250_us)
                  .c_str());
  std::printf("t2 response: %s (paper: runs immediately after Atv)\n",
              duration::nanoseconds(static_cast<std::int64_t>(
                                        sys.stats_for(t2).response_times.max()))
                  .to_string()
                  .c_str());
  std::printf("t1 response: %s (preempted for t2's execution)\n",
              duration::nanoseconds(static_cast<std::int64_t>(
                                        sys.stats_for(t1).response_times.max()))
                  .to_string()
                  .c_str());
  return 0;
}
