// EDF scheduler tests, including the verbatim reproduction of the paper's
// Figure 2 cooperation trace (experiment E1).
#include "sched/edf.hpp"

#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <vector>

#include "core/system.hpp"

namespace hades::sched {
namespace {

using namespace hades::literals;
using core::system;

system::config quiet() {
  system::config cfg;
  cfg.costs = core::cost_model::zero();
  cfg.kernel_background = false;
  return cfg;
}

core::task_graph one_eu(const std::string& name, duration wcet,
                        duration deadline, core::arrival_law law) {
  core::task_builder b(name);
  b.deadline(deadline).law(law);
  b.add_code_eu(name, 0, wcet);
  return b.build();
}

TEST(EdfTest, EarlierDeadlinePreempts) {
  system sys(1, quiet());
  const auto t1 = sys.register_task(
      one_eu("t1", 10_ms, 50_ms, core::arrival_law::aperiodic()));
  const auto t2 = sys.register_task(
      one_eu("t2", 2_ms, 5_ms, core::arrival_law::aperiodic()));
  sys.attach_policy(0, std::make_shared<edf_policy>());
  sys.activate(t1);
  sys.activate_at(t2, time_point::at(3_ms));
  sys.run_for(30_ms);
  // t2 (deadline 8ms abs) preempts t1 (deadline 50ms abs): response 2ms.
  EXPECT_DOUBLE_EQ(sys.stats_for(t2).response_times.max(), 2e6);
  EXPECT_DOUBLE_EQ(sys.stats_for(t1).response_times.max(), 12e6);
}

TEST(EdfTest, LaterDeadlineDoesNotPreempt) {
  system sys(1, quiet());
  const auto t1 = sys.register_task(
      one_eu("t1", 10_ms, 15_ms, core::arrival_law::aperiodic()));
  const auto t2 = sys.register_task(
      one_eu("t2", 2_ms, 100_ms, core::arrival_law::aperiodic()));
  sys.attach_policy(0, std::make_shared<edf_policy>());
  sys.activate(t1);
  sys.activate_at(t2, time_point::at(3_ms));
  sys.run_for(30_ms);
  EXPECT_DOUBLE_EQ(sys.stats_for(t1).response_times.max(), 10e6);
  EXPECT_DOUBLE_EQ(sys.stats_for(t2).response_times.max(), 9e6);  // waits
}

TEST(EdfTest, SchedulesFeasibleSetWithoutMisses) {
  system sys(1, quiet());
  // U = 0.5/2 + 1/4 + 2/8 = 0.75 — EDF schedules any U <= 1.
  sys.register_task(one_eu("a", 500_us, 2_ms, core::arrival_law::periodic(2_ms)));
  sys.register_task(one_eu("b", 1_ms, 4_ms, core::arrival_law::periodic(4_ms)));
  sys.register_task(one_eu("c", 2_ms, 8_ms, core::arrival_law::periodic(8_ms)));
  sys.attach_policy(0, std::make_shared<edf_policy>());
  sys.run_for(200_ms);
  EXPECT_EQ(sys.mon().count(core::monitor_event_kind::deadline_miss), 0u);
}

TEST(EdfTest, OverloadProducesMisses) {
  system sys(1, quiet());
  sys.register_task(one_eu("a", 3_ms, 4_ms, core::arrival_law::periodic(4_ms)));
  sys.register_task(one_eu("b", 3_ms, 8_ms, core::arrival_law::periodic(8_ms)));
  sys.attach_policy(0, std::make_shared<edf_policy>());
  sys.run_for(100_ms);  // U = 1.125
  EXPECT_GT(sys.mon().count(core::monitor_event_kind::deadline_miss), 0u);
}

TEST(EdfTest, SchedulerCostDelaysApplicationThreads) {
  auto cfg = quiet();
  cfg.costs.scheduler_per_event = 100_us;
  system sys(1, cfg);
  const auto t = sys.register_task(
      one_eu("t", 1_ms, 50_ms, core::arrival_law::aperiodic()));
  sys.attach_policy(0, std::make_shared<edf_policy>());
  sys.activate(t);
  sys.run_for(30_ms);
  // Atv processing (100us at scheduler priority) precedes the EU; the Trm
  // processing happens after completion.
  EXPECT_DOUBLE_EQ(sys.stats_for(t).response_times.max(), 1e6 + 100e3);
}

// ---------------------------------------------------------------- Figure 2 --

TEST(EdfFigure2Test, CooperationTraceMatchesThePaper) {
  // Paper Figure 2: t1 is running; t2 with a shorter deadline is activated;
  // the dispatcher inserts Atv(t2); the scheduler thread (highest priority)
  // retrieves it, gives t2 the highest priority and decreases t1's; t2 runs
  // to completion; Trm(t2) is inserted and ignored by EDF; t1 resumes.
  system sys(1, quiet());
  const auto t1 = sys.register_task(
      one_eu("t1", 10_ms, 100_ms, core::arrival_law::aperiodic()));
  const auto t2 = sys.register_task(
      one_eu("t2", 2_ms, 10_ms, core::arrival_law::aperiodic()));
  sys.attach_policy(0, std::make_shared<edf_policy>());
  sys.activate(t1);
  sys.activate_at(t2, time_point::at(3_ms));
  sys.run_for(50_ms);

  // The trace records of one kind, as {subject, detail} text.
  const core::monitor& mon = sys.mon();
  struct text {
    std::string_view subject, detail;
    time_point at;
  };
  const auto of_kind = [&](core::monitor_event_kind k) {
    std::vector<text> out;
    for (const auto& e : mon.events())
      if (e.kind == k)
        out.push_back({mon.name(e.subject), mon.name(e.detail), e.at});
    return out;
  };

  // 1. Notification order: Atv(t1), Atv(t2), Trm(t2), Trm(t1).
  const auto notif = of_kind(core::monitor_event_kind::notification);
  ASSERT_EQ(notif.size(), 4u);
  EXPECT_EQ(notif[0].subject, "t1#0");
  EXPECT_EQ(notif[0].detail, "Atv");
  EXPECT_EQ(notif[1].subject, "t2#0");
  EXPECT_EQ(notif[1].detail, "Atv");
  EXPECT_EQ(notif[2].subject, "t2#0");
  EXPECT_EQ(notif[2].detail, "Trm");
  EXPECT_EQ(notif[3].subject, "t1#0");
  EXPECT_EQ(notif[3].detail, "Trm");

  // 2. Priority changes after Atv(t2): t2 raised to the top, t1 decreased —
  //    and nothing after Trm(t2) (EDF ignores terminations).
  const auto prios = of_kind(core::monitor_event_kind::priority_change);
  ASSERT_EQ(prios.size(), 3u);
  EXPECT_EQ(prios[0].subject, "t1#0");  // Atv(t1): t1 gets the top rank
  EXPECT_EQ(prios[0].detail, std::to_string(prio::max_app));
  EXPECT_EQ(prios[1].subject, "t2#0");  // Atv(t2): t2 takes the top...
  EXPECT_EQ(prios[1].detail, std::to_string(prio::max_app));
  EXPECT_EQ(prios[2].subject, "t1#0");  // ...and t1 is decreased
  EXPECT_EQ(prios[2].detail, std::to_string(prio::max_app - 1));
  EXPECT_EQ(prios[1].at, time_point::at(3_ms));

  // 3. Timeline: t1 runs [0,3], t2 runs [3,5], t1 resumes [5,12].
  EXPECT_DOUBLE_EQ(sys.stats_for(t2).response_times.max(), 2e6);
  EXPECT_DOUBLE_EQ(sys.stats_for(t1).response_times.max(), 12e6);

  // 4. The scheduler thread ran once per notification.
  EXPECT_EQ(sys.disp(0).stats().scheduler_runs, 4u);
}

TEST(EdfFigure2Test, TraceWithSchedulerCostShowsSchedulerSlices) {
  // Same scenario with a non-zero scheduler cost: t_edf occupies the CPU
  // for sigma after every notification (visible in Figure 2 as the t_edf
  // row). t2's completion shifts by the Atv-processing slice.
  auto cfg = quiet();
  cfg.costs.scheduler_per_event = 200_us;
  system sys(1, cfg);
  const auto t1 = sys.register_task(
      one_eu("t1", 10_ms, 100_ms, core::arrival_law::aperiodic()));
  const auto t2 = sys.register_task(
      one_eu("t2", 2_ms, 10_ms, core::arrival_law::aperiodic()));
  sys.attach_policy(0, std::make_shared<edf_policy>());
  sys.activate(t1);
  sys.activate_at(t2, time_point::at(3_ms));
  sys.run_for(50_ms);
  EXPECT_DOUBLE_EQ(sys.stats_for(t2).response_times.max(), 2e6 + 200e3);
  // t1: 12ms of work+preemption + 3 scheduler slices before its completion
  // (Atv t1, Atv t2, Trm t2).
  EXPECT_DOUBLE_EQ(sys.stats_for(t1).response_times.max(), 12e6 + 3 * 200e3);
}

}  // namespace
}  // namespace hades::sched
