// Pins what tracing records for the simulated kernel.
//
// The per-event paths build trace subjects only while tracing is on; this
// test keeps those guards honest from the other side. A fixed two-node
// system — clock and NIC interrupts, invocation start/end handlers, a
// remote precedence, EDF priority changes and a deadline abort — must
// render exactly the log below from its trace records, which was recorded
// before the guards went in (interrupt subjects such as `nic@1` and `clk@0`
// included) and while trace records still lived in a sink of their own.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "core/system.hpp"
#include "sched/edf.hpp"

namespace hades::core {
namespace {

using namespace hades::literals;

std::string traced_run() {
  system::config cfg;
  cfg.costs = cost_model::chorus_like();
  cfg.tracing = true;
  cfg.net.delta_min = 30_us;
  cfg.net.delta_max = 30_us;
  cfg.net.per_byte = 0_ns;
  system sys(2, cfg);
  sys.attach_policy(0, std::make_shared<sched::edf_policy>());
  sys.attach_policy(1, std::make_shared<sched::edf_policy>());

  // A remote precedence: a on node 0 hands its result to b on node 1.
  task_builder pipe("pipe");
  pipe.deadline(4_ms).law(arrival_law::aperiodic());
  const eu_index a = pipe.add_code_eu("a", 0, 300_us);
  const eu_index b = pipe.add_code_eu("b", 1, 200_us);
  pipe.precede(a, b, 64);
  const task_id tp = sys.register_task(pipe.build());

  // EDF re-ranks node 0 when the earlier deadline arrives.
  task_builder slow("slow");
  slow.deadline(5_ms).law(arrival_law::aperiodic());
  slow.add_code_eu("s", 0, 600_us);
  const task_id ts = sys.register_task(slow.build());
  task_builder urgent("urgent");
  urgent.deadline(1_ms).law(arrival_law::aperiodic());
  urgent.add_code_eu("u", 0, 100_us);
  const task_id tu = sys.register_task(urgent.build());

  // Misses its deadline on node 1 and is aborted mid-execution.
  task_builder late("late");
  late.deadline(1_ms).law(arrival_law::aperiodic()).abort_on_deadline_miss();
  late.add_code_eu("l", 1, 2_ms);
  const task_id tl = sys.register_task(late.build());

  sys.activate_at(tp, time_point::zero());
  sys.activate_at(ts, time_point::zero());
  sys.activate_at(tl, time_point::at(100_us));
  sys.activate_at(tu, time_point::at(200_us));
  sys.run_for(2500_us);  // clock ticks at 1 ms and 2 ms on both nodes
  return sys.mon().render(traced_kinds);
}

constexpr const char* kRecorded = R"log(t=0ns  n0  [created] net_mngt@0
t=0ns  n1  [created] net_mngt@1
t=0ns  n0  [created] sched:EDF@0
t=0ns  n1  [created] sched:EDF@1
t=0ns  n0  [instance-activated] pipe#0
t=0ns  n0  [custom] inv_start:pipe : interrupt
t=0ns  n0  [instance-activated] slow#0
t=0ns  n0  [custom] inv_start:slow : interrupt
t=20.000us  n0  [created] a#0
t=20.000us  n0  [notification] a#0 : Atv
t=20.000us  n0  [runnable] sched:EDF@0
t=20.000us  n0  [runnable] a#0
t=20.000us  n0  [runnable] net_mngt@0
t=40.000us  n0  [created] s#0
t=40.000us  n0  [notification] s#0 : Atv
t=40.000us  n0  [runnable] s#0
t=40.000us  n0  [running] net_mngt@0
t=86.000us  n0  [done] net_mngt@0
t=86.000us  n0  [running] sched:EDF@0
t=100.000us  n1  [instance-activated] late#0
t=100.000us  n1  [custom] inv_start:late : interrupt
t=107.000us  n0  [done] sched:EDF@0
t=107.000us  n0  [priority-change] a#0 : 1000000
t=107.000us  n0  [running] a#0
t=107.000us  n0  [runnable] sched:EDF@0
t=107.000us  n0  [preempted] a#0
t=107.000us  n0  [running] sched:EDF@0
t=116.000us  n1  [custom] nic@1 : interrupt
t=120.000us  n1  [created] l#0
t=120.000us  n1  [notification] l#0 : Atv
t=120.000us  n1  [runnable] sched:EDF@1
t=120.000us  n1  [runnable] l#0
t=128.000us  n0  [done] sched:EDF@0
t=128.000us  n0  [priority-change] s#0 : 999999
t=128.000us  n0  [running] a#0
t=150.000us  n1  [created] b#0
t=150.000us  n1  [notification] b#0 : Atv
t=150.000us  n1  [running] sched:EDF@1
t=171.000us  n1  [done] sched:EDF@1
t=171.000us  n1  [priority-change] l#0 : 1000000
t=171.000us  n1  [running] l#0
t=171.000us  n1  [runnable] sched:EDF@1
t=171.000us  n1  [preempted] l#0
t=171.000us  n1  [running] sched:EDF@1
t=192.000us  n1  [done] sched:EDF@1
t=192.000us  n1  [priority-change] b#0 : 999999
t=192.000us  n1  [running] l#0
t=200.000us  n0  [instance-activated] urgent#0
t=200.000us  n0  [custom] inv_start:urgent : interrupt
t=220.000us  n0  [created] u#0
t=220.000us  n0  [notification] u#0 : Atv
t=220.000us  n0  [runnable] sched:EDF@0
t=220.000us  n0  [preempted] a#0
t=220.000us  n0  [running] sched:EDF@0
t=220.000us  n0  [runnable] u#0
t=241.000us  n0  [done] sched:EDF@0
t=241.000us  n0  [priority-change] u#0 : 1000000
t=241.000us  n0  [running] a#0
t=241.000us  n0  [priority-change] a#0 : 999999
t=241.000us  n0  [preempted] a#0
t=241.000us  n0  [running] u#0
t=241.000us  n0  [priority-change] s#0 : 999998
t=369.000us  n0  [done] u#0
t=369.000us  n0  [notification] u#0 : Trm
t=369.000us  n0  [runnable] sched:EDF@0
t=369.000us  n0  [running] sched:EDF@0
t=369.000us  n0  [instance-completed] urgent#0
t=369.000us  n0  [custom] inv_end:urgent : interrupt
t=384.000us  n0  [running] sched:EDF@0
t=399.000us  n0  [done] sched:EDF@0
t=399.000us  n0  [running] a#0
t=686.000us  n0  [done] a#0
t=686.000us  n0  [notification] a#0 : Trm
t=686.000us  n0  [runnable] sched:EDF@0
t=686.000us  n0  [running] sched:EDF@0
t=686.000us  n0  [runnable] net_mngt@0
t=686.000us  n0  [preempted] sched:EDF@0
t=686.000us  n0  [running] net_mngt@0
t=732.000us  n0  [done] net_mngt@0
t=732.000us  n0  [running] sched:EDF@0
t=753.000us  n0  [done] sched:EDF@0
t=753.000us  n0  [running] s#0
t=762.000us  n1  [custom] nic@1 : interrupt
t=792.000us  n1  [runnable] b#0
t=792.000us  n1  [running] l#0
t=1.000ms  n0  [custom] clk@0 : interrupt
t=1.000ms  n1  [custom] clk@1 : interrupt
t=1.008ms  n0  [running] s#0
t=1.008ms  n1  [running] l#0
t=1.100ms  n1  [killed] l#0 : deadline miss
t=1.100ms  n1  [notification] l#0 : Trm
t=1.100ms  n1  [runnable] sched:EDF@1
t=1.100ms  n1  [preempted] l#0
t=1.100ms  n1  [running] sched:EDF@1
t=1.100ms  n1  [blocked] l#0
t=1.100ms  n1  [instance-aborted] task4#0 : deadline miss
t=1.121ms  n1  [done] sched:EDF@1
t=1.121ms  n1  [running] b#0
t=1.349ms  n1  [done] b#0
t=1.349ms  n1  [notification] b#0 : Trm
t=1.349ms  n1  [runnable] sched:EDF@1
t=1.349ms  n1  [running] sched:EDF@1
t=1.349ms  n1  [runnable] net_mngt@1
t=1.349ms  n1  [preempted] sched:EDF@1
t=1.349ms  n1  [running] net_mngt@1
t=1.389ms  n0  [done] s#0
t=1.389ms  n0  [notification] s#0 : Trm
t=1.389ms  n0  [runnable] sched:EDF@0
t=1.389ms  n0  [running] sched:EDF@0
t=1.389ms  n0  [instance-completed] slow#0
t=1.389ms  n0  [custom] inv_end:slow : interrupt
t=1.395ms  n1  [done] net_mngt@1
t=1.395ms  n1  [running] sched:EDF@1
t=1.404ms  n0  [running] sched:EDF@0
t=1.416ms  n1  [done] sched:EDF@1
t=1.419ms  n0  [done] sched:EDF@0
t=1.425ms  n0  [custom] nic@0 : interrupt
t=1.455ms  n0  [instance-completed] pipe#0
t=1.455ms  n0  [custom] inv_end:pipe : interrupt
t=2.000ms  n0  [custom] clk@0 : interrupt
t=2.000ms  n1  [custom] clk@1 : interrupt
)log";

TEST(KernelTraceTest, TracedRunRendersTheRecordedLog) {
  const std::string log = traced_run();
  EXPECT_EQ(log, kRecorded) << "rendered log:\n" << log;
}

}  // namespace
}  // namespace hades::core
