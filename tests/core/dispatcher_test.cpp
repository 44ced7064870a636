// Execution-semantics tests: the four runnable conditions, precedence
// (local and remote), condition variables, resources, invocations, cost
// charging and the monitoring activities of paper section 3.2.1.
#include "core/dispatcher.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>
#include <vector>

#include "core/system.hpp"

namespace hades::core {
namespace {

using namespace hades::literals;

system::config zero_cost() {
  system::config cfg;
  cfg.costs = cost_model::zero();
  cfg.kernel_background = false;
  cfg.net.delta_min = 10_us;
  cfg.net.delta_max = 10_us;
  cfg.net.per_byte = 0_ns;
  return cfg;
}

/// One-Code_EU task helper.
task_graph simple_task(const std::string& name, node_id node, duration wcet,
                       duration deadline, arrival_law law,
                       priority p = prio::min_app) {
  task_builder b(name);
  b.deadline(deadline).law(law);
  timing_attrs attrs;
  attrs.prio = p;
  attrs.preemption_threshold = p;
  b.add_code_eu(name, node, wcet, attrs);
  return b.build();
}

TEST(DispatcherTest, SingleTaskCompletesWithZeroCosts) {
  system sys(1, zero_cost());
  const auto t = sys.register_task(simple_task(
      "t", 0, 1_ms, 10_ms, arrival_law::aperiodic()));
  EXPECT_TRUE(sys.activate(t));
  sys.run_for(10_ms);
  EXPECT_EQ(sys.stats_for(t).completions, 1u);
  EXPECT_DOUBLE_EQ(sys.stats_for(t).response_times.max(), 1e6);  // exactly wcet
}

TEST(DispatcherTest, PeriodicTaskAutoActivates) {
  system sys(1, zero_cost());
  const auto t = sys.register_task(simple_task(
      "p", 0, 1_ms, 5_ms, arrival_law::periodic(5_ms)));
  sys.run_for(26_ms);  // activations at 0,5,10,15,20,25
  EXPECT_EQ(sys.stats_for(t).activations, 6u);
  EXPECT_EQ(sys.stats_for(t).completions, 6u);  // the 25ms one ends at 26ms
}

TEST(DispatcherTest, PeriodicOffsetDelaysFirstActivation) {
  system sys(1, zero_cost());
  const auto t = sys.register_task(simple_task(
      "p", 0, 1_ms, 5_ms, arrival_law::periodic(10_ms, 3_ms)));
  sys.run_for(2_ms);
  EXPECT_EQ(sys.stats_for(t).activations, 0u);
  sys.run_for(2_ms);
  EXPECT_EQ(sys.stats_for(t).activations, 1u);
}

TEST(DispatcherTest, LocalPrecedenceChainRunsInOrder) {
  system sys(1, zero_cost());
  std::vector<std::string> order;
  task_builder b("chain");
  b.deadline(100_ms).law(arrival_law::aperiodic());
  code_eu a;
  a.name = "a";
  a.wcet = 1_ms;
  a.body = [&](execution_context&) { order.push_back("a"); };
  code_eu c;
  c.name = "c";
  c.wcet = 1_ms;
  c.body = [&](execution_context&) { order.push_back("c"); };
  code_eu d;
  d.name = "d";
  d.wcet = 1_ms;
  d.body = [&](execution_context&) { order.push_back("d"); };
  const auto ia = b.add_code_eu(std::move(a));
  const auto ic = b.add_code_eu(std::move(c));
  const auto id = b.add_code_eu(std::move(d));
  b.precede(ia, ic).precede(ic, id);
  const auto t = sys.register_task(b.build());
  sys.activate(t);
  sys.run_for(10_ms);
  EXPECT_EQ(order, (std::vector<std::string>{"a", "c", "d"}));
  EXPECT_EQ(sys.stats_for(t).completions, 1u);
  EXPECT_DOUBLE_EQ(sys.stats_for(t).response_times.max(), 3e6);
}

TEST(DispatcherTest, DiamondJoinWaitsForBothPredecessors) {
  system sys(1, zero_cost());
  std::vector<std::string> order;
  task_builder b("diamond");
  b.deadline(100_ms);
  auto mk = [&](const std::string& n, duration w) {
    code_eu e;
    e.name = n;
    e.wcet = w;
    e.body = [&order, n](execution_context&) { order.push_back(n); };
    return e;
  };
  const auto a = b.add_code_eu(mk("a", 1_ms));
  const auto l = b.add_code_eu(mk("left", 1_ms));
  const auto r = b.add_code_eu(mk("right", 3_ms));
  const auto j = b.add_code_eu(mk("join", 1_ms));
  b.precede(a, l).precede(a, r).precede(l, j).precede(r, j);
  const auto t = sys.register_task(b.build());
  sys.activate(t);
  sys.run_for(20_ms);
  ASSERT_EQ(order.size(), 4u);
  EXPECT_EQ(order.front(), "a");
  EXPECT_EQ(order.back(), "join");
  // a(1) + left(1)+right(3) serialized on one CPU + join(1) = 6ms
  EXPECT_DOUBLE_EQ(sys.stats_for(t).response_times.max(), 6e6);
}

TEST(DispatcherTest, RemotePrecedenceCrossesTheNetwork) {
  system sys(2, zero_cost());
  task_builder b("dist");
  b.deadline(100_ms);
  const auto a = b.add_code_eu("a", 0, 1_ms);
  const auto c = b.add_code_eu("c", 1, 1_ms);
  b.precede(a, c, 64);
  const auto t = sys.register_task(b.build());
  sys.activate(t);
  sys.run_for(50_ms);
  EXPECT_EQ(sys.stats_for(t).completions, 1u);
  // 1ms (a) + 10us precedence token + 1ms (c) + 10us shard-completion token
  // back to the home node; zero protocol/interrupt costs.
  EXPECT_DOUBLE_EQ(sys.stats_for(t).response_times.max(), 2e6 + 20e3);
  EXPECT_GE(sys.network().stats().delivered, 2u);
}

TEST(DispatcherTest, ConditionVariableGatesStart) {
  system sys(1, zero_cost());
  task_builder b("gated");
  b.deadline(duration::infinity());
  code_eu e;
  e.name = "gated";
  e.wcet = 1_ms;
  e.waits_all = {condition_id{7}};
  b.add_code_eu(std::move(e));
  const auto t = sys.register_task(b.build());
  sys.activate(t);
  sys.run_for(10_ms);
  EXPECT_EQ(sys.stats_for(t).completions, 0u);
  sys.set_condition(7);
  sys.run_for(10_ms);
  EXPECT_EQ(sys.stats_for(t).completions, 1u);
}

TEST(DispatcherTest, ConditionAlreadySetDoesNotBlock) {
  system sys(1, zero_cost());
  sys.set_condition(7);
  task_builder b("gated");
  code_eu e;
  e.name = "gated";
  e.wcet = 1_ms;
  e.waits_all = {condition_id{7}};
  b.add_code_eu(std::move(e));
  const auto t = sys.register_task(b.build());
  sys.activate(t);
  sys.run_for(2_ms);
  EXPECT_EQ(sys.stats_for(t).completions, 1u);
}

TEST(DispatcherTest, BodyCanSetConditionsForOtherTasks) {
  system sys(1, zero_cost());
  // producer sets condition 3 (declaratively); consumer waits for it.
  task_builder pb("producer");
  code_eu pe;
  pe.name = "produce";
  pe.wcet = 2_ms;
  pe.sets = {condition_id{3}};
  pb.add_code_eu(std::move(pe));
  const auto prod = sys.register_task(pb.build());

  task_builder cb("consumer");
  code_eu ce;
  ce.name = "consume";
  ce.wcet = 1_ms;
  ce.waits_all = {condition_id{3}};
  cb.add_code_eu(std::move(ce));
  const auto cons = sys.register_task(cb.build());

  sys.activate(cons);
  sys.run_for(1_ms);
  EXPECT_EQ(sys.stats_for(cons).completions, 0u);
  sys.activate(prod);
  sys.run_for(10_ms);
  EXPECT_EQ(sys.stats_for(prod).completions, 1u);
  EXPECT_EQ(sys.stats_for(cons).completions, 1u);
}

TEST(DispatcherTest, EarliestOffsetDelaysExecution) {
  system sys(1, zero_cost());
  task_builder b("delayed");
  code_eu e;
  e.name = "delayed";
  e.wcet = 1_ms;
  e.attrs.earliest_offset = 5_ms;
  b.add_code_eu(std::move(e));
  const auto t = sys.register_task(b.build());
  sys.activate(t);
  sys.run_for(20_ms);
  EXPECT_EQ(sys.stats_for(t).completions, 1u);
  EXPECT_DOUBLE_EQ(sys.stats_for(t).response_times.max(), 6e6);  // 5 + 1
}

TEST(DispatcherTest, ExclusiveResourceSerializesAcrossTasks) {
  system sys(1, zero_cost());
  auto make = [&](const std::string& n) {
    task_builder b(n);
    code_eu e;
    e.name = n;
    e.wcet = 2_ms;
    e.resources = {{5, access_mode::exclusive}};
    b.add_code_eu(std::move(e));
    return b.build();
  };
  const auto t1 = sys.register_task(make("r1"));
  const auto t2 = sys.register_task(make("r2"));
  sys.activate(t1);
  sys.activate(t2);
  sys.run_for(20_ms);
  EXPECT_EQ(sys.stats_for(t1).completions, 1u);
  EXPECT_EQ(sys.stats_for(t2).completions, 1u);
  // t2 had to wait for t1's critical EU to release.
  EXPECT_DOUBLE_EQ(sys.stats_for(t2).response_times.max(), 4e6);
  EXPECT_EQ(sys.disp(0).stats().resource_blocks, 1u);
}

TEST(DispatcherTest, SharedResourceModeAllowsConcurrentGrants) {
  system sys(1, zero_cost());
  auto make = [&](const std::string& n, access_mode m) {
    task_builder b(n);
    code_eu e;
    e.name = n;
    e.wcet = 2_ms;
    e.resources = {{5, m}};
    b.add_code_eu(std::move(e));
    return b.build();
  };
  const auto t1 = sys.register_task(make("s1", access_mode::shared));
  const auto t2 = sys.register_task(make("s2", access_mode::shared));
  sys.activate(t1);
  sys.activate(t2);
  sys.run_for(1_ms);
  // Both granted concurrently (CPU still serializes execution, but no
  // resource block was recorded).
  EXPECT_EQ(sys.disp(0).stats().resource_blocks, 0u);
  EXPECT_EQ(sys.disp(0).stats().resource_grants, 2u);
}

TEST(DispatcherTest, ExclusiveWaitsForSharedHolders) {
  system sys(1, zero_cost());
  task_builder sb("sh");
  code_eu se;
  se.name = "sh";
  se.wcet = 2_ms;
  se.resources = {{5, access_mode::shared}};
  sb.add_code_eu(std::move(se));
  const auto ts = sys.register_task(sb.build());

  task_builder xb("ex");
  code_eu xe;
  xe.name = "ex";
  xe.wcet = 1_ms;
  xe.resources = {{5, access_mode::exclusive}};
  xb.add_code_eu(std::move(xe));
  const auto tx = sys.register_task(xb.build());

  sys.activate(ts);
  sys.activate(tx);
  sys.run_for(10_ms);
  EXPECT_DOUBLE_EQ(sys.stats_for(tx).response_times.max(), 3e6);  // 2 wait + 1
}

TEST(DispatcherTest, DeadlineMissDetectedAndInstanceAborted) {
  system sys(1, zero_cost());
  task_builder b("late");
  b.deadline(1_ms).abort_on_deadline_miss(true);
  b.add_code_eu("late", 0, 5_ms);
  const auto t = sys.register_task(b.build());
  sys.activate(t);
  sys.run_for(20_ms);
  EXPECT_EQ(sys.mon().count(monitor_event_kind::deadline_miss), 1u);
  EXPECT_EQ(sys.mon().count(monitor_event_kind::orphan_killed), 1u);
  EXPECT_EQ(sys.stats_for(t).completions, 0u);
}

TEST(DispatcherTest, DeadlineMissWithoutAbortStillCompletes) {
  system sys(1, zero_cost());
  task_builder b("late");
  b.deadline(1_ms);  // no abort
  b.add_code_eu("late", 0, 5_ms);
  const auto t = sys.register_task(b.build());
  sys.activate(t);
  sys.run_for(20_ms);
  EXPECT_EQ(sys.mon().count(monitor_event_kind::deadline_miss), 1u);
  EXPECT_EQ(sys.stats_for(t).completions, 1u);
}

TEST(DispatcherTest, SporadicArrivalLawViolationRejected) {
  system sys(1, zero_cost());
  const auto t = sys.register_task(simple_task(
      "s", 0, 1_ms, 10_ms, arrival_law::sporadic(10_ms)));
  EXPECT_TRUE(sys.activate(t));
  sys.run_for(2_ms);
  EXPECT_FALSE(sys.activate(t));  // 2ms < pseudo-period 10ms
  EXPECT_EQ(sys.mon().count(monitor_event_kind::arrival_law_violation), 1u);
  EXPECT_EQ(sys.mon().count(monitor_event_kind::instance_rejected), 1u);
  sys.run_for(10_ms);
  EXPECT_TRUE(sys.activate(t));  // 12ms >= 10ms
  EXPECT_EQ(sys.stats_for(t).rejections, 1u);
}

TEST(DispatcherTest, ArrivalViolationToleratedWhenConfigured) {
  auto cfg = zero_cost();
  cfg.reject_arrival_violations = false;
  system sys(1, cfg);
  const auto t = sys.register_task(simple_task(
      "s", 0, 1_ms, 100_ms, arrival_law::sporadic(10_ms)));
  sys.activate(t);
  sys.run_for(2_ms);
  EXPECT_TRUE(sys.activate(t));
  EXPECT_EQ(sys.mon().count(monitor_event_kind::arrival_law_violation), 1u);
  sys.run_for(20_ms);
  EXPECT_EQ(sys.stats_for(t).completions, 2u);
}

TEST(DispatcherTest, EarlyTerminationDetected) {
  system sys(1, zero_cost());
  task_builder b("early");
  code_eu e;
  e.name = "early";
  e.wcet = 10_ms;
  e.actual = [](instance_number) { return 2_ms; };
  b.add_code_eu(std::move(e));
  const auto t = sys.register_task(b.build());
  sys.activate(t);
  sys.run_for(20_ms);
  EXPECT_EQ(sys.mon().count(monitor_event_kind::early_termination), 1u);
  EXPECT_DOUBLE_EQ(sys.stats_for(t).response_times.max(), 2e6);
}

TEST(DispatcherTest, LatestStartViolationDetected) {
  system sys(1, zero_cost());
  // A blocker at higher priority occupies the CPU past gated's latest start.
  timing_attrs hi;
  hi.prio = 50;
  hi.preemption_threshold = 50;
  task_builder hb("blocker");
  hb.add_code_eu("blocker", 0, 10_ms, hi);
  const auto thb = sys.register_task(hb.build());

  task_builder b("gated");
  code_eu e;
  e.name = "gated";
  e.wcet = 1_ms;
  e.attrs.latest_offset = 3_ms;
  e.attrs.prio = 1;
  b.add_code_eu(std::move(e));
  const auto t = sys.register_task(b.build());

  sys.activate(thb);
  sys.activate(t);
  sys.run_for(20_ms);
  EXPECT_EQ(sys.mon().count(monitor_event_kind::latest_start_violation), 1u);
  EXPECT_EQ(sys.mon().count_for_task(
                monitor_event_kind::latest_start_violation, t), 1u);
}

TEST(DispatcherTest, NetworkOmissionSuspectedOnDroppedToken) {
  system sys(2, zero_cost());
  task_builder b("dist");
  b.deadline(100_ms);
  const auto a = b.add_code_eu("producer_eu", 0, 1_ms);
  code_eu ce;
  ce.name = "consumer_eu";
  ce.processor = 1;
  ce.wcet = 1_ms;
  ce.attrs.latest_offset = 5_ms;
  const auto c = b.add_code_eu(std::move(ce));
  b.precede(a, c, 64);
  const auto t = sys.register_task(b.build());
  sys.activate(t);
  // Let the create_shard token (the first frame on the 0->1 link) through,
  // then lose the precedence token sent when the producer finishes at 1ms.
  sys.run_for(100_us);
  sys.network().drop_next(0, 1, 1);
  sys.run_for(50_ms);
  EXPECT_EQ(sys.mon().count(monitor_event_kind::latest_start_violation), 1u);
  EXPECT_EQ(sys.mon().count(monitor_event_kind::network_omission_suspected), 1u);
  EXPECT_EQ(sys.stats_for(t).completions, 0u);
}

TEST(DispatcherTest, AsyncInvocationActivatesTarget) {
  system sys(1, zero_cost());
  const auto callee = sys.register_task(simple_task(
      "callee", 0, 1_ms, 50_ms, arrival_law::aperiodic()));
  task_builder b("caller");
  const auto pre = b.add_code_eu("pre", 0, 1_ms);
  const auto inv = b.add_inv_eu("invoke", callee, invocation_kind::asynchronous);
  const auto post = b.add_code_eu("post", 0, 1_ms);
  b.precede(pre, inv).precede(inv, post);
  const auto caller = sys.register_task(b.build());
  sys.activate(caller);
  sys.run_for(20_ms);
  EXPECT_EQ(sys.stats_for(caller).completions, 1u);
  EXPECT_EQ(sys.stats_for(callee).completions, 1u);
  // Async: post does not wait for callee; caller response = 2ms.
  EXPECT_DOUBLE_EQ(sys.stats_for(caller).response_times.max(), 2e6);
}

TEST(DispatcherTest, SyncInvocationWaitsForTarget) {
  system sys(1, zero_cost());
  const auto callee = sys.register_task(simple_task(
      "callee", 0, 3_ms, 50_ms, arrival_law::aperiodic()));
  task_builder b("caller");
  const auto pre = b.add_code_eu("pre", 0, 1_ms);
  const auto inv = b.add_inv_eu("invoke", callee, invocation_kind::synchronous);
  const auto post = b.add_code_eu("post", 0, 1_ms);
  b.precede(pre, inv).precede(inv, post);
  const auto caller = sys.register_task(b.build());
  sys.activate(caller);
  sys.run_for(20_ms);
  EXPECT_EQ(sys.stats_for(caller).completions, 1u);
  // pre(1) + callee(3) + post(1) = 5ms.
  EXPECT_DOUBLE_EQ(sys.stats_for(caller).response_times.max(), 5e6);
}

TEST(DispatcherTest, DispatcherCostsAreChargedToResponseTime) {
  auto cfg = zero_cost();
  cfg.costs.c_act_start = 10_us;
  cfg.costs.c_act_end = 20_us;
  cfg.costs.c_inv_start = 5_us;
  cfg.costs.c_inv_end = 7_us;
  system sys(1, cfg);
  const auto t = sys.register_task(simple_task(
      "t", 0, 1_ms, 50_ms, arrival_law::aperiodic()));
  sys.activate(t);
  sys.run_for(20_ms);
  // c_inv_start + c_act_start + wcet + c_act_end (c_inv_end is charged after
  // the completion timestamp).
  EXPECT_DOUBLE_EQ(sys.stats_for(t).response_times.max(),
                   5e3 + 10e3 + 1e6 + 20e3);
}

TEST(DispatcherTest, LocalPrecedenceCostChargedPerEdge) {
  auto cfg = zero_cost();
  cfg.costs.c_local = 50_us;
  system sys(1, cfg);
  task_builder b("chain");
  const auto a = b.add_code_eu("a", 0, 1_ms);
  const auto c = b.add_code_eu("c", 0, 1_ms);
  b.precede(a, c);
  const auto t = sys.register_task(b.build());
  sys.activate(t);
  sys.run_for(20_ms);
  EXPECT_DOUBLE_EQ(sys.stats_for(t).response_times.max(), 2e6 + 50e3);
}

TEST(DispatcherTest, KernelClockInterruptStealsCpu) {
  auto cfg = zero_cost();
  cfg.kernel_background = true;
  cfg.costs.w_clk = 100_us;
  cfg.costs.p_clk = 1_ms;
  system sys(1, cfg);
  const auto t = sys.register_task(simple_task(
      "t", 0, 5_ms, 50_ms, arrival_law::aperiodic()));
  sys.activate(t);
  sys.run_for(20_ms);
  // Clock interrupts at 1,2,3,4,5(+...) each steal 100us while t runs.
  const double resp = sys.stats_for(t).response_times.max();
  EXPECT_GT(resp, 5e6);
  EXPECT_NEAR(resp, 5e6 + 5 * 100e3, 100e3);
}

TEST(DispatcherTest, CrashedNodeStopsCompleting) {
  system sys(1, zero_cost());
  const auto t = sys.register_task(simple_task(
      "p", 0, 1_ms, 5_ms, arrival_law::periodic(5_ms)));
  sys.run_for(11_ms);
  const auto before = sys.stats_for(t).completions;
  EXPECT_GE(before, 2u);
  sys.crash_node(0);
  sys.run_for(20_ms);
  EXPECT_EQ(sys.stats_for(t).completions, before);
  EXPECT_EQ(sys.mon().count(monitor_event_kind::node_crash), 1u);
}

TEST(DispatcherTest, CrashedRemoteNodeCausesDeadlineMiss) {
  system sys(2, zero_cost());
  task_builder b("dist");
  b.deadline(30_ms);
  const auto a = b.add_code_eu("a", 0, 1_ms);
  const auto c = b.add_code_eu("c", 1, 1_ms);
  b.precede(a, c);
  const auto t = sys.register_task(b.build());
  sys.crash_node(1);
  sys.activate(t);
  sys.run_for(50_ms);
  EXPECT_EQ(sys.stats_for(t).completions, 0u);
  EXPECT_EQ(sys.mon().count(monitor_event_kind::deadline_miss), 1u);
}

TEST(DispatcherTest, DeadlockDetectedOnConditionCycle) {
  system sys(1, zero_cost());
  // a waits cond 1 and would set cond 2; b waits cond 2 and would set cond 1.
  auto make = [&](const std::string& n, condition_id waits, condition_id sets) {
    task_builder b(n);
    code_eu e;
    e.name = n;
    e.wcet = 1_ms;
    e.waits_all = {waits};
    e.sets = {sets};
    b.add_code_eu(std::move(e));
    return b.build();
  };
  const auto ta = sys.register_task(make("a", 1, 2));
  const auto tb = sys.register_task(make("b", 2, 1));
  sys.activate(ta);
  sys.activate(tb);
  sys.run_for(5_ms);
  EXPECT_EQ(sys.detect_deadlocks(), 2u);
  EXPECT_EQ(sys.mon().count(monitor_event_kind::deadlock_suspected), 2u);
}

TEST(DispatcherTest, NoFalseDeadlockOnHealthySystem) {
  system sys(1, zero_cost());
  const auto t = sys.register_task(simple_task(
      "p", 0, 1_ms, 5_ms, arrival_law::periodic(5_ms)));
  sys.run_for(7_ms);
  EXPECT_EQ(sys.detect_deadlocks(), 0u);
  (void)t;
}

TEST(DispatcherTest, NotificationsAreEmittedPerThread) {
  system sys(1, zero_cost());
  const auto t = sys.register_task(simple_task(
      "t", 0, 1_ms, 50_ms, arrival_law::aperiodic()));
  sys.activate(t);
  sys.run_for(10_ms);
  // Atv + Trm for the single EU (no policy attached: counted, not queued).
  EXPECT_EQ(sys.disp(0).stats().notifications, 2u);
  (void)t;
}

TEST(DispatcherTest, TaskStateSharedAcrossInstances) {
  system sys(1, zero_cost());
  task_builder b("counter");
  b.law(arrival_law::periodic(2_ms)).deadline(2_ms);
  code_eu e;
  e.name = "count";
  e.wcet = 1_ms;
  e.body = [](execution_context& ctx) {
    auto& st = ctx.task_state();
    if (!st.has_value()) st = 0;
    st = std::any_cast<int>(st) + 1;
  };
  b.add_code_eu(std::move(e));
  const auto t = sys.register_task(b.build());
  sys.run_for(9_ms);  // instances at 0,2,4,6,8 all complete by t=9
  EXPECT_EQ(std::any_cast<int>(sys.task_state(t)), 5);
}

TEST(DispatcherTest, HigherPriorityTaskPreemptsLower) {
  system sys(1, zero_cost());
  const auto lo = sys.register_task(simple_task(
      "lo", 0, 10_ms, 100_ms, arrival_law::aperiodic(), 1));
  const auto hi = sys.register_task(simple_task(
      "hi", 0, 1_ms, 100_ms, arrival_law::aperiodic(), 50));
  sys.activate(lo);
  sys.activate_at(hi, time_point::at(2_ms));
  sys.run_for(30_ms);
  // hi runs [2,3]; its response is exactly 1ms despite lo running.
  EXPECT_DOUBLE_EQ(sys.stats_for(hi).response_times.max(), 1e6);
  EXPECT_DOUBLE_EQ(sys.stats_for(lo).response_times.max(), 11e6);
}

TEST(DispatcherTest, AppMessagingThroughExecutionContext) {
  system sys(2, zero_cost());
  std::vector<int> got;
  sys.on_channel(42, [&](node_id n, const sim::message& m) {
    EXPECT_EQ(n, 1u);
    got.push_back(*m.payload.get<int>());
  });
  task_builder b("sender");
  code_eu e;
  e.name = "send";
  e.wcet = 1_ms;
  e.body = [](execution_context& ctx) { ctx.send(1, 42, 123, 16); };
  b.add_code_eu(std::move(e));
  const auto t = sys.register_task(b.build());
  sys.activate(t);
  sys.run_for(20_ms);
  EXPECT_EQ(got, (std::vector<int>{123}));
}

// One handler per channel serves every node: each frame reaches it with the
// receiving node's id, a crashed node's net_mngt task passes nothing on,
// and a recovered one does again.
TEST(SystemChannelTest, OneHandlerServesEveryNodeWithItsId) {
  system sys(4, zero_cost());
  // (handler's node id, frame destination, payload), sorted by node id.
  using arrival = std::tuple<node_id, node_id, int>;
  std::vector<arrival> got;
  sys.on_channel(42, [&](node_id n, const sim::message& m) {
    got.emplace_back(n, m.dst, *m.payload.get<int>());
  });
  const auto round = [&](int value) {
    got.clear();
    sys.net(0).send_all(42, value, 16);
    sys.net(3).send(0, 42, value + 1, 16);
    sys.run_for(1_ms);
    std::sort(got.begin(), got.end());
    return got;
  };

  EXPECT_EQ(round(10), (std::vector<arrival>{
                           {0, 0, 11}, {1, 1, 10}, {2, 2, 10}, {3, 3, 10}}));
  sys.crash_node(2);
  EXPECT_TRUE(sys.net(2).halted());
  EXPECT_EQ(round(20),
            (std::vector<arrival>{{0, 0, 21}, {1, 1, 20}, {3, 3, 20}}));
  sys.recover_node(2);
  EXPECT_FALSE(sys.net(2).halted());
  EXPECT_EQ(round(30), (std::vector<arrival>{
                           {0, 0, 31}, {1, 1, 30}, {2, 2, 30}, {3, 3, 30}}));
  EXPECT_EQ(sys.net(2).received(), 2u);
}

TEST(DispatcherTest, DeterministicAcrossRuns) {
  auto run = [] {
    system sys(2, zero_cost());
    const auto a = sys.register_task(simple_task(
        "a", 0, 700_us, 3_ms, arrival_law::periodic(3_ms), 5));
    const auto b = sys.register_task(simple_task(
        "b", 0, 1_ms, 7_ms, arrival_law::periodic(7_ms), 3));
    sys.run_for(100_ms);
    return std::make_tuple(sys.stats_for(a).completions,
                           sys.stats_for(b).completions,
                           sys.cpu(0).stats().context_switches,
                           sys.engine().executed());
  };
  EXPECT_EQ(run(), run());
}

}  // namespace
}  // namespace hades::core
