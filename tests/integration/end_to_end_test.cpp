// End-to-end integration: distributed HEUGs + schedulers + services
// composed the way an application would use HADES (the paper's whole point:
// the pieces are designed to be compatible, section 2.1).
#include <gtest/gtest.h>

#include "hades.hpp"

namespace hades {
namespace {

using namespace hades::literals;

core::system::config platform() {
  core::system::config cfg;
  cfg.costs = core::cost_model::chorus_like();
  cfg.net.delta_min = 20_us;
  cfg.net.delta_max = 80_us;
  cfg.clock_drift = {3e-5, -2e-5, 1e-5};
  return cfg;
}

TEST(EndToEndTest, DistributedPipelineWithRealCostsMeetsDeadlines) {
  core::system sys(3, platform());
  core::task_builder pipe("pipeline");
  pipe.deadline(9_ms).law(core::arrival_law::periodic(10_ms));
  const auto a = pipe.add_code_eu("stage_a", 0, 1_ms);
  const auto b = pipe.add_code_eu("stage_b", 1, 2_ms);
  const auto c = pipe.add_code_eu("stage_c", 2, 1_ms);
  pipe.precede(a, b, 256).precede(b, c, 128);
  const auto id = sys.register_task(pipe.build());
  for (node_id n = 0; n < 3; ++n)
    sys.attach_policy(n, std::make_shared<sched::edf_policy>());
  sys.run_for(1_s);
  // Activations at 0, 10, ..., 1000ms inclusive; the last is in flight.
  EXPECT_EQ(sys.stats_for(id).activations, 101u);
  EXPECT_EQ(sys.stats_for(id).completions, 100u);
  EXPECT_EQ(sys.mon().count(core::monitor_event_kind::deadline_miss), 0u);
  // Response includes both hops + per-hop interrupt/protocol costs.
  EXPECT_GT(sys.stats_for(id).response_times.max(), 4e6);
  EXPECT_LT(sys.stats_for(id).response_times.max(), 9e6);
}

TEST(EndToEndTest, ServicesComposeOnOneSystem) {
  core::system sys(3, platform());
  svc::clock_sync_service::params cp;
  cp.resync_period = 100_ms;
  cp.collect_window = 1_ms;
  svc::clock_sync_service clocks(sys, cp);
  clocks.start();
  svc::fault_detector fd(sys, {10_ms, 25_ms});
  fd.start();
  svc::reliable_broadcast::params bp;
  bp.total_order = true;
  bp.stability_delay = 2_ms;
  svc::reliable_broadcast bcast(sys, bp);

  const auto t = sys.register_task([&] {
    core::task_builder b("beat");
    b.deadline(20_ms).law(core::arrival_law::periodic(20_ms));
    core::code_eu e;
    e.name = "beat";
    e.processor = 0;
    e.wcet = 500_us;
    e.body = [&bcast](core::execution_context& ctx) {
      bcast.broadcast(ctx.node(), ctx.now().nanoseconds());
    };
    b.add_code_eu(std::move(e));
    return b.build();
  }());
  sys.attach_policy(0, std::make_shared<sched::edf_policy>());
  sys.run_for(1_s);

  EXPECT_EQ(sys.stats_for(t).completions, 50u);
  EXPECT_EQ(bcast.delivery_log(1), bcast.delivery_log(2));
  EXPECT_EQ(bcast.delivery_log(1).size(), 50u);
  EXPECT_LE(clocks.max_skew(), 100_us);
  EXPECT_FALSE(fd.suspects(1, 0));
  EXPECT_EQ(sys.mon().count(core::monitor_event_kind::deadline_miss), 0u);
}

TEST(EndToEndTest, CrashTriggersDetectionModeSwitchAndOrphanCascade) {
  core::system sys(3, platform());
  svc::fault_detector fd(sys, {10_ms, 25_ms});
  fd.start();
  svc::mode_manager modes(sys, {.misses_for_degraded = 1,
                                .misses_for_safe = 5,
                                .crashes_for_safe = 1});
  svc::dependency_tracker deps;
  deps.attach(sys);

  core::task_builder pipe("dist");
  pipe.deadline(15_ms).law(core::arrival_law::periodic(20_ms));
  const auto a = pipe.add_code_eu("src_eu", 0, 1_ms);
  const auto b = pipe.add_code_eu("dst_eu", 1, 1_ms);
  pipe.precede(a, b, 64);
  const auto id = sys.register_task(pipe.build());
  for (node_id n = 0; n < 3; ++n)
    sys.attach_policy(n, std::make_shared<sched::edf_policy>());

  sys.engine().at(time_point::at(205_ms), [&] { sys.crash_node(1); });
  sys.run_for(500_ms);

  EXPECT_TRUE(fd.suspects(0, 1));
  EXPECT_EQ(modes.mode(), svc::op_mode::safe);
  // Instances activated after the crash never complete (dst node dead).
  const auto& st = sys.stats_for(id);
  EXPECT_GT(st.activations, st.completions);
  EXPECT_GT(sys.mon().count(core::monitor_event_kind::deadline_miss), 0u);
}

TEST(EndToEndTest, ReplicatedStateMachineDrivenByPeriodicTask) {
  core::system sys(4, platform());
  svc::fault_detector fd(sys, {5_ms, 12_ms});
  fd.start();
  svc::replicated_service log(sys, fd,
                              {svc::replication_style::passive, {1, 2, 3}});
  const auto t = sys.register_task([&] {
    core::task_builder b("producer");
    b.deadline(10_ms).law(core::arrival_law::periodic(10_ms));
    core::code_eu e;
    e.name = "producer";
    e.processor = 0;
    e.wcet = 300_us;
    e.body = [&log](core::execution_context& ctx) {
      log.submit(ctx.node(), 1);
    };
    b.add_code_eu(std::move(e));
    return b.build();
  }());
  sys.attach_policy(0, std::make_shared<sched::edf_policy>());
  sys.engine().at(time_point::at(250_ms), [&] { sys.crash_node(1); });
  sys.run_for(1_s);

  EXPECT_EQ(sys.stats_for(t).completions, 100u);
  EXPECT_EQ(log.current_primary(), 2u);
  // No request submitted after promotion is lost; in-flight ones during the
  // detector window may be. Allow that bounded gap (12ms + margin => <= 3).
  const auto applied = log.replica_state(2).applied_seq;
  EXPECT_GE(applied, 97u);
  EXPECT_LE(applied, 100u);
}

TEST(EndToEndTest, DeterministicReplayOfAComplexSystem) {
  auto run = [] {
    core::system sys(3, platform());
    svc::fault_detector fd(sys, {10_ms, 25_ms});
    fd.start();
    core::task_builder pipe("p");
    pipe.deadline(15_ms).law(core::arrival_law::periodic(7_ms));
    const auto a = pipe.add_code_eu("pa", 0, 1_ms);
    const auto b = pipe.add_code_eu("pb", 1, 2_ms);
    pipe.precede(a, b, 64);
    const auto id = sys.register_task(pipe.build());
    for (node_id n = 0; n < 3; ++n)
      sys.attach_policy(n, std::make_shared<sched::edf_policy>());
    sys.network().set_omission_rate(0.05);
    sys.run_for(700_ms);
    std::size_t monitored = 0;
    for (const auto& e : sys.mon().events())
      monitored += core::monitored_kinds.contains(e.kind);
    return std::make_tuple(sys.stats_for(id).completions, monitored,
                           sys.network().stats().dropped,
                           sys.engine().executed());
  };
  EXPECT_EQ(run(), run());
}

TEST(EndToEndTest, SyncInvocationAcrossNodes) {
  core::system sys(2, platform());
  // callee lives on node 1.
  core::task_builder cb("callee");
  cb.deadline(50_ms).law(core::arrival_law::aperiodic());
  cb.add_code_eu("callee_eu", 1, 2_ms);
  const auto callee = sys.register_task(cb.build());
  // caller on node 0 invokes it synchronously mid-graph.
  core::task_builder b("caller");
  b.deadline(100_ms).law(core::arrival_law::aperiodic());
  const auto pre = b.add_code_eu("pre", 0, 1_ms);
  const auto inv = b.add_inv_eu("call", callee,
                                core::invocation_kind::synchronous);
  const auto post = b.add_code_eu("post", 0, 1_ms);
  b.precede(pre, inv).precede(inv, post);
  const auto caller = sys.register_task(b.build());
  for (node_id n = 0; n < 2; ++n)
    sys.attach_policy(n, std::make_shared<sched::edf_policy>());
  sys.activate(caller);
  sys.run_for(100_ms);
  EXPECT_EQ(sys.stats_for(caller).completions, 1u);
  EXPECT_EQ(sys.stats_for(callee).completions, 1u);
  // Response covers pre + callee (remote, incl. network + sync return) +
  // post, with platform costs: strictly more than the 4ms of pure work.
  EXPECT_GT(sys.stats_for(caller).response_times.max(), 4e6);
}

// The monitor's text, pinned: one small system per fault class, each event
// written by its real record site, covering all 12 monitored kinds (three
// wordings of `instance_rejected` and two of `orphan_killed`). The expected
// text was rendered by the string-carrying records that interned names
// replaced; any drift in a subject or detail fails here. Tracing is on, so
// each render names the monitored kinds.
std::string render_every_kind() {
  core::system::config cfg;
  cfg.costs = core::cost_model::zero();
  cfg.kernel_background = false;
  cfg.net.delta_min = 10_us;
  cfg.net.delta_max = 10_us;
  cfg.net.per_byte = 0_ns;
  std::string out;
  {  // a deadline miss aborts its instance and kills the started thread
    core::system sys(1, cfg);
    core::task_builder b("late");
    b.deadline(1_ms).abort_on_deadline_miss(true);
    b.add_code_eu("late_eu", 0, 5_ms);
    sys.activate(sys.register_task(b.build()));
    sys.run_for(20_ms);
    out += sys.mon().render(core::monitored_kinds);
  }
  {  // a sporadic task re-activated inside its pseudo-period
    core::system sys(1, cfg);
    core::task_builder b("sporadic");
    b.deadline(10_ms).law(core::arrival_law::sporadic(10_ms));
    b.add_code_eu("sporadic_eu", 0, 1_ms);
    const auto t = sys.register_task(b.build());
    sys.activate(t);
    sys.run_for(2_ms);
    sys.activate(t);
    sys.run_for(10_ms);
    out += sys.mon().render(core::monitored_kinds);
  }
  {  // a thread that ends before its wcet
    core::system sys(1, cfg);
    core::task_builder b("early");
    core::code_eu e;
    e.name = "early_eu";
    e.wcet = 10_ms;
    e.actual = [](instance_number) { return 2_ms; };
    b.add_code_eu(std::move(e));
    sys.activate(sys.register_task(b.build()));
    sys.run_for(20_ms);
    out += sys.mon().render(core::monitored_kinds);
  }
  {  // a lost precedence token: latest start passes, omission suspected
    core::system sys(2, cfg);
    core::task_builder b("dist");
    b.deadline(100_ms);
    const auto a = b.add_code_eu("producer_eu", 0, 1_ms);
    core::code_eu ce;
    ce.name = "consumer_eu";
    ce.processor = 1;
    ce.wcet = 1_ms;
    ce.attrs.latest_offset = 5_ms;
    const auto c = b.add_code_eu(std::move(ce));
    b.precede(a, c, 64);
    sys.activate(sys.register_task(b.build()));
    sys.run_for(100_us);
    sys.network().drop_next(0, 1, 1);
    sys.run_for(50_ms);
    out += sys.mon().render(core::monitored_kinds);
  }
  {  // two tasks waiting on each other's condition
    core::system sys(1, cfg);
    const auto make = [&](const std::string& n, condition_id waits,
                          condition_id sets) {
      core::task_builder b(n);
      core::code_eu e;
      e.name = n + "_eu";
      e.wcet = 1_ms;
      e.waits_all = {waits};
      e.sets = {sets};
      b.add_code_eu(std::move(e));
      return sys.register_task(b.build());
    };
    sys.activate(make("a", 1, 2));
    sys.activate(make("b", 2, 1));
    sys.run_for(5_ms);
    sys.detect_deadlocks();
    out += sys.mon().render(core::monitored_kinds);
  }
  {  // the traffic edge's two rejections: admission control, then a shed
    core::system sys(1, cfg);
    core::task_builder b("gw1_c2");
    b.deadline(10_ms);
    b.add_code_eu("serve", 0, 2_ms);
    const auto t = sys.register_task(b.build());
    sys.disp(0).set_admission_hook([](task_id, time_point) { return false; });
    sys.activate(t);
    sys.disp(0).set_admission_hook({});
    sys.run_for(1_ms);
    sys.activate(t);
    sys.run_for(1_ms);
    sys.abort_instance(t, 0, "shed: value density", /*as_rejection=*/true);
    sys.run_for(5_ms);
    out += sys.mon().render(core::monitored_kinds);
  }
  {  // a crash and recovery, seen by the heartbeat detector
    core::system sys(2, cfg);
    svc::fault_detector fd(sys, {10_ms, 25_ms});
    fd.start();
    sys.run_for(50_ms);
    sys.crash_node(1);
    sys.run_for(50_ms);
    sys.recover_node(1);
    sys.run_for(50_ms);
    out += sys.mon().render(core::monitored_kinds);
  }
  return out;
}

TEST(MonitorTextTest, EveryKindRendersItsPinnedText) {
  EXPECT_EQ(
      render_every_kind(),
      "t=1.000ms  n0  [deadline-miss] late\n"
      "t=1.000ms  n0  [orphan-killed] late_eu : deadline miss\n"
      "t=2.000ms  n0  [arrival-law-violation] sporadic : gap 2.000ms < 10.000ms\n"
      "t=2.000ms  n0  [instance-rejected] sporadic : arrival-law violation\n"
      "t=2.000ms  n0  [early-termination] early_eu : actual 2.000ms < wcet 10.000ms\n"
      "t=5.000ms  n1  [latest-start-violation] consumer_eu\n"
      "t=5.000ms  n1  [network-omission-suspected] consumer_eu : remote precedence from 'producer_eu' missing\n"
      "t=5.000ms  n0  [deadlock-suspected] a_eu : wait-for cycle\n"
      "t=5.000ms  n0  [deadlock-suspected] b_eu : wait-for cycle\n"
      "t=0ns  n0  [instance-rejected] gw1_c2 : admission control\n"
      "t=2.000ms  n0  [orphan-killed] serve : shed: value density\n"
      "t=2.000ms  n0  [instance-rejected] gw1_c2 : shed: value density\n"
      "t=50.000ms  n1  [node-crash] node1\n"
      "t=80.000ms  n0  [node-suspected] node1 : observer node0\n"
      "t=100.000ms  n1  [node-recover] node1\n"
      "t=110.010ms  n0  [node-unsuspected] node1 : observer node0\n");
}

}  // namespace
}  // namespace hades
