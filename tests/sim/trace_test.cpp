// The simulation trace: thread, scheduler and service records kept as
// trace kinds in `core::monitor`'s log beside the monitored events, gated
// by the tracing switch, rendered as a log or a Gantt chart, and never
// shown to a listener (DESIGN.md, "Monitor records").
#include "core/monitor.hpp"

#include <gtest/gtest.h>

#include "sim/runtime.hpp"
#include "util/error.hpp"

namespace hades::core {
namespace {

using namespace hades::literals;

monitor_event ev(time_point at, node_id node, monitor_event_kind kind) {
  monitor_event e;
  e.kind = kind;
  e.at = at;
  e.node = node;
  return e;
}

std::unique_ptr<hades::runtime> two_shards() {
  sim::sharded_params p;
  p.shards = 2;
  p.lookahead = 100_us;
  p.node_shard = {0, 1};  // node n lives on shard n
  return sim::make_sharded_engine(std::move(p));
}

// A monitor with tracing on, unbound: records land on shard 0.
struct traced_monitor {
  traced_monitor() { mon.set_tracing(true); }
  monitor mon;
};

TEST(MonitorTraceTest, RecordsInOrder) {
  traced_monitor t;
  t.mon.trace(time_point::at(1_us), 0, monitor_event_kind::thread_running,
              "t1");
  t.mon.trace(time_point::at(2_us), 0, monitor_event_kind::thread_done, "t1");
  const auto& events = t.mon.events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(t.mon.subject_text(events[0]), "t1");
  EXPECT_EQ(events[0].kind, monitor_event_kind::thread_running);
  EXPECT_EQ(events[1].kind, monitor_event_kind::thread_done);
  EXPECT_EQ(events[1].at, time_point::at(2_us));
}

// The switch gates trace records only: monitored events are kept either way.
TEST(MonitorTraceTest, TracingSwitchGatesTraceRecords) {
  monitor mon;
  EXPECT_FALSE(mon.tracing());
  mon.trace(time_point::zero(), 0, monitor_event_kind::custom, "x");
  mon.record(ev(time_point::zero(), 0, monitor_event_kind::deadline_miss));
  ASSERT_EQ(mon.events().size(), 1u);
  EXPECT_EQ(mon.events()[0].kind, monitor_event_kind::deadline_miss);
  mon.set_tracing(true);
  mon.trace(time_point::zero(), 0, monitor_event_kind::custom, "x");
  EXPECT_EQ(mon.events().size(), 2u);
  EXPECT_EQ(mon.count(monitor_event_kind::custom), 1u);
}

// Readers pick one family, or one subject, by filtering the log.
TEST(MonitorTraceTest, ReadersFilterByKindAndSubject) {
  traced_monitor t;
  monitor& mon = t.mon;
  mon.trace(time_point::at(1_us), 0, monitor_event_kind::notification, "sched",
            "Atv(t2)");
  mon.trace(time_point::at(2_us), 0, monitor_event_kind::priority_change, "t2",
            "5");
  mon.record(ev(time_point::at(2_us), 0, monitor_event_kind::node_crash));
  mon.trace(time_point::at(3_us), 0, monitor_event_kind::notification, "sched",
            "Trm(t2)");
  std::size_t notifications = 0, traced = 0, monitored = 0, t2 = 0;
  for (const auto& e : mon.events()) {
    notifications += e.kind == monitor_event_kind::notification;
    traced += traced_kinds.contains(e.kind);
    monitored += monitored_kinds.contains(e.kind);
    t2 += mon.subject_text(e) == "t2";
  }
  EXPECT_EQ(notifications, 2u);
  EXPECT_EQ(traced, 3u);
  EXPECT_EQ(monitored, 1u);
  EXPECT_EQ(t2, 1u);
}

// `render` prints the kinds it is given and nothing else.
TEST(MonitorTraceTest, RenderPrintsTheKindsAsked) {
  traced_monitor t;
  t.mon.trace(time_point::at(1_us), 3, monitor_event_kind::service_event,
              "task_a", "deadline-miss");
  t.mon.record(ev(time_point::at(2_us), 1, monitor_event_kind::node_crash));
  EXPECT_EQ(t.mon.render(traced_kinds),
            "t=1.000us  n3  [service] task_a : deadline-miss\n");
  EXPECT_EQ(t.mon.render(monitored_kinds),
            "t=2.000us  n1  [node-crash] node1\n");
  EXPECT_EQ(t.mon.render({}), "");
}

TEST(MonitorTraceTest, GanttShowsRunIntervals) {
  traced_monitor t;
  monitor& mon = t.mon;
  mon.trace(time_point::at(0_us), 0, monitor_event_kind::thread_running, "t1");
  mon.trace(time_point::at(5_us), 0, monitor_event_kind::thread_preempted,
            "t1");
  mon.trace(time_point::at(5_us), 0, monitor_event_kind::thread_running, "t2");
  mon.trace(time_point::at(10_us), 0, monitor_event_kind::thread_done, "t2");
  EXPECT_EQ(mon.render_gantt(time_point::zero(), time_point::at(10_us), 1_us),
            "          t=0ns ... t=10.000us  (one column = 1.000us)\n"
            "t1        #####.....\n"
            "t2        .....#####\n");
}

TEST(MonitorTraceTest, ClearEmptiesTheLog) {
  traced_monitor t;
  t.mon.trace(time_point::zero(), 0, monitor_event_kind::custom, "x");
  t.mon.record(ev(time_point::zero(), 0, monitor_event_kind::node_crash));
  t.mon.clear();
  EXPECT_TRUE(t.mon.events().empty());
}

// Trace kinds print as the trace always printed them, and the monitored
// kinds keep their numbers: fuzz coverage and the wire codecs use them.
TEST(MonitorTraceTest, KindNamesAndNumbersAreStable) {
  EXPECT_STREQ(to_string(monitor_event_kind::notification), "notification");
  EXPECT_STREQ(to_string(monitor_event_kind::priority_change),
               "priority-change");
  EXPECT_STREQ(to_string(monitor_event_kind::thread_done), "done");
  EXPECT_STREQ(to_string(monitor_event_kind::service_event), "service");
  EXPECT_EQ(static_cast<int>(monitor_event_kind::deadline_miss), 0);
  EXPECT_EQ(static_cast<int>(monitor_event_kind::node_unsuspected), 11);
  EXPECT_EQ(static_cast<int>(monitor_event_kind::thread_created), 12);
  EXPECT_TRUE(monitored_kinds.contains(monitor_event_kind::node_unsuspected));
  EXPECT_FALSE(monitored_kinds.contains(monitor_event_kind::thread_created));
  EXPECT_TRUE(traced_kinds.contains(monitor_event_kind::custom));
  EXPECT_FALSE(traced_kinds.contains(monitor_event_kind::node_unsuspected));
}

// No listener of either flavour, and no forwarder, ever sees a trace
// record; `record` refuses a trace kind outright.
TEST(MonitorTraceTest, TraceRecordsReachNoListener) {
  auto rt = two_shards();
  monitor mon;
  mon.bind(*rt);
  mon.set_tracing(true);
  std::size_t sync_calls = 0, routed_calls = 0, forwarded = 0;
  mon.subscribe([&](const monitor_event&) { ++sync_calls; });
  mon.subscribe_at_node(0, 100_us, traced_kinds,
                        [&](const monitor_event&) { ++routed_calls; });
  mon.set_forwarder([&](const monitor_event&, node_id, duration) {
    ++forwarded;
    return false;
  });

  const std::size_t before = rt->pending();
  mon.trace(time_point::zero(), 1, monitor_event_kind::service_event, "svc",
            "detail");
  EXPECT_EQ(rt->pending(), before);
  rt->run_until(time_point::at(1_ms));
  EXPECT_EQ(sync_calls, 0u);
  EXPECT_EQ(routed_calls, 0u);
  EXPECT_EQ(forwarded, 0u);
  EXPECT_EQ(mon.events().size(), 1u);
  EXPECT_THROW(
      mon.record(ev(time_point::at(1_ms), 0, monitor_event_kind::custom)),
      invariant_violation);
}

}  // namespace
}  // namespace hades::core
