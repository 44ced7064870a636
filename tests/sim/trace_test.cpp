#include "sim/trace.hpp"

#include <gtest/gtest.h>

namespace hades::sim {
namespace {

using namespace hades::literals;

TEST(TraceTest, RecordsInOrder) {
  trace_recorder tr;
  tr.record(time_point::at(1_us), 0, trace_kind::thread_running, "t1");
  tr.record(time_point::at(2_us), 0, trace_kind::thread_done, "t1");
  ASSERT_EQ(tr.events().size(), 2u);
  EXPECT_EQ(tr.events()[0].subject, "t1");
  EXPECT_EQ(tr.events()[1].kind, trace_kind::thread_done);
}

TEST(TraceTest, DisableSuppressesRecording) {
  trace_recorder tr;
  tr.enable(false);
  tr.record(time_point::zero(), 0, trace_kind::custom, "x");
  EXPECT_TRUE(tr.events().empty());
  tr.enable(true);
  tr.record(time_point::zero(), 0, trace_kind::custom, "x");
  EXPECT_EQ(tr.events().size(), 1u);
}

TEST(TraceTest, FilterByKindAndSubject) {
  trace_recorder tr;
  tr.record(time_point::at(1_us), 0, trace_kind::notification, "sched", "Atv(t2)");
  tr.record(time_point::at(2_us), 0, trace_kind::priority_change, "t2", "5");
  tr.record(time_point::at(3_us), 0, trace_kind::notification, "sched", "Trm(t2)");
  EXPECT_EQ(tr.of_kind(trace_kind::notification).size(), 2u);
  EXPECT_EQ(tr.for_subject("t2").size(), 1u);
}

TEST(TraceTest, RenderLogContainsDetail) {
  trace_recorder tr;
  tr.record(time_point::at(1_us), 3, trace_kind::service_event, "task_a",
            "deadline-miss");
  const auto log = tr.render_log();
  EXPECT_NE(log.find("task_a"), std::string::npos);
  EXPECT_NE(log.find("deadline-miss"), std::string::npos);
  EXPECT_NE(log.find("n3"), std::string::npos);
}

TEST(TraceTest, GanttShowsRunIntervals) {
  trace_recorder tr;
  tr.record(time_point::at(0_us), 0, trace_kind::thread_running, "t1");
  tr.record(time_point::at(5_us), 0, trace_kind::thread_preempted, "t1");
  tr.record(time_point::at(5_us), 0, trace_kind::thread_running, "t2");
  tr.record(time_point::at(10_us), 0, trace_kind::thread_done, "t2");
  const auto gantt =
      tr.render_gantt(time_point::zero(), time_point::at(10_us), 1_us);
  EXPECT_NE(gantt.find("t1"), std::string::npos);
  EXPECT_NE(gantt.find("t2"), std::string::npos);
  EXPECT_NE(gantt.find('#'), std::string::npos);
}

TEST(TraceTest, ClearEmptiesEvents) {
  trace_recorder tr;
  tr.record(time_point::zero(), 0, trace_kind::custom, "x");
  tr.clear();
  EXPECT_TRUE(tr.events().empty());
}

TEST(TraceTest, KindNamesAreStable) {
  EXPECT_EQ(to_string(trace_kind::notification), "notification");
  EXPECT_EQ(to_string(trace_kind::priority_change), "priority-change");
  EXPECT_EQ(to_string(trace_kind::thread_done), "done");
}

// Bound to a sharded runtime, the recorder tags each event with its shard
// and reads back by {time, shard, per-shard sequence} — independent of the
// wall order the shards recorded in (DESIGN.md, "Shard confinement").
TEST(TraceTest, ShardPartitionsMergeByTimeThenShard) {
  sharded_params p;
  p.shards = 2;
  p.lookahead = 100_us;
  p.node_shard = {0, 1};
  auto rt = make_sharded_engine(std::move(p));
  trace_recorder tr;
  tr.bind(*rt);

  rt->at_node(1, time_point::at(1_ms), [&] {
    tr.record(time_point::at(1_ms), 1, trace_kind::custom, "early-shard1");
  });
  rt->at_node(1, time_point::at(2_ms), [&] {
    tr.record(time_point::at(2_ms), 1, trace_kind::custom, "tie-shard1");
  });
  rt->at_node(0, time_point::at(2_ms), [&] {
    tr.record(time_point::at(2_ms), 0, trace_kind::custom, "tie-shard0-a");
    tr.record(time_point::at(2_ms), 0, trace_kind::custom, "tie-shard0-b");
  });
  rt->run_until(time_point::at(3_ms));

  const auto& merged = tr.events();
  ASSERT_EQ(merged.size(), 4u);
  EXPECT_EQ(merged[0].subject, "early-shard1");
  EXPECT_EQ(merged[1].subject, "tie-shard0-a");  // tie: shard 0 first
  EXPECT_EQ(merged[2].subject, "tie-shard0-b");  // per-shard seq preserved
  EXPECT_EQ(merged[3].subject, "tie-shard1");
  tr.clear();
  EXPECT_TRUE(tr.events().empty());
}

// A record made between runs, from outside event execution, belongs to
// shard 0: it sorts before a shard-1 record of the same instant even though
// it was appended later. A time-only key would keep append order.
TEST(TraceTest, OutsideRecordSortsAsShardZero) {
  sharded_params p;
  p.shards = 2;
  p.lookahead = 100_us;
  p.node_shard = {0, 1};
  auto rt = make_sharded_engine(std::move(p));
  trace_recorder tr;
  tr.bind(*rt);

  rt->at_node(1, time_point::at(1_ms), [&] {
    tr.record(time_point::at(1_ms), 1, trace_kind::custom, "in-event");
  });
  rt->run_until(time_point::at(1_ms));
  ASSERT_EQ(tr.events().size(), 1u);
  tr.record(time_point::at(1_ms), 0, trace_kind::custom, "outside");

  const auto& events = tr.events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].subject, "outside");
  EXPECT_EQ(events[1].subject, "in-event");
}

}  // namespace
}  // namespace hades::sim
