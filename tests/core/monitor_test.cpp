// Shard-tagged monitor: {time, shard, per-shard sequence} event order,
// deterministic routed subscriptions filtered by kind (DESIGN.md, "Shard
// confinement") and the name table behind fixed-size records. The trace
// records that share the log are tested in tests/sim/trace_test.cpp.
#include "core/monitor.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "sim/runtime.hpp"

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

// Events recorded on different shards read back by {time, shard,
// per-shard sequence} — the cross-shard inbox key, independent of
// recording interleaving.
TEST(MonitorShardTest, MergedStreamOrdersByTimeThenShardThenSeq) {
  auto rt = two_shards();
  monitor mon;
  mon.bind(*rt);

  // Shard 1 records first in wall order, at the same simulated date as
  // shard 0's events — the merge must still put shard 0 first.
  rt->at_node(1, time_point::at(1_ms), [&] {
    mon.record(ev(time_point::at(1_ms), 1, monitor_event_kind::node_crash));
  });
  rt->at_node(0, time_point::at(1_ms) + 200_us, [&] {
    mon.record(ev(time_point::at(1_ms) + 200_us, 0,
                  monitor_event_kind::node_recover));
    mon.record(ev(time_point::at(1_ms) + 200_us, 0,
                  monitor_event_kind::node_crash));
  });
  rt->at_node(1, time_point::at(1_ms) + 200_us, [&] {
    mon.record(ev(time_point::at(1_ms) + 200_us, 1,
                  monitor_event_kind::deadline_miss));
  });
  rt->run_until(time_point::at(2_ms));

  const auto& merged = mon.events();
  ASSERT_EQ(merged.size(), 4u);
  EXPECT_EQ(merged[0].node, 1u);  // earliest date wins
  EXPECT_EQ(merged[0].kind, monitor_event_kind::node_crash);
  // Same date: shard 0 before shard 1, per-shard sequence preserved.
  EXPECT_EQ(merged[1].node, 0u);
  EXPECT_EQ(merged[1].kind, monitor_event_kind::node_recover);
  EXPECT_EQ(merged[2].node, 0u);
  EXPECT_EQ(merged[2].kind, monitor_event_kind::node_crash);
  EXPECT_EQ(merged[3].node, 1u);
  EXPECT_EQ(merged[3].kind, monitor_event_kind::deadline_miss);

  EXPECT_EQ(mon.count(monitor_event_kind::node_crash), 2u);
  EXPECT_EQ(mon.count(monitor_event_kind::deadline_miss), 1u);
}

// A record made between runs, from outside event execution, belongs to
// shard 0: it sorts before a shard-1 record of the same instant even though
// it was appended later. A time-only key would keep append order.
TEST(MonitorShardTest, OutsideRecordSortsAsShardZero) {
  auto rt = two_shards();
  monitor mon;
  mon.bind(*rt);

  rt->at_node(1, time_point::at(1_ms), [&] {
    mon.record(ev(time_point::at(1_ms), 1, monitor_event_kind::node_crash));
  });
  rt->run_until(time_point::at(1_ms));
  ASSERT_EQ(mon.events().size(), 1u);
  mon.record(ev(time_point::at(1_ms), 0, monitor_event_kind::node_recover));

  const auto& events = mon.events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].kind, monitor_event_kind::node_recover);
  EXPECT_EQ(events[1].kind, monitor_event_kind::node_crash);
}

// The in-place sort spans the log's blocks: two shards record 5,000 events
// each (the small first block and three more), with dates that interleave
// across shards and same-instant ties, two records per callback. Serial
// rounds append each shard's window in turn, so the log is out of order,
// and `events()` must read back as a stable sort of the append order by
// {time, shard}.
TEST(MonitorShardTest, OutOfOrderRecordsSortAcrossBlocks) {
  constexpr std::uint64_t kPerShard = 5000;
  auto rt = two_shards();
  monitor mon;
  mon.bind(*rt);
  std::vector<monitor_event> appended;
  mon.subscribe([&](const monitor_event& e) { appended.push_back(e); });

  std::uint64_t seq = 0;  // append order, kept in `instance`
  const auto record_two = [&](node_id n) {
    for (int k = 0; k < 2; ++k) {
      monitor_event e =
          ev(rt->now(), n, k == 0 ? monitor_event_kind::deadline_miss
                                  : monitor_event_kind::instance_rejected);
      e.instance = seq++;
      mon.record(e);
    }
  };
  for (std::uint64_t i = 0; i < kPerShard / 2; ++i) {
    const time_point at = time_point::at(7_us * static_cast<std::int64_t>(i));
    rt->at_node(0, at, [&] { record_two(0); });
    // Every third date ties with shard 0's; the others fall between its.
    rt->at_node(1, at + 3_us * static_cast<std::int64_t>(i % 3),
                [&] { record_two(1); });
  }
  rt->run();

  std::vector<monitor_event> expected = appended;
  std::stable_sort(expected.begin(), expected.end(),
                   [](const monitor_event& a, const monitor_event& b) {
                     return a.at != b.at ? a.at < b.at : a.shard < b.shard;
                   });
  ASSERT_EQ(expected.size(), 2 * kPerShard);
  ASSERT_FALSE(std::equal(expected.begin(), expected.end(),
                          appended.begin(),
                          [](const monitor_event& a, const monitor_event& b) {
                            return a.instance == b.instance;
                          }))
      << "the rounds appended in order: nothing to sort";
  const auto& log = mon.events();
  ASSERT_EQ(log.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    ASSERT_EQ(log[i].instance, expected[i].instance) << "at " << i;
    ASSERT_EQ(log[i].at, expected[i].at) << "at " << i;
    ASSERT_EQ(log[i].shard, expected[i].shard) << "at " << i;
  }
}

// subscribe_at_node redelivers on the home shard at record date + delay —
// the same constant on every backend.
TEST(MonitorShardTest, RoutedSubscriptionArrivesAtRecordDatePlusDelay) {
  auto rt = two_shards();
  monitor mon;
  mon.bind(*rt);

  std::vector<std::pair<time_point, monitor_event_kind>> seen;
  mon.subscribe_at_node(0, 100_us, {monitor_event_kind::node_crash},
                        [&](const monitor_event& e) {
                          seen.emplace_back(rt->now(), e.kind);
                        });

  // Recorded on shard 1 (cross-shard for the home-0 listener), exactly at
  // the lookahead so the redelivery is legal from any shard.
  rt->at_node(1, time_point::at(5_ms), [&] {
    mon.record(ev(time_point::at(5_ms), 1, monitor_event_kind::node_crash));
  });
  rt->run_until(time_point::at(6_ms));

  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0].first, time_point::at(5_ms) + 100_us);
  EXPECT_EQ(seen[0].second, monitor_event_kind::node_crash);
}

// Unbound monitors (no runtime) keep the historical synchronous behaviour
// for both subscription flavours.
TEST(MonitorShardTest, UnboundMonitorDeliversSynchronously) {
  monitor mon;
  std::size_t sync_calls = 0, routed_calls = 0;
  mon.subscribe([&](const monitor_event&) { ++sync_calls; });
  mon.subscribe_at_node(3, 1_ms, {monitor_event_kind::deadline_miss},
                        [&](const monitor_event&) { ++routed_calls; });
  mon.record(ev(time_point::at(1_ms), 0, monitor_event_kind::deadline_miss));
  EXPECT_EQ(sync_calls, 1u);
  EXPECT_EQ(routed_calls, 1u);
  EXPECT_EQ(mon.events().size(), 1u);
}

// A routed listener costs nothing for kinds it does not name: recording
// one schedules no redelivery, on either shard.
TEST(MonitorShardTest, UnwantedKindSchedulesNoRedelivery) {
  auto rt = two_shards();
  monitor mon;
  mon.bind(*rt);
  std::size_t calls = 0;
  mon.subscribe_at_node(0, 100_us, {monitor_event_kind::deadline_miss},
                        [&](const monitor_event&) { ++calls; });

  const std::size_t before = rt->pending();
  mon.record(ev(time_point::zero(), 1, monitor_event_kind::instance_rejected));
  EXPECT_EQ(rt->pending(), before);
  mon.record(ev(time_point::zero(), 1, monitor_event_kind::deadline_miss));
  EXPECT_EQ(rt->pending(), before + 1);
  rt->run_until(time_point::at(1_ms));
  EXPECT_EQ(calls, 1u);
  EXPECT_EQ(mon.events().size(), 2u);
}

// The name table: equal text gets the same id, the empty string is
// `no_name`, and an id reads back its text after later inserts.
TEST(MonitorNameTest, InternCopiesEachTextOnce) {
  monitor mon;
  EXPECT_EQ(mon.intern(""), no_name);
  EXPECT_EQ(mon.name(no_name), "");
  const std::string long_text(48, 'x');
  const name_id a = mon.intern("shed: value density");
  const name_id b = mon.intern(long_text);
  EXPECT_NE(a, no_name);
  EXPECT_NE(a, b);
  for (int i = 0; i < 100; ++i) (void)mon.intern("t" + std::to_string(i));
  EXPECT_EQ(mon.intern(std::string("shed: value") + " density"), a);
  EXPECT_EQ(mon.intern(long_text), b);
  EXPECT_EQ(mon.name(a), "shed: value density");
  EXPECT_EQ(mon.name(b), long_text);
}

}  // namespace
}  // namespace hades::core
