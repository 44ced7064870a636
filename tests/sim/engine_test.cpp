#include "sim/engine.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <vector>

namespace hades::sim {
namespace {

using namespace hades::literals;

TEST(EngineTest, StartsAtZeroAndEmpty) {
  engine e;
  EXPECT_EQ(e.now(), time_point::zero());
  EXPECT_TRUE(e.empty());
  EXPECT_FALSE(e.step());
}

TEST(EngineTest, ExecutesInTimeOrder) {
  engine e;
  std::vector<int> order;
  e.after(3_us, [&] { order.push_back(3); });
  e.after(1_us, [&] { order.push_back(1); });
  e.after(2_us, [&] { order.push_back(2); });
  e.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(e.now(), time_point::at(3_us));
}

TEST(EngineTest, FifoForSameTimestamp) {
  engine e;
  std::vector<int> order;
  e.after(1_us, [&] { order.push_back(1); });
  e.after(1_us, [&] { order.push_back(2); });
  e.after(1_us, [&] { order.push_back(3); });
  e.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EngineTest, NowAdvancesDuringStep) {
  engine e;
  e.after(5_us, [&] { EXPECT_EQ(e.now(), time_point::at(5_us)); });
  e.run();
}

TEST(EngineTest, EventsCanScheduleEvents) {
  engine e;
  int fired = 0;
  e.after(1_us, [&] {
    e.after(1_us, [&] { ++fired; });
  });
  e.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(e.now(), time_point::at(2_us));
}

TEST(EngineTest, CancelPreventsExecution) {
  engine e;
  int fired = 0;
  auto id = e.after(1_us, [&] { ++fired; });
  e.cancel(id);
  e.run();
  EXPECT_EQ(fired, 0);
  EXPECT_TRUE(e.empty());
}

TEST(EngineTest, CancelIsIdempotentAndSafe) {
  engine e;
  int fired = 0;
  auto id = e.after(1_us, [&] { ++fired; });
  e.cancel(id);
  e.cancel(id);
  e.cancel(invalid_event);
  e.run();
  e.cancel(id);  // after the queue drained
  EXPECT_EQ(fired, 0);
}

TEST(EngineTest, CancelOneOfMany) {
  engine e;
  std::vector<int> order;
  e.after(1_us, [&] { order.push_back(1); });
  auto id = e.after(2_us, [&] { order.push_back(2); });
  e.after(3_us, [&] { order.push_back(3); });
  e.cancel(id);
  e.run();
  EXPECT_EQ(order, (std::vector<int>{1, 3}));
}

TEST(EngineTest, RunUntilStopsAndAdvancesClock) {
  engine e;
  std::vector<int> order;
  e.after(1_us, [&] { order.push_back(1); });
  e.after(5_us, [&] { order.push_back(5); });
  const auto n = e.run_until(time_point::at(3_us));
  EXPECT_EQ(n, 1u);
  EXPECT_EQ(order, (std::vector<int>{1}));
  EXPECT_EQ(e.now(), time_point::at(3_us));
  EXPECT_EQ(e.pending(), 1u);
  e.run();
  EXPECT_EQ(order, (std::vector<int>{1, 5}));
}

TEST(EngineTest, RunUntilInclusiveOfBoundary) {
  engine e;
  int fired = 0;
  e.after(3_us, [&] { ++fired; });
  e.run_until(time_point::at(3_us));
  EXPECT_EQ(fired, 1);
}

TEST(EngineTest, SchedulingInPastThrows) {
  engine e;
  e.after(5_us, [] {});
  e.run();
  EXPECT_THROW(e.at(time_point::at(1_us), [] {}), invariant_violation);
}

TEST(EngineTest, SchedulingAtInfinityThrows) {
  engine e;
  EXPECT_THROW(e.at(time_point::infinity(), [] {}), invariant_violation);
}

TEST(EngineTest, AfterInfiniteDurationNeverFires) {
  engine e;
  const auto id = e.after(duration::infinity(), [] { FAIL(); });
  EXPECT_EQ(id, invalid_event);
  EXPECT_TRUE(e.empty());
}

TEST(EngineTest, PendingCountsLiveEventsOnly) {
  engine e;
  auto a = e.after(1_us, [] {});
  e.after(2_us, [] {});
  EXPECT_EQ(e.pending(), 2u);
  e.cancel(a);
  EXPECT_EQ(e.pending(), 1u);
  e.run();
  EXPECT_EQ(e.pending(), 0u);
}

TEST(EngineTest, ExecutedCounter) {
  engine e;
  for (int i = 0; i < 5; ++i) e.after(1_us, [] {});
  e.run();
  EXPECT_EQ(e.executed(), 5u);
}

TEST(EngineTest, MaxEventsBoundsRun) {
  engine e;
  int fired = 0;
  for (int i = 0; i < 10; ++i) e.after(1_us, [&] { ++fired; });
  e.run(3);
  EXPECT_EQ(fired, 3);
}

TEST(EngineTest, CancelAfterFireIsSafe) {
  engine e;
  int fired = 0;
  auto id = e.after(1_us, [&] { ++fired; });
  e.run();
  EXPECT_EQ(fired, 1);
  e.cancel(id);  // already fired: no-op
  e.cancel(id);
  EXPECT_TRUE(e.empty());
}

TEST(EngineTest, StaleIdCannotCancelRecycledSlot) {
  engine e;
  int first = 0;
  int second = 0;
  auto id1 = e.after(1_us, [&] { ++first; });
  e.run();
  // The freed slot is recycled for the next event; the stale id carries the
  // old generation and must not touch it.
  auto id2 = e.after(1_us, [&] { ++second; });
  e.cancel(id1);
  EXPECT_EQ(e.pending(), 1u);
  e.run();
  EXPECT_EQ(first, 1);
  EXPECT_EQ(second, 1);
  e.cancel(id2);
}

TEST(EngineTest, GarbageIdIsIgnored) {
  engine e;
  e.cancel(event_id{0xDEADBEEFCAFEBABEull});  // out-of-range slot
  int fired = 0;
  e.after(1_us, [&] { ++fired; });
  e.cancel(event_id{0xDEADBEEFCAFEBABEull});
  e.run();
  EXPECT_EQ(fired, 1);
}

// --- same-instant lane -----------------------------------------------------

// An event scheduled for the current instant skips the heap, yet runs after
// every event dated now that was scheduled before it: D, scheduled before
// the run, precedes B, which A schedules while running at the same date.
TEST(EngineTest, SameInstantChildRunsAfterEarlierScheduledSiblings) {
  engine e;
  std::vector<char> order;
  const time_point t = time_point::at(5_us);
  e.at(t, [&] {
    order.push_back('A');
    e.at(t, [&] { order.push_back('B'); });
  });
  e.at(t, [&] { order.push_back('D'); });
  e.run();
  EXPECT_EQ(order, (std::vector<char>{'A', 'D', 'B'}));
}

TEST(EngineTest, SameInstantEventsSkipTheHeap) {
  engine e;
  int fired = 0;
  e.at(time_point::at(1_us), [&] {
    for (int i = 0; i < 10; ++i) e.at(e.now(), [&] { ++fired; });
    EXPECT_EQ(e.pool().heap_records, 0u);
  });
  e.run();
  EXPECT_EQ(fired, 10);
}

// A cancelled same-instant event never fires, drops its closure at once,
// and leaves no stale heap record behind.
TEST(EngineTest, SiblingCancelsSameInstantChild) {
  engine e;
  std::vector<char> order;
  auto token = std::make_shared<int>(0);
  event_id child{};
  e.at(time_point::at(1_us), [&] {
    e.at(e.now(), [&] {
      order.push_back('S');
      e.cancel(child);
      EXPECT_EQ(token.use_count(), 1);  // the child's capture is gone
      EXPECT_EQ(e.pool().stale_records, 0u);
    });
    child = e.at(e.now(), [&, held = token] { order.push_back('C'); });
    e.at(e.now(), [&] { order.push_back('E'); });
    EXPECT_EQ(e.pending(), 3u);
  });
  e.run();
  EXPECT_EQ(order, (std::vector<char>{'S', 'E'}));
  EXPECT_TRUE(e.empty());
}

TEST(EngineTest, PendingEmptyAndPeekTimeCountLaneWork) {
  engine e;
  e.run_until(time_point::at(7_us));
  e.at(time_point::at(9_us), [] {});
  const event_id now_event = e.at(e.now(), [] {});
  EXPECT_EQ(e.pending(), 2u);
  EXPECT_FALSE(e.empty());
  EXPECT_EQ(e.peek_time(), time_point::at(7_us));
  e.cancel(now_event);
  EXPECT_EQ(e.pending(), 1u);
  EXPECT_EQ(e.peek_time(), time_point::at(9_us));
  e.run();
  EXPECT_TRUE(e.empty());
  EXPECT_EQ(e.peek_time(), time_point::infinity());
}

TEST(EngineTest, RunUntilDrainsSameInstantChains) {
  engine e;
  const time_point t = time_point::at(3_us);
  int links = 0;
  std::function<void()> link = [&] {
    if (++links < 100) e.at(e.now(), link);
  };
  e.at(t, link);
  e.at(t + 1_ns, [] {});
  EXPECT_EQ(e.run_until(t), 100u);
  EXPECT_EQ(links, 100);
  EXPECT_EQ(e.now(), t);
  EXPECT_EQ(e.pending(), 1u);
  // Scheduled from outside any event at the settled date: still due there.
  e.at(t, [&] { ++links; });
  EXPECT_EQ(e.run_until(t), 1u);
  EXPECT_EQ(links, 101);
}

// --- pool behaviour ---------------------------------------------------------

TEST(EnginePoolTest, SmallClosuresNeverTouchTheHeap) {
  const std::uint64_t before = event_callback::heap_allocations();
  engine e;
  int sink = 0;
  for (int i = 0; i < 1000; ++i) e.after(1_us, [&sink, i] { sink += i; });
  // Every link of a periodic_at_node chain (heartbeats, clock-sync rounds,
  // periodic activations) is an inline closure too, and stays drift-free.
  std::vector<time_point> ticks;
  e.periodic_at_node(
      3, time_point::at(1_us), 10_us, [&] { ticks.push_back(e.now()); },
      time_point::at(1_ms));
  e.run();
  EXPECT_EQ(event_callback::heap_allocations(), before);
  EXPECT_EQ(sink, 999 * 1000 / 2);
  ASSERT_EQ(ticks.size(), 100u);  // 1us, 11us, ..., 991us
  for (std::size_t k = 0; k < ticks.size(); ++k)
    EXPECT_EQ(ticks[k],
              time_point::at(1_us + 10_us * static_cast<std::int64_t>(k)));
}

// Seed regression: cancelled ids used to pile up in a tombstone set (and
// pending-id set) until their queue entries drained, so long periodic runs
// grew without bound. Stale heap records are now compacted.
TEST(EnginePoolTest, CancelledFarFutureEventsDoNotAccumulate) {
  engine e;
  for (int round = 0; round < 200; ++round) {
    std::vector<event_id> ids;
    ids.reserve(100);
    for (int i = 0; i < 100; ++i)
      ids.push_back(e.after(duration::seconds(1000 + i), [] {}));
    for (event_id id : ids) e.cancel(id);
  }
  EXPECT_TRUE(e.empty());
  EXPECT_EQ(e.pending(), 0u);
  const auto pool = e.pool();
  EXPECT_GT(pool.compactions, 0u);
  EXPECT_LT(pool.heap_records, 1000u);  // 20k cancels leave bounded residue
  EXPECT_LE(pool.slabs, 2u);            // slots recycled, not accreted
}

// The stale-record purge walks the whole heap, so it must run about once
// per standing population's worth of cancels, not every few cancels:
// bench_engine's churn workload, counted instead of timed.
TEST(EnginePoolTest, ChurnCompactsOncePerStandingPopulation) {
  constexpr std::size_t standing = 4096;
  constexpr std::size_t ops = 200'000;
  engine e;
  std::uint32_t rng = 0x9e3779b9u;
  const auto next_deadline = [&rng] {
    rng = rng * 1664525u + 1013904223u;
    return duration::microseconds(100 + (rng >> 8) % 900);
  };
  std::vector<event_id> timers;
  timers.reserve(standing);
  for (std::size_t s = 0; s < standing; ++s)
    timers.push_back(e.after(next_deadline(), [] {}));
  for (std::size_t op = 0; op < ops; ++op) {
    rng = rng * 1664525u + 1013904223u;
    event_id& t = timers[rng % standing];
    e.cancel(t);
    t = e.after(next_deadline(), [] {});
    if (op % 512 == 511) e.run_until(e.now() + 5_us);
  }
  EXPECT_LE(e.pool().compactions, 4 * ops / standing);  // 195
}

}  // namespace
}  // namespace hades::sim
