// Runtime conformance battery (DESIGN.md, "Runtime factory & injector
// API"): every backend in `runtime::registered_backends()` — sim, sharded,
// realtime — must honour the same observable contract, because services
// and scenarios are written against `hades::runtime` and get re-run
// unchanged on all of them. Each test runs once per backend via the
// parameterised fixture; dates are milliseconds past a safety base so the
// real-clock backend (whose `now()` advances on its own) sees them in the
// future, while the simulated backends are unaffected.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "rt/realtime_engine.hpp"
#include "sim/runtime.hpp"
#include "util/error.hpp"

namespace hades {
namespace {

using namespace hades::literals;

constexpr std::size_t conf_nodes = 8;

runtime::options options_for(const std::string& backend) {
  runtime::options o;
  o.backend = backend;
  o.node_count = conf_nodes;
  if (backend == "sharded") {
    o.shards = 2;
    o.lookahead = duration::microseconds(10);
  }
  return o;
}

class RuntimeConformance : public ::testing::TestWithParam<std::string> {
 protected:
  void SetUp() override { rt_ = runtime::make(options_for(GetParam())); }

  /// Dates must land ahead of the realtime backend's moving clock; 50ms
  /// absorbs test-process startup jitter without slowing the sim backends
  /// (which execute virtual time instantly).
  [[nodiscard]] time_point base() const { return rt_->now() + 50_ms; }

  std::unique_ptr<runtime> rt_;
};

TEST_P(RuntimeConformance, RegistryListsBackend) {
  const auto names = runtime::registered_backends();
  EXPECT_NE(std::find(names.begin(), names.end(), GetParam()), names.end());
  ASSERT_NE(rt_, nullptr);
  EXPECT_TRUE(rt_->empty());
  EXPECT_EQ(rt_->pending(), 0u);
}

TEST_P(RuntimeConformance, TimerDateOrderingAndSameDateFifo) {
  const time_point t0 = base();
  std::vector<int> order;
  rt_->at(t0 + 2_ms, [&] { order.push_back(3); });
  rt_->at(t0 + 1_ms, [&] { order.push_back(1); });  // same date, added first
  rt_->at(t0 + 1_ms, [&] { order.push_back(2); });  // ... fires second
  rt_->run_until(t0 + 3_ms);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

// Same-instant work runs after every event already dated that instant: D,
// scheduled before the run, precedes B, which A schedules at its own date.
// The date is captured, not read from now(): a real clock reads the late
// firing instant.
TEST_P(RuntimeConformance, SameInstantChildRunsAfterEarlierScheduledSiblings) {
  const time_point t = base() + 1_ms;
  std::vector<char> order;
  rt_->at(t, [&, t] {
    order.push_back('A');
    rt_->at(t, [&] { order.push_back('B'); });
  });
  rt_->at(t, [&] { order.push_back('D'); });
  rt_->run_until(t + 1_ms);
  EXPECT_EQ(order, (std::vector<char>{'A', 'D', 'B'}));
  EXPECT_TRUE(rt_->empty());
}

TEST_P(RuntimeConformance, SiblingCancelsSameInstantChild) {
  const time_point t = base() + 1_ms;
  std::vector<char> order;
  sim::event_id child = sim::invalid_event;
  rt_->at(t, [&, t] {
    rt_->at(t, [&] {
      order.push_back('S');
      rt_->cancel(child);
    });
    child = rt_->at(t, [&] { order.push_back('C'); });
    rt_->at(t, [&] { order.push_back('E'); });
  });
  rt_->run_until(t + 1_ms);
  EXPECT_EQ(order, (std::vector<char>{'S', 'E'}));
  EXPECT_TRUE(rt_->empty());
  EXPECT_EQ(rt_->pending(), 0u);
}

TEST_P(RuntimeConformance, PendingAndEmptyCountSameInstantWork) {
  const time_point t = base() + 1_ms;
  std::size_t inside = 0;
  bool empty_inside = true;
  rt_->at(t, [&, t] {
    rt_->at(t, [] {});
    rt_->at(t, [] {});
    inside = rt_->pending();
    empty_inside = rt_->empty();
  });
  rt_->run_until(t + 1_ms);
  EXPECT_EQ(inside, 2u);
  EXPECT_FALSE(empty_inside);
  EXPECT_TRUE(rt_->empty());
  EXPECT_EQ(rt_->executed(), 3u);
}

TEST_P(RuntimeConformance, RunUntilDrainsSameInstantChains) {
  // A chain of zero-delay links, each scheduling the next at its own date,
  // like a zero-cost protocol step handing a frame to its interrupt.
  const time_point t = base() + 1_ms;
  int links = 0;
  std::function<void()> link = [&] {
    if (++links < 50) rt_->at(t, link);
  };
  rt_->at(t, link);
  rt_->run_until(t);
  EXPECT_EQ(links, 50);
  EXPECT_TRUE(rt_->empty());
}

TEST_P(RuntimeConformance, CancelPreventsAndIsIdempotent) {
  const time_point t0 = base();
  int fired = 0;
  const auto keep = rt_->at(t0 + 1_ms, [&] { ++fired; });
  const auto drop = rt_->at(t0 + 1_ms, [&] { ADD_FAILURE(); });
  rt_->cancel(drop);
  rt_->cancel(drop);                // double cancel: no-op
  rt_->cancel(sim::invalid_event);  // invalid id: no-op
  rt_->run_until(t0 + 2_ms);
  EXPECT_EQ(fired, 1);
  // Cancel after fire: the id is stale, later events are untouched.
  rt_->cancel(keep);
  int late = 0;
  rt_->at(rt_->now() + 1_ms, [&] { ++late; });
  rt_->run_until(rt_->now() + 2_ms);
  EXPECT_EQ(late, 1);
}

TEST_P(RuntimeConformance, PeriodicAtNodeIsDriftFreeAndBounded) {
  // The one periodic primitive: a chain of dated one-shot events, each link
  // run on the shard owning the node. `until` is exclusive.
  const time_point t0 = base();
  constexpr node_id n = 7;
  // A chain that starts at its bound, or never ticks, arms nothing.
  rt_->periodic_at_node(n, t0 + 5_ms, 1_ms, [] { ADD_FAILURE(); }, t0 + 5_ms);
  rt_->periodic_at_node(n, t0 + 1_ms, duration::infinity(),
                        [] { ADD_FAILURE(); });
  EXPECT_TRUE(rt_->empty());
  std::vector<time_point> dates;
  bool in_event = true;
  bool on_owner = true;
  rt_->periodic_at_node(
      n, t0 + 1_ms, 1_ms,
      [&] {
        dates.push_back(rt_->now());
        in_event = in_event && rt_->in_event_context();
        on_owner = on_owner && rt_->executing_shard() == rt_->shard_of(n);
      },
      t0 + 5_ms);
  rt_->run_until(t0 + 10_ms);
  ASSERT_EQ(dates.size(), 4u);  // t0 + 1ms .. t0 + 4ms
  EXPECT_TRUE(in_event);
  EXPECT_TRUE(on_owner);
  // A real clock reads the (late) firing instant, not the link's date.
  if (GetParam() != "realtime") {
    for (std::size_t k = 0; k < dates.size(); ++k)
      EXPECT_EQ(dates[k], t0 + 1_ms * static_cast<std::int64_t>(k + 1));
  }
  EXPECT_TRUE(rt_->empty());
}

TEST_P(RuntimeConformance, InfiniteTimersNeverArm) {
  EXPECT_EQ(rt_->after(duration::infinity(), [] { ADD_FAILURE(); }),
            sim::invalid_event);
  EXPECT_TRUE(rt_->empty());
}

TEST_P(RuntimeConformance, RemovedPrimitivesThrow) {
  // No backend has native periodic or batched events: the four declarations
  // e2ebench's wrapper still names throw and arm nothing.
  const time_point t0 = base();
  EXPECT_THROW(rt_->schedule_periodic(t0 + 1_ms, 1_ms, [] { ADD_FAILURE(); }),
               invariant_violation);
  sim::event_batch b;
  EXPECT_THROW((void)rt_->open_batch(t0 + 1_ms), invariant_violation);
  EXPECT_THROW(rt_->batch_add(b, [] { ADD_FAILURE(); }), invariant_violation);
  EXPECT_THROW(rt_->commit(b), invariant_violation);
  EXPECT_TRUE(rt_->empty());
  EXPECT_EQ(rt_->pending(), 0u);
}

TEST_P(RuntimeConformance, InEventContextOnlyInsideCallbacks) {
  EXPECT_FALSE(rt_->in_event_context());
  bool inside = false;
  rt_->at(base() + 1_ms, [&] { inside = rt_->in_event_context(); });
  rt_->run_until(base() + 2_ms);
  EXPECT_TRUE(inside);
  EXPECT_FALSE(rt_->in_event_context());
}

TEST_P(RuntimeConformance, AtNodeExecutesOnOwningShard) {
  // Cross-shard dates must respect the backend's lookahead; ms-scale dates
  // clear every configured lookahead here. With one process each at_node
  // callback must observe the owning shard as executing.
  const time_point t0 = base();
  std::vector<std::pair<node_id, std::uint32_t>> seen;
  const node_id probes[] = {0, static_cast<node_id>(conf_nodes - 1)};
  for (node_id n : probes)
    rt_->at_node(n, t0 + 1_ms,
                 [&seen, this, n] { seen.emplace_back(n, rt_->executing_shard()); });
  rt_->run_until(t0 + 2_ms);
  ASSERT_EQ(seen.size(), 2u);
  for (const auto& [n, shard] : seen) EXPECT_EQ(shard, rt_->shard_of(n));
  EXPECT_GE(rt_->shard_count(), 1u);
}

TEST_P(RuntimeConformance, RunUntilDrainsTransitiveWork) {
  // The draining guarantee: events scheduled by events dated <= t also run
  // before run_until(t) returns, and the clock settles at (or, for a
  // real-clock backend, past) t.
  const time_point t0 = base();
  std::vector<int> order;
  rt_->at(t0 + 1_ms, [&] {
    order.push_back(1);
    rt_->at(t0 + 2_ms, [&] { order.push_back(2); });
  });
  rt_->run_until(t0 + 3_ms);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_GE(rt_->now(), t0 + 3_ms);
  EXPECT_TRUE(rt_->empty());
}

TEST_P(RuntimeConformance, RunMaxEventsOvershootsAtMostOneAtom) {
  const time_point t0 = base();
  int fired = 0;
  for (int i = 1; i <= 5; ++i)
    rt_->at(t0 + 1_ms * i, [&] { ++fired; });
  const std::size_t first = rt_->run(3);
  // May overshoot by the backend's atom of progress but never stops early.
  EXPECT_GE(first, 3u);
  EXPECT_LE(first, 5u);
  EXPECT_EQ(first, static_cast<std::size_t>(fired));
  const std::size_t rest = rt_->run();
  EXPECT_EQ(first + rest, 5u);
  EXPECT_EQ(fired, 5);
  EXPECT_TRUE(rt_->empty());
}

TEST_P(RuntimeConformance, ExecutedCountsAcrossRuns) {
  const time_point t0 = base();
  for (int i = 0; i < 3; ++i)
    rt_->at(t0 + 1_ms + 10_us * i, [] {});
  rt_->run_until(t0 + 2_ms);
  EXPECT_EQ(rt_->executed(), 3u);
  rt_->at(rt_->now() + 1_ms, [] {});
  rt_->run_until(rt_->now() + 2_ms);
  EXPECT_EQ(rt_->executed(), 4u);
}

INSTANTIATE_TEST_SUITE_P(
    AllBackends, RuntimeConformance,
    ::testing::Values("sim", "sharded", "realtime"),
    [](const ::testing::TestParamInfo<std::string>& info) {
      return info.param;
    });

TEST(RealtimeEngine, CrossThreadArmDuringWaitLosesNoEvents) {
  // Regression: the run loop reads the heap head, waits with the mutex
  // released, and used to pop blindly on wake-up. A transport thread arming
  // an earlier-dated event during that wait could have ITS entry popped and
  // discarded while the original fired — the event was silently lost and
  // empty() never drained. The realtime backend documents thread-safe
  // scheduling (the socket receiver thread), so hammer exactly that window.
  auto rt = runtime::make(options_for("realtime"));
  std::atomic<int> fired{0};
  constexpr int anchors = 50;
  constexpr int external = 400;
  const time_point t0 = rt->now() + 5_ms;
  // Anchors every 1ms keep the run loop parked inside condvar waits.
  for (int i = 1; i <= anchors; ++i) rt->at(t0 + 1_ms * i, [&] { ++fired; });
  std::thread producer([&] {
    for (int i = 0; i < external; ++i) {
      // Due immediately: sorts ahead of whatever anchor the loop waits on.
      rt->at(rt->now(), [&] { ++fired; });
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  });
  rt->run_until(t0 + 1_ms * (anchors + 10));
  producer.join();
  rt->run_until(rt->now() + 2_ms);  // drain any late-armed stragglers
  EXPECT_EQ(fired.load(), anchors + external);
  EXPECT_TRUE(rt->empty());
}

TEST(RealtimeEngine, LateChildKeepsItsNominalDate) {
  // Regression: a child scheduled by a callback that ran late used to be
  // re-dated to the wall clock's now(), which pushed it past run_until's
  // bound and let run_until return with work pending. The callback at
  // t0 + 1ms stalls until the clock has passed t0 + 3ms, then schedules a
  // child dated t0 + 2ms: run_until(t0 + 3ms) must still run it.
  auto rt = runtime::make(options_for("realtime"));
  const time_point t0 = rt->now() + 50_ms;
  std::vector<int> order;
  rt->at(t0 + 1_ms, [&] {
    order.push_back(1);
    while (rt->now() <= t0 + 3_ms)
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    rt->at(t0 + 2_ms, [&] { order.push_back(2); });
  });
  rt->run_until(t0 + 3_ms);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_TRUE(rt->empty());
}

TEST(RealtimeEngine, ChildrenDatedBeforeTheBoundRunInSchedulingOrder) {
  // A callback at t0 + 2ms schedules one child before its own date and one
  // at it: run_until(t0 + 3ms) must run both, in scheduling order, and
  // leave nothing pending.
  auto rt = runtime::make(options_for("realtime"));
  const time_point t0 = rt->now() + 50_ms;
  std::vector<int> order;
  rt->at(t0 + 2_ms, [&] {
    rt->at(t0 + 1_ms, [&] { order.push_back(1); });
    rt->at(t0 + 2_ms, [&] { order.push_back(2); });
  });
  rt->run_until(t0 + 3_ms);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_TRUE(rt->empty());
}

TEST(RealtimeEngine, WakeLatenessRecordsABlockedCallbacksSuccessor) {
  // The callback at t0 blocks for 3ms, so the event dated t0 + 1ms starts
  // at least 2ms after its real deadline. Every fired event records once.
  auto engine = runtime::make(options_for("realtime"));
  const time_point t0 = engine->now() + 50_ms;
  engine->at(t0,
             [] { std::this_thread::sleep_for(std::chrono::milliseconds(3)); });
  engine->at(t0 + 1_ms, [] {});
  engine->run_until(t0 + 5_ms);
  const hdr_histogram& late = rt::wake_lateness(*engine);
  EXPECT_EQ(engine->executed(), 2u);
  EXPECT_EQ(late.total(), engine->executed());
  EXPECT_GE(late.max(), (2_ms).count());
  EXPECT_THROW((void)rt::wake_lateness(*runtime::make(options_for("sim"))),
               error);
}

TEST(RealtimeEngine, TimeScaleFitsTwiceTheP999WakeLatenessInsideDelta) {
  const duration delta = 5_ms;
  // A quiet host gets the floor, 3. Its one stall in 10,000 wakes lies above
  // the p99.9, so it does not count.
  hdr_histogram quiet;
  quiet.record((50_us).count(), 9'999);
  quiet.record((100_ms).count());
  EXPECT_EQ(rt::time_scale_for(quiet, delta), 3u);
  // 2 x 11 ms + 10 ms = 32 ms is 6.4 x delta: the next whole scale is 7.
  hdr_histogram mid;
  mid.record((11_ms).count(), 1'000);
  EXPECT_EQ(rt::time_scale_for(mid, delta), 7u);
  // 2 x 34.5 ms + 10 ms = 79 ms still fits at the cap, 16...
  hdr_histogram at_cap;
  at_cap.record((34'500_us).count(), 1'000);
  EXPECT_EQ(rt::time_scale_for(at_cap, delta), 16u);
  // ...and 2 x 35.5 ms + 10 ms = 81 ms does not: the rule refuses the host.
  hdr_histogram over_cap;
  over_cap.record((35'500_us).count(), 1'000);
  EXPECT_EQ(rt::time_scale_for(over_cap, delta), std::nullopt);
}

TEST(RealtimeEngine, CrossThreadCancelReturnsWhileTheCallbackRuns) {
  // Callbacks run with the engine unlocked: the callback at t0 + 1ms waits
  // (at most 500ms) for another thread to cancel the event dated t0 + 2ms,
  // and that cancel must return while the callback is still running. An
  // engine holding its lock across callbacks would make the cancel wait for
  // the callback, which gives up first.
  using clock = std::chrono::steady_clock;
  auto rt = runtime::make(options_for("realtime"));
  const time_point t0 = rt->now() + 50_ms;
  std::atomic<bool> in_first{false};
  std::atomic<bool> cancelled{false};
  bool saw_cancel = false;
  rt->at(t0 + 1_ms, [&] {
    in_first = true;
    const auto give_up = clock::now() + std::chrono::milliseconds(500);
    while (!cancelled && clock::now() < give_up)
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    saw_cancel = cancelled;
  });
  const sim::event_id victim =
      rt->at(t0 + 2_ms, [] { ADD_FAILURE() << "a cancelled event fired"; });
  std::thread canceller([&] {
    const auto give_up = clock::now() + std::chrono::seconds(2);
    while (!in_first && clock::now() < give_up)
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    rt->cancel(victim);
    cancelled = true;
  });
  rt->run_until(t0 + 10_ms);
  canceller.join();
  EXPECT_TRUE(saw_cancel);
  EXPECT_TRUE(rt->empty());
}

TEST(RuntimeFactory, UnknownBackendThrows) {
  runtime::options o;
  o.backend = "no-such-backend";
  EXPECT_THROW((void)runtime::make(o), hades::error);
}

TEST(RuntimeFactory, CustomRegistrationWins) {
  runtime::register_backend("conf-test-alias", [](const runtime::options&) {
    return sim::make_engine();
  });
  runtime::options o;
  o.backend = "conf-test-alias";
  auto rt = runtime::make(o);
  ASSERT_NE(rt, nullptr);
  EXPECT_EQ(rt->now(), time_point::zero());
}

}  // namespace
}  // namespace hades
