#include "core/processor.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "sim/engine.hpp"

namespace hades::core {
namespace {

using namespace hades::literals;

struct fixture {
  fixture() { mon.set_tracing(true); }
  sim::engine eng;
  monitor mon;
  processor cpu{eng, 0, duration::zero(), &mon};
};

struct fixture_cs {
  sim::engine eng;
  processor cpu{eng, 0, 10_us};
};

TEST(ProcessorTest, SingleThreadRunsToCompletion) {
  fixture f;
  std::vector<time_point> done;
  auto t = f.cpu.create("t", 5, 5, 1_ms, [&] { done.push_back(f.eng.now()); });
  f.cpu.make_runnable(t);
  f.eng.run();
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(done[0], time_point::at(1_ms));
  EXPECT_EQ(f.cpu.executed(t), 1_ms);
  EXPECT_EQ(f.cpu.remaining(t), duration::zero());
}

TEST(ProcessorTest, ContextSwitchDelaysCompletion) {
  fixture_cs f;
  time_point done;
  auto t = f.cpu.create("t", 5, 5, 1_ms, [&] { done = f.eng.now(); });
  f.cpu.make_runnable(t);
  f.eng.run();
  EXPECT_EQ(done, time_point::at(1_ms + 10_us));
  EXPECT_EQ(f.cpu.stats().context_switches, 1u);
}

TEST(ProcessorTest, HigherPriorityPreempts) {
  fixture f;
  std::vector<std::string> order;
  auto lo = f.cpu.create("lo", 1, 1, 2_ms, [&] { order.push_back("lo"); });
  auto hi = f.cpu.create("hi", 9, 9, 1_ms, [&] { order.push_back("hi"); });
  f.cpu.make_runnable(lo);
  f.eng.after(500_us, [&] { f.cpu.make_runnable(hi); });
  f.eng.run();
  ASSERT_EQ(order, (std::vector<std::string>{"hi", "lo"}));
  // lo runs [0, 0.5], hi runs [0.5, 1.5], lo resumes [1.5, 3.0].
  EXPECT_EQ(f.eng.now(), time_point::at(3_ms));
  EXPECT_EQ(f.cpu.stats().preemptions, 1u);
}

TEST(ProcessorTest, EqualPriorityIsFifoNonPreemptive) {
  fixture f;
  std::vector<std::string> order;
  auto a = f.cpu.create("a", 5, 5, 1_ms, [&] { order.push_back("a"); });
  auto b = f.cpu.create("b", 5, 5, 1_ms, [&] { order.push_back("b"); });
  f.cpu.make_runnable(a);
  f.eng.after(100_us, [&] { f.cpu.make_runnable(b); });
  f.eng.run();
  EXPECT_EQ(order, (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(f.cpu.stats().preemptions, 0u);
}

TEST(ProcessorTest, PreemptionThresholdBlocksMediumPriorities) {
  // Paper 3.1.2: only priorities strictly above pt may preempt.
  fixture f;
  std::vector<std::string> order;
  auto lo = f.cpu.create("lo", 2, 8, 2_ms, [&] { order.push_back("lo"); });
  auto mid = f.cpu.create("mid", 8, 8, 1_ms, [&] { order.push_back("mid"); });
  auto hi = f.cpu.create("hi", 9, 9, 1_ms, [&] { order.push_back("hi"); });
  f.cpu.make_runnable(lo);
  f.eng.after(100_us, [&] { f.cpu.make_runnable(mid); });  // 8 <= pt(8): no
  f.eng.after(200_us, [&] { f.cpu.make_runnable(hi); });   // 9 >  pt(8): yes
  f.eng.run();
  EXPECT_EQ(order, (std::vector<std::string>{"hi", "lo", "mid"}));
}

TEST(ProcessorTest, PreemptedThreadResumesWithExactRemaining) {
  fixture f;
  time_point lo_done;
  auto lo = f.cpu.create("lo", 1, 1, 3_ms, [&] { lo_done = f.eng.now(); });
  auto hi = f.cpu.create("hi", 9, 9, 2_ms, nullptr);
  f.cpu.make_runnable(lo);
  f.eng.after(1_ms, [&] { f.cpu.make_runnable(hi); });
  f.eng.run();
  EXPECT_EQ(lo_done, time_point::at(5_ms));  // 1 + 2 (hi) + 2 remaining
  EXPECT_EQ(f.cpu.executed(lo), 3_ms);
}

TEST(ProcessorTest, PreemptedThreadAheadOfLaterEqualPriority) {
  fixture f;
  std::vector<std::string> order;
  auto a = f.cpu.create("a", 5, 5, 2_ms, [&] { order.push_back("a"); });
  auto hi = f.cpu.create("hi", 9, 9, 1_ms, [&] { order.push_back("hi"); });
  auto b = f.cpu.create("b", 5, 5, 1_ms, [&] { order.push_back("b"); });
  f.cpu.make_runnable(a);
  f.eng.after(500_us, [&] {
    f.cpu.make_runnable(hi);  // preempts a
    f.cpu.make_runnable(b);   // same prio as a, arrives later
  });
  f.eng.run();
  EXPECT_EQ(order, (std::vector<std::string>{"hi", "a", "b"}));
}

TEST(ProcessorTest, SuspendKeepsAccruedWork) {
  fixture f;
  bool done = false;
  auto t = f.cpu.create("t", 5, 5, 2_ms, [&] { done = true; });
  f.cpu.make_runnable(t);
  f.eng.after(500_us, [&] { f.cpu.suspend(t); });
  f.eng.run();
  EXPECT_FALSE(done);
  EXPECT_EQ(f.cpu.executed(t), 500_us);
  EXPECT_EQ(f.cpu.remaining(t), 1500_us);
  f.cpu.make_runnable(t);
  f.eng.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(f.eng.now(), time_point::at(2_ms));
}

TEST(ProcessorTest, SetPriorityCausesImmediatePreemption) {
  fixture f;
  std::vector<std::string> order;
  auto a = f.cpu.create("a", 5, 5, 2_ms, [&] { order.push_back("a"); });
  auto b = f.cpu.create("b", 1, 1, 1_ms, [&] { order.push_back("b"); });
  f.cpu.make_runnable(a);
  f.cpu.make_runnable(b);
  f.eng.after(500_us, [&] { f.cpu.set_priority(b, 9); });
  f.eng.run();
  EXPECT_EQ(order, (std::vector<std::string>{"b", "a"}));
}

TEST(ProcessorTest, SetPriorityRepositionsQueuedThread) {
  fixture f;
  std::vector<std::string> order;
  auto run = f.cpu.create("run", 9, 9, 1_ms, nullptr);
  auto a = f.cpu.create("a", 3, 3, 1_ms, [&] { order.push_back("a"); });
  auto b = f.cpu.create("b", 2, 2, 1_ms, [&] { order.push_back("b"); });
  f.cpu.make_runnable(run);
  f.cpu.make_runnable(a);
  f.cpu.make_runnable(b);
  f.cpu.set_priority(b, 5);  // now ahead of a
  f.eng.run();
  EXPECT_EQ(order, (std::vector<std::string>{"b", "a"}));
}

TEST(ProcessorTest, AddWorkWhileRunningExtendsCompletion) {
  fixture f;
  time_point done;
  auto t = f.cpu.create("t", 5, 5, 1_ms, [&] { done = f.eng.now(); });
  f.cpu.make_runnable(t);
  f.eng.after(500_us, [&] { f.cpu.add_work(t, 1_ms); });
  f.eng.run();
  EXPECT_EQ(done, time_point::at(2_ms));
  EXPECT_EQ(f.cpu.executed(t), 2_ms);
}

TEST(ProcessorTest, AddWorkRevivesDoneThread) {
  fixture f;
  int completions = 0;
  auto t = f.cpu.create("t", 5, 5, 1_ms, [&] { ++completions; });
  f.cpu.make_runnable(t);
  f.eng.run();
  EXPECT_EQ(completions, 1);
  f.cpu.add_work(t, 1_ms);
  f.cpu.make_runnable(t);
  f.eng.run();
  EXPECT_EQ(completions, 2);
  EXPECT_EQ(f.eng.now(), time_point::at(2_ms));
}

TEST(ProcessorTest, InterruptPausesRunningThread) {
  fixture f;
  time_point done;
  bool irq_ran = false;
  auto t = f.cpu.create("t", 5, 5, 1_ms, [&] { done = f.eng.now(); });
  f.cpu.make_runnable(t);
  f.eng.after(300_us, [&] {
    f.cpu.post_interrupt("nic", 100_us, [&] { irq_ran = true; });
  });
  f.eng.run();
  EXPECT_TRUE(irq_ran);
  EXPECT_EQ(done, time_point::at(1_ms + 100_us));
  EXPECT_EQ(f.cpu.stats().interrupts, 1u);
  EXPECT_EQ(f.cpu.stats().interrupt_time, 100_us);
}

TEST(ProcessorTest, BackToBackInterruptsQueueFifo) {
  fixture f;
  std::vector<int> order;
  time_point done;
  auto t = f.cpu.create("t", 5, 5, 1_ms, [&] { done = f.eng.now(); });
  f.cpu.make_runnable(t);
  f.eng.after(100_us, [&] {
    f.cpu.post_interrupt("i1", 50_us, [&] { order.push_back(1); });
    f.cpu.post_interrupt("i2", 50_us, [&] { order.push_back(2); });
  });
  f.eng.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(done, time_point::at(1_ms + 100_us));
}

TEST(ProcessorTest, InterruptBodyFiresAtOwnHandlerEnd) {
  fixture f;
  std::vector<time_point> fire;
  f.cpu.post_interrupt("i1", 50_us, [&] { fire.push_back(f.eng.now()); });
  f.cpu.post_interrupt("i2", 50_us, [&] { fire.push_back(f.eng.now()); });
  f.eng.run();
  ASSERT_EQ(fire.size(), 2u);
  EXPECT_EQ(fire[0], time_point::at(50_us));
  EXPECT_EQ(fire[1], time_point::at(100_us));
}

TEST(ProcessorTest, InterruptOnIdleCpu) {
  fixture f;
  bool ran = false;
  f.cpu.post_interrupt("i", 10_us, [&] { ran = true; });
  f.eng.run();
  EXPECT_TRUE(ran);
  EXPECT_EQ(f.cpu.stats().busy, 10_us);
}

TEST(ProcessorTest, ThreadMadeRunnableDuringIrqStartsAfterDrain) {
  fixture f;
  time_point started;
  auto t = f.cpu.create("t", 5, 5, 100_us, [&] { started = f.eng.now(); });
  f.cpu.post_interrupt("i", 50_us, [&] { f.cpu.make_runnable(t); });
  f.eng.run();
  EXPECT_EQ(started, time_point::at(150_us));  // waits for handler end
}

TEST(ProcessorTest, ZeroWorkThreadCompletesImmediately) {
  fixture f;
  time_point done;
  auto t = f.cpu.create("t", 5, 5, duration::zero(), [&] { done = f.eng.now(); });
  f.cpu.make_runnable(t);
  f.eng.run();
  EXPECT_EQ(done, time_point::zero());
}

TEST(ProcessorTest, ExecutedAndRemainingMidRun) {
  fixture f;
  auto t = f.cpu.create("t", 5, 5, 1_ms, nullptr);
  f.cpu.make_runnable(t);
  f.eng.after(400_us, [&] {
    EXPECT_EQ(f.cpu.executed(t), 400_us);
    EXPECT_EQ(f.cpu.remaining(t), 600_us);
  });
  f.eng.run();
}

TEST(ProcessorTest, DestroyRunningThreadIsSafe) {
  fixture f;
  bool done = false;
  auto t = f.cpu.create("t", 5, 5, 1_ms, [&] { done = true; });
  f.cpu.make_runnable(t);
  f.eng.after(100_us, [&] { f.cpu.destroy(t); });
  f.eng.run();
  EXPECT_FALSE(done);
  EXPECT_FALSE(f.cpu.exists(t));
}

TEST(ProcessorTest, DestroyFreesCpuForOthers) {
  fixture f;
  bool b_done = false;
  auto a = f.cpu.create("a", 9, 9, 10_ms, nullptr);
  auto b = f.cpu.create("b", 1, 1, 1_ms, [&] { b_done = true; });
  f.cpu.make_runnable(a);
  f.cpu.make_runnable(b);
  f.eng.after(1_ms, [&] { f.cpu.destroy(a); });
  f.eng.run();
  EXPECT_TRUE(b_done);
  EXPECT_EQ(f.eng.now(), time_point::at(2_ms));
}

TEST(ProcessorTest, MakeRunnableTwiceThrows) {
  fixture f;
  auto t = f.cpu.create("t", 5, 5, 1_ms, nullptr);
  f.cpu.make_runnable(t);
  EXPECT_THROW(f.cpu.make_runnable(t), invariant_violation);
}

TEST(ProcessorTest, UnknownThreadThrows) {
  fixture f;
  EXPECT_THROW(static_cast<void>(f.cpu.executed(kthread_id{999})),
               invariant_violation);
  EXPECT_THROW(f.cpu.destroy(kthread_id{999}), invariant_violation);
}

// A destroyed thread's slot goes to the next thread created, under a new
// id: the old id names nothing any more, and ids keep creation order.
TEST(ProcessorTest, ReusedSlotGetsAFreshLaterId) {
  fixture f;
  const kthread_id a = f.cpu.create("a", 5, 5, 1_ms, nullptr);
  const kthread_id b = f.cpu.create("b", 5, 5, 1_ms, nullptr);
  f.cpu.destroy(a);
  const kthread_id c = f.cpu.create("c", 5, 5, 2_ms, nullptr);
  EXPECT_EQ(processor::slot_of(c), processor::slot_of(a));
  EXPECT_NE(c, a);
  EXPECT_FALSE(f.cpu.exists(a));
  EXPECT_THROW(static_cast<void>(f.cpu.executed(a)), invariant_violation);
  EXPECT_THROW(f.cpu.destroy(a), invariant_violation);
  EXPECT_TRUE(f.cpu.exists(c));
  EXPECT_EQ(f.cpu.name(c), "c");
  EXPECT_EQ(f.cpu.remaining(c), 2_ms);
  EXPECT_GT(c, a);
  EXPECT_GT(c, b);
}

TEST(ProcessorTest, RunQueueOrderedByPriorityThenFifo) {
  fixture f;
  auto run = f.cpu.create("run", 9, 9, 10_ms, nullptr);
  auto a = f.cpu.create("a", 3, 3, 1_ms, nullptr);
  auto b = f.cpu.create("b", 7, 7, 1_ms, nullptr);
  auto c = f.cpu.create("c", 3, 3, 1_ms, nullptr);
  f.cpu.make_runnable(run);
  f.cpu.make_runnable(a);
  f.cpu.make_runnable(b);
  f.cpu.make_runnable(c);
  EXPECT_EQ(f.cpu.run_queue(), (std::vector<kthread_id>{b, a, c}));
}

TEST(ProcessorTest, BusyAccountingSumsBursts) {
  fixture f;
  auto a = f.cpu.create("a", 5, 5, 1_ms, nullptr);
  auto b = f.cpu.create("b", 5, 5, 2_ms, nullptr);
  f.cpu.make_runnable(a);
  f.cpu.make_runnable(b);
  f.eng.run();
  EXPECT_EQ(f.cpu.stats().busy, 3_ms);
}

TEST(ProcessorTest, HasStartedSemantics) {
  fixture_cs f;  // 10us context switch
  auto t = f.cpu.create("t", 5, 5, 1_ms, nullptr);
  EXPECT_FALSE(f.cpu.has_started(t));
  f.cpu.make_runnable(t);
  EXPECT_FALSE(f.cpu.has_started(t));  // still inside the context switch
  f.eng.after(5_us, [&] { EXPECT_FALSE(f.cpu.has_started(t)); });
  f.eng.after(20_us, [&] { EXPECT_TRUE(f.cpu.has_started(t)); });
  f.eng.run();
  EXPECT_TRUE(f.cpu.has_started(t));
}

TEST(ProcessorTest, ResumeAfterPreemptionHasNoExtraSwitchForSameThread) {
  fixture_cs f;
  // a runs, hi preempts (2 switches), a resumes (1 switch) = 3 switches.
  auto a = f.cpu.create("a", 1, 1, 1_ms, nullptr);
  auto hi = f.cpu.create("hi", 9, 9, 1_ms, nullptr);
  f.cpu.make_runnable(a);
  f.eng.after(500_us, [&] { f.cpu.make_runnable(hi); });
  f.eng.run();
  EXPECT_EQ(f.cpu.stats().context_switches, 3u);
}

TEST(ProcessorTest, TraceRecordsLifecycle) {
  fixture f;
  auto t = f.cpu.create("t", 5, 5, 1_ms, nullptr);
  f.cpu.make_runnable(t);
  f.eng.run();
  EXPECT_EQ(f.mon.count(monitor_event_kind::thread_created), 1u);
  EXPECT_EQ(f.mon.count(monitor_event_kind::thread_runnable), 1u);
  EXPECT_EQ(f.mon.count(monitor_event_kind::thread_running), 1u);
  EXPECT_EQ(f.mon.count(monitor_event_kind::thread_done), 1u);
  EXPECT_EQ(f.mon.events().size(), 4u);
}

}  // namespace
}  // namespace hades::core
