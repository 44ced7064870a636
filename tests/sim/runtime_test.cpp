// The runtime abstraction contract (DESIGN.md, "Runtime layer"): everything
// here goes through `hades::runtime` and the `sim::make_engine` factory —
// exactly the surface src/core and src/services are allowed to see.
#include "sim/runtime.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

namespace hades {
namespace {

using namespace hades::literals;

TEST(RuntimeTest, FactoryProducesWorkingBackend) {
  std::unique_ptr<runtime> rt = sim::make_engine();
  ASSERT_NE(rt, nullptr);
  EXPECT_EQ(rt->now(), time_point::zero());
  EXPECT_TRUE(rt->empty());
}

TEST(RuntimeTest, ScheduleAndCancelThroughInterface) {
  auto rt = sim::make_engine();
  std::vector<int> order;
  rt->at(time_point::at(2_us), [&] { order.push_back(2); });
  rt->after(1_us, [&] { order.push_back(1); });
  auto dropped = rt->after(3_us, [&] { order.push_back(3); });
  rt->cancel(dropped);
  rt->cancel(sim::invalid_event);
  rt->run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(rt->executed(), 2u);
}

TEST(RuntimeTest, InfiniteAfterNeverFires) {
  auto rt = sim::make_engine();
  EXPECT_EQ(rt->after(duration::infinity(), [] { FAIL(); }),
            sim::invalid_event);
  EXPECT_TRUE(rt->empty());
}

TEST(RuntimeTest, StepAndRunUntilSemantics) {
  auto rt = sim::make_engine();
  int fired = 0;
  rt->after(1_us, [&] { ++fired; });
  rt->after(5_us, [&] { ++fired; });
  EXPECT_EQ(rt->run_until(time_point::at(3_us)), 1u);
  EXPECT_EQ(rt->now(), time_point::at(3_us));
  EXPECT_EQ(rt->pending(), 1u);
  EXPECT_TRUE(rt->step());
  EXPECT_FALSE(rt->step());
  EXPECT_EQ(fired, 2);
}

}  // namespace
}  // namespace hades
