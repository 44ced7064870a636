#include "util/ring.hpp"

#include <gtest/gtest.h>

#include <memory>

namespace hades {
namespace {

TEST(RingFifoTest, PopsInPushOrderAcrossWrapAndGrowth) {
  ring_fifo<int> q;
  EXPECT_TRUE(q.empty());
  int next_in = 0;
  int next_out = 0;
  // Interleave pushes and pops so the head wraps before each growth.
  for (int round = 0; round < 6; ++round) {
    for (int i = 0; i < 3 + 2 * round; ++i) q.push_back(next_in++);
    for (int i = 0; i < 2 + round; ++i) EXPECT_EQ(q.pop_front(), next_out++);
  }
  EXPECT_EQ(q.size(), static_cast<std::size_t>(next_in - next_out));
  while (!q.empty()) EXPECT_EQ(q.pop_front(), next_out++);
  EXPECT_EQ(next_out, next_in);
}

TEST(RingFifoTest, PopAndClearReleaseWhatTheSlotsHeld) {
  ring_fifo<std::shared_ptr<int>> q;
  auto a = std::make_shared<int>(1);
  auto b = std::make_shared<int>(2);
  q.push_back(a);
  q.push_back(b);
  EXPECT_EQ(a.use_count(), 2);
  EXPECT_EQ(*q.pop_front(), 1);
  EXPECT_EQ(a.use_count(), 1);  // the vacated slot holds no reference
  q.clear();
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(b.use_count(), 1);
  q.push_back(a);  // storage is reused after clear
  EXPECT_EQ(q.size(), 1u);
}

TEST(RingFifoTest, PopFromEmptyThrows) {
  ring_fifo<int> q;
  EXPECT_THROW((void)q.pop_front(), invariant_violation);
}

}  // namespace
}  // namespace hades
