#include "sim/wire_payload.hpp"

#include <gtest/gtest.h>

#include <barrier>
#include <cstdint>
#include <future>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace hades::sim {
namespace {

struct big_pod {
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  std::uint64_t c = 0;
};

struct counting_value {
  static inline int live = 0;
  std::uint64_t payload = 0;
  explicit counting_value(std::uint64_t v) : payload(v) { ++live; }
  counting_value(const counting_value& o) : payload(o.payload) { ++live; }
  counting_value(counting_value&& o) noexcept : payload(o.payload) { ++live; }
  ~counting_value() { --live; }
};

TEST(WirePayloadTest, EmptyByDefault) {
  wire_payload p;
  EXPECT_FALSE(p.has_value());
  EXPECT_EQ(p.get<int>(), nullptr);
}

TEST(WirePayloadTest, InlineSmallTrivialValue) {
  const auto live_before = wire_payload::stats().pooled_live;
  wire_payload p(42);
  EXPECT_EQ(wire_payload::stats().pooled_live, live_before);  // inline path
  ASSERT_NE(p.get<int>(), nullptr);
  EXPECT_EQ(*p.get<int>(), 42);
  EXPECT_EQ(p.get<unsigned>(), nullptr);  // exact-type match only
}

TEST(WirePayloadTest, PooledLargeValueRoundTrips) {
  const auto live_before = wire_payload::stats().pooled_live;
  wire_payload p(big_pod{1, 2, 3});
  EXPECT_EQ(wire_payload::stats().pooled_live, live_before + 1);
  ASSERT_NE(p.get<big_pod>(), nullptr);
  EXPECT_EQ(p.get<big_pod>()->b, 2u);
  p.reset();
  EXPECT_EQ(wire_payload::stats().pooled_live, live_before);
}

TEST(WirePayloadTest, NonTrivialValueDestroyed) {
  ASSERT_EQ(counting_value::live, 0);
  {
    wire_payload p(counting_value{7});
    EXPECT_EQ(counting_value::live, 1);
    EXPECT_EQ(p.get<counting_value>()->payload, 7u);
  }
  EXPECT_EQ(counting_value::live, 0);
}

TEST(WirePayloadTest, CopySharesOnePooledBlock) {
  wire_payload a(big_pod{9, 9, 9});
  const big_pod* addr = a.get<big_pod>();
  const auto live_after_one = wire_payload::stats().pooled_live;
  wire_payload b(a);
  wire_payload c = a;
  // Copies share the block (same address), no new pooled blocks.
  EXPECT_EQ(b.get<big_pod>(), addr);
  EXPECT_EQ(c.get<big_pod>(), addr);
  EXPECT_EQ(wire_payload::stats().pooled_live, live_after_one);
  a.reset();
  b.reset();
  ASSERT_NE(c.get<big_pod>(), nullptr);  // last owner keeps the value alive
  EXPECT_EQ(c.get<big_pod>()->a, 9u);
}

TEST(WirePayloadTest, MoveTransfersOwnership) {
  wire_payload a(big_pod{5, 6, 7});
  wire_payload b(std::move(a));
  EXPECT_FALSE(a.has_value());  // NOLINT(bugprone-use-after-move)
  ASSERT_NE(b.get<big_pod>(), nullptr);
  EXPECT_EQ(b.get<big_pod>()->c, 7u);
  a = std::move(b);
  EXPECT_TRUE(a.has_value());
}

TEST(WirePayloadTest, PoolRecyclesBlocksWithoutGrowth) {
  // Warm one block, then churn: steady-state alloc/free must neither grow
  // the slab pool nor fall back to the heap.
  { wire_payload warm(big_pod{}); }
  const auto before = wire_payload::stats();
  for (int i = 0; i < 10'000; ++i) {
    wire_payload p(big_pod{static_cast<std::uint64_t>(i), 0, 0});
    ASSERT_NE(p.get<big_pod>(), nullptr);
  }
  const auto after = wire_payload::stats();
  EXPECT_EQ(after.chunk_allocs, before.chunk_allocs);
  EXPECT_EQ(after.oversize_allocs, before.oversize_allocs);
  EXPECT_EQ(after.pooled_live, before.pooled_live);
}

TEST(WirePayloadTest, OversizedValueFallsBackToHeap) {
  struct huge {
    char bytes[2048] = {};
  };
  const auto before = wire_payload::stats();
  {
    wire_payload p(huge{});
    EXPECT_NE(p.get<huge>(), nullptr);
    EXPECT_EQ(wire_payload::stats().oversize_allocs,
              before.oversize_allocs + 1);
    wire_payload q(p);  // heap blocks are refcount-shared too
    EXPECT_EQ(q.get<huge>(), p.get<huge>());
    EXPECT_EQ(wire_payload::stats().oversize_allocs,
              before.oversize_allocs + 1);
  }
  EXPECT_EQ(wire_payload::stats().pooled_live, before.pooled_live);
}

TEST(WirePayloadTest, StringPayloadRoundTrips) {
  wire_payload p(std::string("hello wire"));
  ASSERT_NE(p.get<std::string>(), nullptr);
  EXPECT_EQ(*p.get<std::string>(), "hello wire");
  wire_payload q(p);
  EXPECT_EQ(q.get<std::string>(), p.get<std::string>());  // shared, not copied
}

TEST(WirePayloadTest, AssignmentReleasesPrevious) {
  ASSERT_EQ(counting_value::live, 0);
  wire_payload p(counting_value{1});
  p = wire_payload(counting_value{2});
  EXPECT_EQ(counting_value::live, 1);
  EXPECT_EQ(p.get<counting_value>()->payload, 2u);
  p = wire_payload(17);  // type change pooled -> inline
  EXPECT_EQ(counting_value::live, 0);
  EXPECT_EQ(*p.get<int>(), 17);
}

// Each thread draws from its own pool: two threads that hold the same
// working set at once each count only their own blocks, and neither grows
// the other's chunks (nor the main thread's).
TEST(WirePayloadTest, ThreadsChurnTheirOwnPools) {
  constexpr std::size_t held = 300;  // two chunks of 256 blocks
  const auto main_before = wire_payload::stats();
  std::barrier sync(2);
  wire_payload::stats_t at_peak[2];
  wire_payload::stats_t at_end[2];
  const auto churn = [&](int t) {
    std::vector<wire_payload> v;
    v.reserve(held);
    for (int round = 0; round < 20; ++round) {
      for (std::size_t i = 0; i < held; ++i)
        v.emplace_back(big_pod{i, static_cast<std::uint64_t>(round), 0});
      if (round == 0) {
        sync.arrive_and_wait();  // both threads hold their blocks
        at_peak[t] = wire_payload::stats();
        sync.arrive_and_wait();
      }
      v.clear();
    }
    at_end[t] = wire_payload::stats();
  };
  std::thread a(churn, 0);
  std::thread b(churn, 1);
  a.join();
  b.join();
  for (int t = 0; t < 2; ++t) {
    EXPECT_EQ(at_peak[t].pooled_live, held);
    EXPECT_EQ(at_peak[t].chunk_allocs, 2u);
    EXPECT_EQ(at_end[t].chunk_allocs, 2u);
    EXPECT_EQ(at_end[t].pooled_live, 0u);
  }
  const auto main_after = wire_payload::stats();
  EXPECT_EQ(main_after.chunk_allocs, main_before.chunk_allocs);
  EXPECT_EQ(main_after.pooled_live, main_before.pooled_live);
}

// One thread owns each payload: releasing a block on a thread that did not
// acquire it fails the owner check. reset() is noexcept, so the failed
// `require` terminates the process with its message.
TEST(WirePayloadDeathTest, ReleaseOnAnotherThreadDies) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_DEATH(
      {
        wire_payload p;
        std::promise<void> acquired;
        std::promise<void> done;
        std::thread owner([&] {
          p = wire_payload(big_pod{1, 2, 3});
          acquired.set_value();
          done.get_future().wait();  // the owner stays alive
        });
        acquired.get_future().wait();
        p.reset();
        done.set_value();
        owner.join();
      },
      "block released on a thread that did not acquire it");
}

}  // namespace
}  // namespace hades::sim
