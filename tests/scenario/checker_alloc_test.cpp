// Grading allocates per plan and per node, never per delivery or per
// suspicion: the broadcast and detector checkers must make the same number
// of heap allocations when the observation they grade grows tenfold. The
// counting global operator new (bench/alloc_count.hpp) sees every
// allocation in the process.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "bench/alloc_count.hpp"
#include "scenario/checkers.hpp"

namespace hades::scenario {
namespace {

using namespace hades::literals;

time_point ms(std::int64_t v) { return time_point::at(duration::milliseconds(v)); }

template <typename F>
std::uint64_t allocations_during(F&& grade) {
  const std::uint64_t before = alloc_count::calls();
  for (const check_result& r : grade())
    EXPECT_TRUE(r.passed) << r.name << ": " << r.detail;
  return alloc_count::calls() - before;
}

/// Node 0 crashes and a partition comes and goes; every other node
/// delivers `per_origin` messages from each of origins 1..3 in one order.
observation broadcast_run(std::size_t nodes, std::size_t per_origin,
                          plan& p) {
  p = plan{};
  p.crash(ms(50), 0).split(ms(100), {{0, 1}, {2, 3}}).heal(ms(150));
  observation o;
  o.nodes = nodes;
  o.horizon = ms(2000);
  o.delivery_bound = 5_ms;
  o.sent_at.assign(nodes, {});
  o.delivery_logs = svc::delivery_logs(nodes);
  for (std::size_t k = 0; k < per_origin; ++k)
    for (node_id origin = 1; origin <= 3; ++origin) {
      o.sent_at[origin].push_back(
          ms(200) + duration::microseconds(static_cast<std::int64_t>(
                        (3 * k + origin) * 500)));
      for (node_id n = 1; n < nodes; ++n)
        o.delivery_logs.append(n, {origin, k + 1});
    }
  return o;
}

std::uint64_t broadcast_allocations(std::size_t nodes,
                                    std::size_t per_origin) {
  plan p;
  const observation o = broadcast_run(nodes, per_origin, p);
  return allocations_during([&] { return check_broadcast(p, o, false); });
}

TEST(CheckerAllocTest, BroadcastPairwiseAllocationsDoNotGrowWithDeliveries) {
  const std::uint64_t small = broadcast_allocations(8, 40);
  const std::uint64_t large = broadcast_allocations(8, 400);
  EXPECT_EQ(small, large);
}

TEST(CheckerAllocTest, BroadcastReferenceAllocationsDoNotGrowWithDeliveries) {
  const std::uint64_t small = broadcast_allocations(80, 40);
  const std::uint64_t large = broadcast_allocations(80, 400);
  EXPECT_EQ(small, large);
}

/// Node 3 crashes and recovers, every observer suspects and clears it; an
/// omission storm then makes observer 0 flap on node 1 `flaps` times.
observation detector_run(std::size_t flaps, plan& p) {
  p = plan{};
  p.crash(ms(200), 3)
      .recover(ms(400), 3)
      .omission_rate(ms(500), 0.3)
      .omission_rate(ms(900), 0.0);
  observation o;
  o.nodes = 8;
  o.horizon = ms(1000);
  o.detect_bound = 20_ms;
  o.recover_bound = 10_ms;
  for (node_id n = 0; n < o.nodes; ++n) {
    if (n == 3) continue;
    o.suspicions.push_back({n, 3, ms(205)});
    o.recoveries.push_back({n, 3, ms(405)});
  }
  const auto step = duration::microseconds(
      static_cast<std::int64_t>(350'000 / flaps));
  for (std::size_t k = 0; k < flaps; ++k) {
    const time_point at = ms(510) + step * static_cast<std::int64_t>(k);
    o.suspicions.push_back({0, 1, at});
    o.recoveries.push_back({0, 1, at + step / 2});
  }
  return o;
}

std::uint64_t detector_allocations(std::size_t flaps) {
  plan p;
  const observation o = detector_run(flaps, p);
  return allocations_during([&] { return check_detector(p, o); });
}

TEST(CheckerAllocTest, DetectorAllocationsDoNotGrowWithSuspicions) {
  const std::uint64_t small = detector_allocations(50);
  const std::uint64_t large = detector_allocations(500);
  EXPECT_EQ(small, large);
}

}  // namespace
}  // namespace hades::scenario
