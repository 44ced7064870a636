// Traffic edge determinism (DESIGN.md, "Traffic edge & admission control").
//
// Two layers of contract. The arrival stream itself: a lazily-materialized
// open-loop process over a million-client population must replay
// bit-identically from (params, seed, node) alone, differ across seeds and
// nodes, and actually express its mix shape (bursty phases, diurnal
// segments). And the full gateway-in-system path: an edge scenario cell
// must produce bit-identical campaign checksums — admissions, sheds,
// latency digests and all — across runtime shard counts, the same gate the
// rest of the core holds itself to. Between them, the admission controller
// on its own: handle order, pool capacity, shed order and re-validation.
#include "traffic/arrival.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "scenario/campaign.hpp"
#include "traffic/admission.hpp"

namespace hades::traffic {
namespace {

using namespace hades::literals;

arrival_params test_params(arrival_mix mix) {
  static const request_class classes[2] = {
      {duration::microseconds(200), 3_ms, 4, 3},
      {duration::microseconds(800), 12_ms, 1, 1},
  };
  arrival_params p;
  p.mix = mix;
  p.rate_per_s = 5'000.0;
  p.population = 1'000'000;
  p.burst_period = 10_ms;
  p.burst_factor = 6.0;
  p.diurnal_period = 80_ms;
  p.classes = classes;
  p.class_count = 2;
  return p;
}

struct draw {
  std::int64_t at;
  std::uint64_t client;
  std::uint32_t klass;
  bool operator==(const draw&) const = default;
};

std::vector<draw> drain(arrival_process& a, int n) {
  std::vector<draw> out;
  out.reserve(n);
  for (int i = 0; i < n; ++i) {
    const std::int64_t at = a.peek().nanoseconds();
    const request r = a.take();
    out.push_back({at, r.client, r.klass});
  }
  return out;
}

TEST(ArrivalProcessTest, StreamReplaysBitIdenticallyFromSeed) {
  for (const arrival_mix mix :
       {arrival_mix::poisson, arrival_mix::bursty, arrival_mix::diurnal}) {
    arrival_process a(test_params(mix), 42, 3);
    arrival_process b(test_params(mix), 42, 3);
    EXPECT_EQ(drain(a, 5'000), drain(b, 5'000))
        << "mix " << static_cast<int>(mix);
  }
}

TEST(ArrivalProcessTest, SeedAndNodeBothChangeTheStream) {
  arrival_process base(test_params(arrival_mix::poisson), 42, 3);
  arrival_process other_seed(test_params(arrival_mix::poisson), 43, 3);
  arrival_process other_node(test_params(arrival_mix::poisson), 42, 4);
  const auto ref = drain(base, 1'000);
  EXPECT_NE(ref, drain(other_seed, 1'000));
  EXPECT_NE(ref, drain(other_node, 1'000));
}

TEST(ArrivalProcessTest, ClientsSpanTheLazyPopulation) {
  arrival_process a(test_params(arrival_mix::poisson), 7, 0);
  std::uint64_t max_client = 0;
  int high = 0;
  for (const draw& d : drain(a, 10'000)) {
    ASSERT_LT(d.client, 1'000'000u);
    ASSERT_LT(d.klass, 2u);
    max_client = std::max(max_client, d.client);
    if (d.client >= 500'000) ++high;
  }
  // splitmix-derived ids cover the population roughly uniformly — no dense
  // prefix materialization.
  EXPECT_GT(max_client, 900'000u);
  EXPECT_GT(high, 3'000);
}

TEST(ArrivalProcessTest, BurstyPhasesModulateTheArrivalRate) {
  arrival_process a(test_params(arrival_mix::bursty), 11, 0);
  // Phase 0 of each 10ms period runs at 6x the base rate, phase 1 at 1x.
  std::uint64_t burst = 0, calm = 0;
  for (const draw& d : drain(a, 20'000)) {
    const std::int64_t period = 10'000'000;
    ((d.at / period) % 2 == 0 ? burst : calm) += 1;
  }
  EXPECT_GT(burst, 4 * calm);
  EXPECT_GT(calm, 0u);
}

TEST(ArrivalProcessTest, DiurnalSegmentsFollowTheProfile) {
  arrival_process a(test_params(arrival_mix::diurnal), 11, 0);
  // The 80ms "day" has 8 segments; segment 5 (1500 permille) must draw
  // several times the arrivals of segment 0 (250 permille).
  std::uint64_t seg[8] = {};
  for (const draw& d : drain(a, 40'000)) {
    const std::int64_t day = 80'000'000;
    seg[(d.at % day) / (day / 8)] += 1;
  }
  EXPECT_GT(seg[5], 3 * seg[0]);
  EXPECT_GT(seg[0], 0u);
}

// --- admission controller ----------------------------------------------------

// Three slots, a roomy wheel: only the pool limit and value density decide.
admission_controller small_controller() {
  admission_controller::config c;
  c.feas.slot_width = 1_ms;
  c.feas.available = 1.0;
  c.max_outstanding = 3;
  return admission_controller(c);
}

request req(std::uint64_t client, std::uint32_t value) {
  request r;
  r.client = client;
  r.cost = 100_us;
  r.deadline = 40_ms;
  r.value = value;
  return r;
}

TEST(AdmissionControllerTest, HandlesAreDenseAndThePoolCapsAdmission) {
  admission_controller ctrl = small_controller();
  const time_point now = time_point::at(1_ms);
  for (std::uint32_t i = 0; i < 3; ++i) {
    const auto d = ctrl.offer(req(i, 1), now);
    ASSERT_TRUE(d.admitted);
    EXPECT_EQ(d.h, i);
  }
  // Feasible on the wheel, but every slot is live and nothing is cheaper.
  const auto full = ctrl.offer(req(3, 1), now);
  EXPECT_FALSE(full.admitted);
  EXPECT_EQ(full.shed_victims, 0u);
  EXPECT_EQ(ctrl.stats().rejected, 1u);
  EXPECT_EQ(ctrl.outstanding(), 3u);

  ctrl.complete(1);
  const auto reuse = ctrl.offer(req(4, 1), now);
  ASSERT_TRUE(reuse.admitted);
  EXPECT_EQ(reuse.h, 1u);
}

TEST(AdmissionControllerTest, OverloadShedsLowestValueDensityFirst) {
  admission_controller ctrl = small_controller();
  std::vector<admission_controller::handle> shed;
  ctrl.on_shed([&](admission_controller::handle h) { shed.push_back(h); });
  const time_point now = time_point::at(1_ms);
  for (const std::uint32_t value : {2u, 1u, 3u})
    ASSERT_TRUE(ctrl.offer(req(value, value), now).admitted);

  const auto d = ctrl.offer(req(9, 4), now);
  ASSERT_TRUE(d.admitted);
  EXPECT_EQ(d.shed_victims, 1u);
  ASSERT_EQ(shed.size(), 1u);
  EXPECT_EQ(shed[0], 1u);  // value 1: the lowest density
  EXPECT_EQ(d.h, 1u);      // the freed slot is reused
  EXPECT_EQ(ctrl.stats().shed, 1u);

  // Value 2 is now the cheapest live request.
  ASSERT_TRUE(ctrl.offer(req(10, 5), now).admitted);
  ASSERT_EQ(shed.size(), 2u);
  EXPECT_EQ(shed[1], 0u);
}

// Equal density sheds in admission order, whatever slot a request sits in:
// a request admitted into a reused low slot is still the newest.
TEST(AdmissionControllerTest, EqualDensityShedsOldestAdmissionFirst) {
  admission_controller ctrl = small_controller();
  std::vector<admission_controller::handle> shed;
  ctrl.on_shed([&](admission_controller::handle h) { shed.push_back(h); });
  const time_point now = time_point::at(1_ms);
  for (std::uint32_t i = 0; i < 3; ++i)
    ASSERT_EQ(ctrl.offer(req(i, 1), now).h, i);
  ctrl.complete(0);
  const auto newest = ctrl.offer(req(3, 1), now);
  ASSERT_TRUE(newest.admitted);
  EXPECT_EQ(newest.h, 0u);

  const auto first = ctrl.offer(req(4, 2), now);
  ASSERT_TRUE(first.admitted);
  EXPECT_EQ(first.shed_victims, 1u);
  const auto second = ctrl.offer(req(5, 2), now);
  ASSERT_TRUE(second.admitted);
  EXPECT_EQ(second.shed_victims, 1u);
  EXPECT_EQ(shed, (std::vector<admission_controller::handle>{1, 2}));
  EXPECT_EQ(ctrl.outstanding(), 3u);
}

// The pool reserves `reserved_slots` and grows past them when the load runs
// deeper: handles stay dense and the decisions follow the same rules, lowest
// free slot on admit and oldest equal-density request on shed.
TEST(AdmissionControllerTest, PoolGrowsPastItsReservationWithDenseHandles) {
  constexpr std::uint32_t depth = 2 * admission_controller::reserved_slots + 8;
  admission_controller::config c;
  c.feas.slot_width = 1_ms;
  c.feas.available = 1.0;
  c.max_outstanding = depth;
  admission_controller ctrl(c);
  std::vector<admission_controller::handle> shed;
  ctrl.on_shed([&](admission_controller::handle h) { shed.push_back(h); });
  const time_point now = time_point::at(1_ms);
  for (std::uint32_t i = 0; i < depth; ++i) {
    const auto d = ctrl.offer(req(i, 1), now);
    ASSERT_TRUE(d.admitted);
    ASSERT_EQ(d.h, i);
  }
  EXPECT_EQ(ctrl.outstanding(), depth);
  EXPECT_TRUE(ctrl.revalidate(now));

  // Slots freed on both sides of the reservation are reused lowest first.
  for (const admission_controller::handle h : {100u, 5u, 70u}) ctrl.complete(h);
  for (const admission_controller::handle h : {5u, 70u, 100u}) {
    const auto d = ctrl.offer(req(1000 + h, 1), now);
    ASSERT_TRUE(d.admitted);
    EXPECT_EQ(d.h, h);
  }
  // Full: an equal-density newcomer bounces, a denser one sheds the oldest
  // admission and takes its slot.
  EXPECT_FALSE(ctrl.offer(req(2000, 1), now).admitted);
  const auto d = ctrl.offer(req(2001, 2), now);
  ASSERT_TRUE(d.admitted);
  EXPECT_EQ(d.shed_victims, 1u);
  EXPECT_EQ(shed, (std::vector<admission_controller::handle>{0}));
  EXPECT_EQ(d.h, 0u);
  EXPECT_EQ(ctrl.outstanding(), depth);
  EXPECT_TRUE(ctrl.revalidate(now));
  EXPECT_EQ(ctrl.stats().revalidation_failures, 0u);
}

TEST(AdmissionControllerTest, RevalidatePassesAfterGrowthAndCompletions) {
  admission_controller ctrl = small_controller();
  time_point now = time_point::at(1_ms);
  EXPECT_TRUE(ctrl.revalidate(now));
  for (std::uint32_t i = 0; i < 3; ++i)
    ASSERT_TRUE(ctrl.offer(req(i, 1), now).admitted);
  EXPECT_TRUE(ctrl.revalidate(now));
  ctrl.complete(0);
  ctrl.complete(2);
  now = now + 1_ms;
  EXPECT_TRUE(ctrl.revalidate(now));
  ASSERT_TRUE(ctrl.offer(req(5, 1), now).admitted);
  ctrl.complete(1);
  EXPECT_TRUE(ctrl.revalidate(now));
  EXPECT_EQ(ctrl.stats().revalidations, 4u);
  EXPECT_EQ(ctrl.stats().revalidation_failures, 0u);
}

// The end-to-end gate: one edge scenario cell, swept across backends. This
// is the same determinism contract the campaign enforces for every
// (scenario, seed) — asserted here directly so a traffic-layer regression
// fails a unit test, not just the (slower) campaign smoke.
TEST(GatewayParityTest, EdgeScenarioChecksumIsBackendIndependent) {
  const scenario::scenario_spec spec =
      scenario::find_scenario("edge_burst_storm");
  const scenario::cell_result ref = scenario::run_cell(spec, 1, 1);
  EXPECT_TRUE(ref.passed);
  ASSERT_TRUE(ref.obs.traffic_checked);
  EXPECT_GT(ref.obs.traffic_offered, 0u);
  EXPECT_EQ(ref.obs.traffic_offered,
            ref.obs.traffic_admitted + ref.obs.traffic_rejected);
  EXPECT_GT(ref.obs.traffic_shed, 0u);  // the storm must actually shed
  EXPECT_EQ(ref.obs.traffic_revalidation_failures, 0u);
  for (const std::size_t shards : {2u, 4u}) {
    const scenario::cell_result c = scenario::run_cell(spec, 1, shards);
    EXPECT_EQ(c.checksum, ref.checksum)
        << "shards=" << shards << " diverged from the single-shard reference";
    EXPECT_TRUE(c.passed);
  }
}

}  // namespace
}  // namespace hades::traffic
