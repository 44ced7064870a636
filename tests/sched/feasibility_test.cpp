// Feasibility-analysis tests, including the *safety* property the whole
// section-5.3 exercise exists for: a task set accepted by the
// cost-integrated test never misses a deadline when executed on the
// simulated dispatcher with those costs enabled.
#include "sched/feasibility.hpp"

#include <gtest/gtest.h>

#include "core/system.hpp"
#include "sched/edf.hpp"
#include "sched/srp.hpp"
#include "sched/workload.hpp"

namespace hades::sched {
namespace {

using namespace hades::literals;

analyzed_task mk(const std::string& n, duration c, duration d, duration t) {
  analyzed_task a;
  a.name = n;
  a.c = c;
  a.d = d;
  a.t = t;
  return a;
}

TEST(FeasibilityTest, EmptySetIsFeasible) {
  EXPECT_TRUE(edf_feasible({}).feasible);
}

TEST(FeasibilityTest, UtilizationAboveOneInfeasible) {
  const auto v = edf_feasible({mk("a", 3_ms, 4_ms, 4_ms),
                               mk("b", 3_ms, 8_ms, 8_ms)});
  EXPECT_FALSE(v.feasible);
}

TEST(FeasibilityTest, ImplicitDeadlineSetBelowOneIsFeasible) {
  const auto v = edf_feasible({mk("a", 1_ms, 4_ms, 4_ms),
                               mk("b", 2_ms, 8_ms, 8_ms),
                               mk("c", 2_ms, 16_ms, 16_ms)});
  EXPECT_TRUE(v.feasible);  // U = 0.625, D = T: EDF feasible
  EXPECT_GT(v.deadlines_checked, 0u);
}

TEST(FeasibilityTest, ConstrainedDeadlinesCanFail) {
  // U < 1 but both jobs must finish within 2ms of arrival: impossible.
  const auto v = edf_feasible({mk("a", 2_ms, 2_ms, 10_ms),
                               mk("b", 2_ms, 2_ms, 10_ms)});
  EXPECT_FALSE(v.feasible);
  EXPECT_NE(v.reason.find("demand"), std::string::npos);
}

TEST(FeasibilityTest, BlockingTermMakesTightSetInfeasible) {
  auto hi = mk("hi", 1_ms, 2_ms, 10_ms);
  hi.uses_resource = true;
  hi.resource = 1;
  hi.cs = 500_us;
  auto lo = mk("lo", 3_ms, 30_ms, 30_ms);
  lo.uses_resource = true;
  lo.resource = 1;
  lo.cs = 2_ms;  // can block hi for 2ms > hi's slack (1ms)
  EXPECT_FALSE(edf_feasible({hi, lo}).feasible);
  lo.cs = 500_us;  // short section: fits hi's slack
  EXPECT_TRUE(edf_feasible({hi, lo}).feasible);
}

TEST(FeasibilityTest, SrpBlockingComputation) {
  auto hi = mk("hi", 1_ms, 5_ms, 10_ms);
  hi.uses_resource = true;
  hi.resource = 1;
  hi.cs = 200_us;
  auto mid = mk("mid", 1_ms, 15_ms, 20_ms);
  auto lo = mk("lo", 2_ms, 40_ms, 40_ms);
  lo.uses_resource = true;
  lo.resource = 1;
  lo.cs = 1_ms;
  const auto b = srp_blocking({hi, mid, lo});
  EXPECT_EQ(b[0], 1_ms);  // hi blocked by lo's section on resource 1
  // mid is blocked too: lo's section has ceiling pi(hi) > pi(mid).
  EXPECT_EQ(b[1], 1_ms);
  EXPECT_EQ(b[2], duration::zero());  // lowest level: nobody blocks it
}

TEST(FeasibilityTest, CostInflationMatchesSection53) {
  core::cost_model cm;
  cm.c_act_start = 10_us;
  cm.c_act_end = 20_us;
  cm.c_local = 5_us;
  auto plain = mk("p", 1_ms, 10_ms, 10_ms);
  auto res = mk("r", 1_ms, 10_ms, 10_ms);
  res.uses_resource = true;
  res.resource = 1;
  res.cs = 300_us;
  const auto inflated = inflate_costs({plain, res}, cm);
  // n=1: C' = C + (start+end).
  EXPECT_EQ(inflated[0].c, 1_ms + 30_us);
  // n=3: C' = C + 3(start+end) + 2 c_local.
  EXPECT_EQ(inflated[1].c, 1_ms + 90_us + 10_us);
  // B': cs + start + end.
  EXPECT_EQ(inflated[1].cs, 300_us + 30_us);
}

TEST(FeasibilityTest, SchedulerCostTerm) {
  core::cost_model cm;
  cm.scheduler_per_event = 100_us;
  cm.c_act_start = 10_us;
  cm.c_act_end = 10_us;
  const auto ts = std::vector<analyzed_task>{mk("a", 1_ms, 10_ms, 10_ms),
                                             mk("b", 1_ms, 20_ms, 20_ms)};
  // sigma(20ms) = ceil(20/10)*(120us) + ceil(20/20)*(120us) = 2*120 + 120.
  EXPECT_EQ(scheduler_cost(ts, cm, 20_ms), 360_us);
}

TEST(FeasibilityTest, KernelCostTerm) {
  core::cost_model cm;
  cm.w_clk = 8_us;
  cm.p_clk = 1_ms;
  cm.w_net = 30_us;
  cm.p_net = 500_us;
  // kappa(10ms) = (10+1)*8us + (20+1)*30us = 88 + 630.
  EXPECT_EQ(kernel_cost(cm, 10_ms), 718_us);
}

TEST(FeasibilityTest, CostIntegrationIsStricterThanNaive) {
  // A set right at the edge: feasible with zero costs, infeasible once
  // realistic system costs are charged.
  const auto ts = std::vector<analyzed_task>{
      mk("a", 2_ms, 4_ms, 4_ms), mk("b", 3900_us, 8_ms, 8_ms)};
  EXPECT_TRUE(edf_feasible(ts).feasible);  // U ~ 0.9875
  EXPECT_FALSE(edf_feasible_with_costs(ts, core::cost_model::chorus_like())
                   .feasible);
}

TEST(FeasibilityTest, CostIntegrationReducesToNaiveAtZeroCosts) {
  rng r(7);
  workload_params p;
  p.task_count = 6;
  for (double u : {0.3, 0.6, 0.9}) {
    p.utilization = u;
    for (int i = 0; i < 20; ++i) {
      const auto ts = generate_taskset(p, r);
      EXPECT_EQ(edf_feasible(ts).feasible,
                edf_feasible_with_costs(ts, core::cost_model::zero()).feasible);
    }
  }
}

TEST(FeasibilityTest, RmResponseTimeAnalysis) {
  // Classic example: C=(1,2,3), T=(4,8,16) harmonic, RM feasible.
  const auto ok = rm_feasible({mk("a", 1_ms, 4_ms, 4_ms),
                               mk("b", 2_ms, 8_ms, 8_ms),
                               mk("c", 3_ms, 16_ms, 16_ms)});
  EXPECT_TRUE(ok.feasible);
  // Push c over the edge.
  const auto bad = rm_feasible({mk("a", 1_ms, 4_ms, 4_ms),
                                mk("b", 2_ms, 8_ms, 8_ms),
                                mk("c", 9_ms, 16_ms, 16_ms)});
  EXPECT_FALSE(bad.feasible);
}

TEST(FeasibilityTest, FixedPriorityResponseTimesExactOnExample) {
  const std::vector<analyzed_task> ts{mk("a", 1_ms, 4_ms, 4_ms),
                                      mk("b", 2_ms, 8_ms, 8_ms)};
  const auto rts = fixed_priority_response_times(
      ts, {duration::zero(), duration::zero()});
  ASSERT_TRUE(rts[0].has_value());
  ASSERT_TRUE(rts[1].has_value());
  EXPECT_EQ(*rts[0], 1_ms);
  EXPECT_EQ(*rts[1], 3_ms);  // 2 + one preemption by a
}

TEST(FeasibilityTest, UUniFastSumsToTarget) {
  rng r(3);
  for (int i = 0; i < 50; ++i) {
    const auto u = uunifast(8, 0.75, r);
    double sum = 0;
    for (double v : u) {
      EXPECT_GE(v, 0.0);
      EXPECT_LE(v, 0.7500001);
      sum += v;
    }
    EXPECT_NEAR(sum, 0.75, 1e-9);
  }
}

TEST(FeasibilityTest, GeneratedSetsRespectParams) {
  rng r(11);
  workload_params p;
  p.task_count = 10;
  p.utilization = 0.5;
  p.resource_fraction = 0.5;
  const auto ts = generate_taskset(p, r);
  ASSERT_EQ(ts.size(), 10u);
  EXPECT_NEAR(total_utilization(ts), 0.5, 0.05);
  for (const auto& t : ts) {
    EXPECT_GE(t.t, p.period_min);
    EXPECT_LE(t.t, p.period_max);
    EXPECT_EQ(t.d, t.t);  // implicit deadlines
    if (t.uses_resource) {
      EXPECT_GT(t.cs, duration::zero());
      EXPECT_LE(t.cs, t.c);
    }
  }
}

// --- The safety property (the point of section 5.3) -------------------------
// Accepted-by-cost-integrated-test => zero misses in simulation with costs.

class FeasibilitySafetyTest : public ::testing::TestWithParam<int> {};

TEST_P(FeasibilitySafetyTest, CostAcceptedSetsNeverMissInSimulation) {
  rng r(1000 + GetParam());
  workload_params p;
  p.task_count = 4;
  p.utilization = 0.55 + 0.05 * (GetParam() % 5);
  p.period_min = 4_ms;
  p.period_max = 40_ms;
  const auto costs = core::cost_model::chorus_like();
  const auto ts = generate_taskset(p, r);
  if (!edf_feasible_with_costs(ts, costs).feasible) {
    GTEST_SKIP() << "set rejected by the analysis";
  }

  core::system::config cfg;
  cfg.costs = costs;
  core::system sys(1, cfg);
  std::vector<const core::task_graph*> graphs;
  std::vector<task_id> ids;
  for (const auto& t : ts) {
    ids.push_back(sys.register_task(to_task_graph(t, 0)));
    graphs.push_back(&sys.graph(ids.back()));
  }
  sys.attach_policy(0, std::make_shared<edf_srp_policy>(graphs));
  // Sporadic tasks at their maximum rate (worst-case arrivals).
  for (std::size_t i = 0; i < ts.size(); ++i)
    for (time_point a = time_point::zero(); a < time_point::at(300_ms);
         a += ts[i].t)
      sys.activate_at(ids[i], a);
  sys.run_for(400_ms);
  EXPECT_EQ(sys.mon().count(core::monitor_event_kind::deadline_miss), 0u)
      << sys.mon().render(core::monitored_kinds);
}

INSTANTIATE_TEST_SUITE_P(Sweep, FeasibilitySafetyTest, ::testing::Range(0, 15));

}  // namespace
}  // namespace hades::sched
