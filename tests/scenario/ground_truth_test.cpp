// The grading index must answer exactly what the plan's own queries answer:
// every registry plan and the first 200 generated fuzz plans, every node
// and every (observer, subject) pair.
#include <gtest/gtest.h>

#include <span>
#include <string>
#include <vector>

#include "scenario/fuzz.hpp"
#include "scenario/plan.hpp"
#include "scenario/scenarios.hpp"

namespace hades::scenario {
namespace {

bool same(std::span<const window> a, const std::vector<window>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (a[i].from != b[i].from || a[i].to != b[i].to) return false;
  return true;
}

void expect_index_matches_plan(const scenario_spec& spec) {
  const plan& p = spec.p;
  const time_point horizon = time_point::at(spec.horizon);
  const ground_truth truth(p, spec.nodes, horizon);
  ASSERT_TRUE(same(truth.disturbed_windows(), p.disturbed_windows(horizon)))
      << spec.name;
  std::vector<window> ws;
  for (node_id a = 0; a < spec.nodes; ++a) {
    ASSERT_TRUE(same(truth.down_windows(a), p.down_windows(a, horizon)))
        << spec.name << " node " << a;
    for (node_id b = 0; b < spec.nodes; ++b) {
      if (a == b) continue;
      truth.unreachable_windows(a, b, ws);
      ASSERT_TRUE(same(ws, p.unreachable_windows(a, b, horizon)))
          << spec.name << " observer " << a << " subject " << b;
    }
  }
}

TEST(GroundTruthTest, RegistryPlansMatchThePlanQueries) {
  for (const scenario_spec& spec : all_scenarios())
    expect_index_matches_plan(spec);
  for (const scenario_spec& spec : scale_scenarios())
    expect_index_matches_plan(spec);
}

TEST(GroundTruthTest, GeneratedPlansMatchThePlanQueries) {
  for (std::uint64_t i = 0; i < 200; ++i)
    expect_index_matches_plan(generate_case(1, i).spec);
}

TEST(GroundTruthTest, OutageOpenAtTheHorizonNeverEnds) {
  plan p;
  p.crash(time_point::at(duration::milliseconds(100)), 1);
  const ground_truth truth(p, 3, time_point::at(duration::milliseconds(500)));
  ASSERT_EQ(truth.down_windows(1).size(), 1u);
  EXPECT_EQ(truth.down_windows(1)[0].to,
            time_point::at(duration::milliseconds(500)));
  // Past the horizon the node is still down, as plan::down_at says.
  const time_point late = time_point::at(duration::milliseconds(700));
  EXPECT_TRUE(truth.down_at(1, late));
  EXPECT_EQ(truth.down_at(1, late), p.down_at(1, late));
  // Ids past the indexed node count read as never down.
  EXPECT_TRUE(truth.down_windows(5).empty());
  EXPECT_FALSE(truth.down_at(5, late));
}

}  // namespace
}  // namespace hades::scenario
