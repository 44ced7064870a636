#include "scenario/campaign.hpp"

#include <gtest/gtest.h>

namespace hades::scenario {
namespace {

// One full cell: every checker green on the default backend.
TEST(CampaignTest, SingleCrashCellPassesAllCheckers) {
  const cell_result cell = run_cell(find_scenario("single_crash"), 1, 1);
  EXPECT_TRUE(cell.passed);
  for (const auto& c : cell.checks)
    EXPECT_TRUE(c.passed) << c.name << ": " << c.detail;
  EXPECT_GT(cell.obs.suspicions.size(), 0u);
  EXPECT_EQ(cell.obs.final_mode, svc::op_mode::degraded);
}

// The determinism gate: the same (scenario, seed) must produce bit-identical
// checksums on the single-engine and sharded backends.
TEST(CampaignTest, ChecksumIsBitIdenticalAcrossShardCounts) {
  const scenario_spec spec = find_scenario("crash_recover");
  const cell_result one = run_cell(spec, 3, 1);
  const cell_result two = run_cell(spec, 3, 2);
  const cell_result four = run_cell(spec, 3, 4);
  EXPECT_EQ(one.checksum, two.checksum);
  EXPECT_EQ(one.checksum, four.checksum);
  EXPECT_TRUE(one.passed);
  EXPECT_TRUE(two.passed);
  EXPECT_TRUE(four.passed);
  // And a different seed draws different wire behaviour.
  EXPECT_NE(run_cell(spec, 4, 1).checksum, one.checksum);
}

// The campaign driver flags a checker failure as a gate violation.
TEST(CampaignTest, CampaignAggregatesAndGates) {
  campaign_options opt;
  opt.scenarios = {"clean", "partition_heal"};
  opt.seeds = {1};
  opt.shard_counts = {1, 2};
  opt.verbose = false;
  const campaign_result r = run_campaign(opt);
  EXPECT_EQ(r.cells.size(), 4u);
  EXPECT_TRUE(r.passed) << (r.failures.empty() ? "" : r.failures.front());
  EXPECT_TRUE(r.failures.empty());
}

TEST(CampaignTest, VerdictJsonCarriesTheSchemaFields) {
  const cell_result cell = run_cell(find_scenario("clean"), 1, 1);
  const std::string json = render_verdict_json(cell);
  for (const char* field :
       {"\"scenario\"", "\"seed\"", "\"shards\"", "\"horizon_ns\"",
        "\"checksum\"", "\"passed\"", "\"checks\"", "\"stats\"",
        "\"final_mode\""})
    EXPECT_NE(json.find(field), std::string::npos) << field;
  EXPECT_NE(json.find("\"passed\": true"), std::string::npos);
}

}  // namespace
}  // namespace hades::scenario
