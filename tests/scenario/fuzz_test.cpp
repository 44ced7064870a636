// Scenario fuzzing: plan validation, JSON round-trips, generator
// determinism, matrix replay, and shrinker soundness (DESIGN.md,
// "Scenario fuzzing & minimization").
#include "scenario/fuzz.hpp"

#include <gtest/gtest.h>

#include "scenario/campaign.hpp"
#include "util/error.hpp"
#include "util/fnv.hpp"

namespace hades::scenario {
namespace {

using namespace hades::literals;

// ------------------------------------------------------------- validate --

TEST(PlanValidateTest, CuratedScenariosAreAllValid) {
  for (const scenario_spec& s : all_scenarios())
    EXPECT_TRUE(s.p.validate(s.nodes, time_point::at(s.horizon)).empty())
        << s.name;
}

TEST(PlanValidateTest, FlagsIllFormedTimelines) {
  const time_point horizon = time_point::at(1500_ms);
  {
    plan p;  // recover without a prior crash
    p.recover(time_point::at(500_ms), 2);
    EXPECT_FALSE(p.validate(8, horizon).empty());
  }
  {
    plan p;  // heal without a partition in force
    p.heal(time_point::at(500_ms));
    EXPECT_FALSE(p.validate(8, horizon).empty());
  }
  {
    plan p;  // link_up without a matching link_down
    p.link_up(time_point::at(500_ms), 1, 2);
    EXPECT_FALSE(p.validate(8, horizon).empty());
  }
  {
    plan p;  // action at/past the horizon
    p.crash(time_point::at(1500_ms), 1);
    EXPECT_FALSE(p.validate(8, horizon).empty());
  }
  {
    plan p;  // node id out of range
    p.crash(time_point::at(500_ms), 9);
    EXPECT_FALSE(p.validate(8, horizon).empty());
  }
  {
    plan p;  // double crash of the same node
    p.crash(time_point::at(400_ms), 3).crash(time_point::at(600_ms), 3);
    EXPECT_FALSE(p.validate(8, horizon).empty());
  }
}

// An ill-formed plan must fail loudly at apply time, not silently no-op:
// the deployment's start() validates against its own node count + horizon.
TEST(PlanValidateTest, ApplyRejectsIllFormedPlans) {
  scenario_spec s = find_scenario("clean");
  s.p.recover(time_point::at(500_ms + 137_us), 2);  // never crashed
  EXPECT_THROW(run_cell(s, 1, 1), invariant_violation);
}

// --------------------------------------------------------- JSON round-trip --

TEST(PlanJsonTest, EveryCuratedPlanRoundTripsExactly) {
  for (const scenario_spec& s : all_scenarios()) {
    const plan parsed = plan_from_json(plan_to_json(s.p));
    ASSERT_EQ(parsed.actions.size(), s.p.actions.size()) << s.name;
    for (std::size_t i = 0; i < parsed.actions.size(); ++i) {
      const action& a = s.p.actions[i];
      const action& b = parsed.actions[i];
      EXPECT_EQ(a.at, b.at) << s.name;
      EXPECT_EQ(a.kind, b.kind) << s.name;
      EXPECT_EQ(a.a, b.a) << s.name;
      EXPECT_EQ(a.b, b.b) << s.name;
      EXPECT_EQ(a.channel, b.channel) << s.name;
      EXPECT_EQ(a.count, b.count) << s.name;
      EXPECT_EQ(a.rate, b.rate) << s.name;  // exact: ppm round-trip
      EXPECT_EQ(a.extra, b.extra) << s.name;
      EXPECT_EQ(a.groups, b.groups) << s.name;
    }
  }
}

// The round-trip guarantee that matters: a parsed plan replays to the very
// same checksum as the original.
TEST(PlanJsonTest, ParsedPlanReplaysBitIdentically) {
  scenario_spec spec = find_scenario("replication_failover_rolling_crashes");
  const std::uint64_t reference = run_cell(spec, 1, 2).checksum;
  spec.p = plan_from_json(plan_to_json(spec.p));
  EXPECT_EQ(run_cell(spec, 1, 2).checksum, reference);
}

TEST(FuzzJsonTest, FuzzCaseRoundTripsAndReplaysBitIdentically) {
  for (std::uint64_t i = 1; i <= 6; ++i) {
    const fuzz_case c = generate_case(7, i);
    const fuzz_case back = fuzz_case_from_json(fuzz_case_to_json(c));
    EXPECT_EQ(back.case_seed, c.case_seed);
    EXPECT_EQ(back.spec.nodes, c.spec.nodes);
    EXPECT_EQ(back.spec.p.actions.size(), c.spec.p.actions.size());
    EXPECT_EQ(back.spec.modes.final_mode, c.spec.modes.final_mode);
    EXPECT_EQ(back.spec.traffic.rate_per_s, c.spec.traffic.rate_per_s);
    EXPECT_EQ(fuzz_case_to_json(back), fuzz_case_to_json(c));
    EXPECT_EQ(run_cell(back.spec, back.case_seed, 1).checksum,
              run_cell(c.spec, c.case_seed, 1).checksum);
  }
}

// ------------------------------------------------------------- generator --

// Same seed => same plans, and the cases are admissible by construction.
// The serialized stream must be identical across compilers too — the
// generator draws integers only, and rates cross into double through one
// correctly-rounded ppm division — so the stream's FNV digest is pinned to
// a golden constant that CI's gcc and clang legs must both reproduce.
TEST(FuzzGeneratorTest, SameSeedSamePlans) {
  fnv1a h;
  for (std::uint64_t i = 0; i < 24; ++i) {
    const fuzz_case a = generate_case(42, i);
    const fuzz_case b = generate_case(42, i);
    const std::string doc = fuzz_case_to_json(a);
    EXPECT_EQ(doc, fuzz_case_to_json(b));
    EXPECT_TRUE(
        a.spec.p.validate(a.spec.nodes, time_point::at(a.spec.horizon))
            .empty());
    h.mix_bytes(doc);
  }
  EXPECT_EQ(h.value(), 0xDF1385895F954FD2ull)
      << "generated stream digest changed: 0x" << std::hex << h.value();
  // Different seeds diverge.
  EXPECT_NE(fuzz_case_to_json(generate_case(42, 1)),
            fuzz_case_to_json(generate_case(43, 1)));
}

// Every generated cell replays bit-identically across the shard-count
// matrix and passes every checker — a red checker in a fuzz campaign must
// mean a real finding, so the generator's admissibility rules are load-
// bearing and get their own gate here.
TEST(FuzzGeneratorTest, GeneratedCasesPassTheMatrix) {
  for (std::uint64_t i = 1; i <= 3; ++i) {
    const fuzz_case c = generate_case(1, i);
    const matrix_verdict v = run_matrix(c, 4);
    EXPECT_TRUE(v.checksums_match) << c.spec.name;
    EXPECT_TRUE(v.passed) << c.spec.name << ": " << v.failure_signature;
  }
}

// -------------------------------------------------------------- coverage --

TEST(FuzzCoverageTest, FoldIsDeterministicAndMergeCountsNovelty) {
  const fuzz_case c = generate_case(5, 2);
  const matrix_verdict v1 = run_matrix(c, 2);
  const matrix_verdict v2 = run_matrix(c, 1);
  EXPECT_EQ(v1.coverage.to_json(), v2.coverage.to_json());
  coverage_map total;
  EXPECT_GT(total.merge(v1.coverage), 0u);
  EXPECT_EQ(total.merge(v2.coverage), 0u);  // nothing new the second time
}

// -------------------------------------------------------------- shrinker --

// A seeded known-bad case: the spec expects a fault-free NORMAL run but the
// plan crashes three nodes (plus removable garnish). The modes checker
// fails; ddmin must reduce the repro to a handful of actions that still
// fail the same checker, and shrinking must be idempotent.
TEST(FuzzShrinkerTest, KnownBadPlanShrinksToMinimalRepro) {
  fuzz_case c;
  c.case_seed = 11;
  c.spec = find_scenario("clean");
  c.spec.name = "known_bad";
  c.spec.p.name = c.spec.name;
  c.spec.p.crash(time_point::at(300_ms + 137_us), 1)
      .crash(time_point::at(500_ms + 149_us), 4)
      .crash(time_point::at(700_ms + 211_us), 6)
      .omission_burst(time_point::at(400_ms + 173_us), 2, 3, 2, -1)
      .recover(time_point::at(1000_ms + 251_us), 1);
  // Deliberately wrong expectation: three crashes land in SAFE.
  c.spec.modes.final_mode = svc::op_mode::normal;

  const matrix_verdict v = run_matrix(c, 4);
  ASSERT_FALSE(v.passed);
  ASSERT_FALSE(v.failure_signature.empty());

  const fuzz_case shrunk = shrink_case(c, v.failure_signature, 4);
  EXPECT_LE(shrunk.spec.p.actions.size(), 6u);
  EXPECT_LT(shrunk.spec.p.actions.size(), c.spec.p.actions.size());
  // Still fails the same checker across the whole matrix.
  const matrix_verdict vs = run_matrix(shrunk, 4);
  EXPECT_EQ(vs.failure_signature, v.failure_signature);
  // Idempotent: shrinking the shrunken case returns it unchanged.
  const fuzz_case again = shrink_case(shrunk, v.failure_signature, 4);
  EXPECT_EQ(fuzz_case_to_json(again), fuzz_case_to_json(shrunk));
}

// ------------------------------------------------------------- campaign --

TEST(FuzzCampaignTest, SmallCampaignIsCleanAndGrowsCoverage) {
  fuzz_options opt;
  opt.campaign_seed = 3;
  opt.cases = 5;
  opt.jobs = 4;
  const fuzz_result r = run_fuzz(opt);
  EXPECT_EQ(r.cases_run, 5u);
  EXPECT_GT(r.corpus_size, 0u);
  EXPECT_GT(r.coverage.popcount(), 0u);
  EXPECT_TRUE(r.failing.empty())
      << r.failure_signatures.front() << " in "
      << r.failing.front().spec.name;
}

}  // namespace
}  // namespace hades::scenario
