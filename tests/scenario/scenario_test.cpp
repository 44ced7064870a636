#include "scenario/plan.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "core/system.hpp"
#include "sched/spring.hpp"
#include "scenario/checkers.hpp"
#include "scenario/deployment.hpp"
#include "scenario/scenarios.hpp"
#include "services/clock_sync.hpp"
#include "services/fault_detector.hpp"

namespace hades::scenario {
namespace {

using namespace hades::literals;

core::system::config lan() {
  core::system::config cfg;
  cfg.costs = core::cost_model::zero();
  cfg.kernel_background = false;
  cfg.net.delta_min = 20_us;
  cfg.net.delta_max = 60_us;
  return cfg;
}

// --- plan ground-truth queries ----------------------------------------------

TEST(PlanTest, DownWindowsTrackCrashRecoverPairs) {
  plan p;
  p.crash(time_point::at(100_ms), 3)
      .recover(time_point::at(300_ms), 3)
      .crash(time_point::at(700_ms), 3);
  const ground_truth truth(p, 4, time_point::at(1_s));
  const auto ws = truth.down_windows(3);
  ASSERT_EQ(ws.size(), 2u);
  EXPECT_EQ(ws[0].from, time_point::at(100_ms));
  EXPECT_EQ(ws[0].to, time_point::at(300_ms));
  EXPECT_EQ(ws[1].from, time_point::at(700_ms));
  EXPECT_EQ(ws[1].to, time_point::at(1_s));  // open until the horizon
  EXPECT_TRUE(p.down_at(3, time_point::at(200_ms)));
  EXPECT_FALSE(p.down_at(3, time_point::at(400_ms)));
  EXPECT_TRUE(p.ever_down(3));
  EXPECT_TRUE(p.correct_throughout(1));
}

TEST(PlanTest, SeparationWindowsFollowPartitionAndHeal) {
  plan p;
  p.split(time_point::at(200_ms), {{0, 1}, {2, 3}}).heal(time_point::at(500_ms));
  const ground_truth truth(p, 5, time_point::at(1_s));
  std::vector<window> apart;
  truth.separated_windows(0, 2, apart);
  ASSERT_EQ(apart.size(), 1u);
  EXPECT_EQ(apart[0].from, time_point::at(200_ms));
  EXPECT_EQ(apart[0].to, time_point::at(500_ms));
  truth.separated_windows(0, 1, apart);
  EXPECT_TRUE(apart.empty());
  // Node 4 is unlisted: connected to both sides.
  truth.separated_windows(0, 4, apart);
  EXPECT_TRUE(apart.empty());
}

TEST(PlanTest, QuietExcludesRateWindowsButNotBursts) {
  plan p;
  p.omission_rate(time_point::at(300_ms), 0.2)
      .omission_rate(time_point::at(600_ms), 0.0)
      .omission_burst(time_point::at(800_ms), 0, 1, 2);
  const ground_truth truth(p, 2, time_point::at(1_s));
  EXPECT_TRUE(truth.quiet(time_point::at(100_ms), 10_ms));
  EXPECT_FALSE(truth.quiet(time_point::at(400_ms), 10_ms));
  EXPECT_FALSE(truth.quiet(time_point::at(295_ms), 10_ms));  // pad overlaps
  EXPECT_TRUE(truth.quiet(time_point::at(700_ms), 10_ms));
  // Scripted bursts are masked deterministically: still quiet.
  EXPECT_TRUE(truth.quiet(time_point::at(800_ms), 10_ms));
}

TEST(PlanTest, LinkDownWindowsAreDirectional) {
  plan p;
  p.link_down(time_point::at(200_ms), 4, 1).link_up(time_point::at(500_ms), 4, 1);
  const ground_truth truth(p, 5, time_point::at(1_s));
  std::vector<window> ws;
  truth.link_down_windows(4, 1, ws);
  ASSERT_EQ(ws.size(), 1u);
  EXPECT_EQ(ws[0].from, time_point::at(200_ms));
  EXPECT_EQ(ws[0].to, time_point::at(500_ms));
  // The reverse direction never went down.
  truth.link_down_windows(1, 4, ws);
  EXPECT_TRUE(ws.empty());
  // Heartbeats travel subject -> observer: node 1 cannot hear node 4 while
  // 4 -> 1 is dead, but node 4 still hears node 1.
  truth.unreachable_windows(1, 4, ws);
  ASSERT_EQ(ws.size(), 1u);
  EXPECT_EQ(ws[0].from, time_point::at(200_ms));
  truth.unreachable_windows(4, 1, ws);
  EXPECT_TRUE(ws.empty());
  // A dead direction disturbs broadcast gradeability like a partition does.
  EXPECT_FALSE(truth.quiet(time_point::at(300_ms), 10_ms));
  EXPECT_TRUE(truth.quiet(time_point::at(600_ms), 10_ms));
}

TEST(PlanTest, ClockFaultMarksTheNodeByzantine) {
  plan p;
  p.clock_byzantine(time_point::at(250_ms), 2, 2.0, 1_ms);
  EXPECT_TRUE(p.clock_faulty(2));
  EXPECT_FALSE(p.clock_faulty(3));
  // A Byzantine clock is not a network disturbance.
  const ground_truth truth(p, 4, time_point::at(1_s));
  EXPECT_TRUE(truth.quiet(time_point::at(300_ms), 10_ms));
}

// --- injector end-to-end ----------------------------------------------------

TEST(InjectorTest, CrashAndRecoverDriveDetectorThroughFullCycle) {
  core::system sys(3, lan());
  svc::fault_detector fd(sys, {10_ms, 25_ms});
  fd.start();
  plan p;
  p.crash(time_point::at(100_ms + 137_us), 2)
      .recover(time_point::at(300_ms + 151_us), 2);
  apply(sys, p);
  sys.run_until(time_point::at(200_ms));
  EXPECT_TRUE(sys.crashed(2));
  EXPECT_TRUE(fd.suspects(0, 2));
  EXPECT_TRUE(fd.suspects(1, 2));
  sys.run_until(time_point::at(400_ms));
  EXPECT_FALSE(sys.crashed(2));
  EXPECT_FALSE(fd.suspects(0, 2));
  EXPECT_FALSE(fd.suspects(1, 2));
  // The monitor saw both transitions.
  EXPECT_EQ(sys.mon().count(core::monitor_event_kind::node_crash), 1u);
  EXPECT_EQ(sys.mon().count(core::monitor_event_kind::node_recover), 1u);
}

TEST(InjectorTest, PartitionBlocksCrossTrafficUntilHealed) {
  core::system sys(4, lan());
  svc::fault_detector fd(sys, {10_ms, 25_ms});
  fd.start();
  plan p;
  p.split(time_point::at(100_ms + 137_us), {{0, 1}, {2, 3}})
      .heal(time_point::at(300_ms + 151_us));
  apply(sys, p);
  sys.run_until(time_point::at(250_ms));
  EXPECT_TRUE(fd.suspects(0, 2));
  EXPECT_TRUE(fd.suspects(2, 0));
  EXPECT_FALSE(fd.suspects(0, 1));
  EXPECT_FALSE(fd.suspects(2, 3));
  sys.run_until(time_point::at(400_ms));
  EXPECT_FALSE(fd.suspects(0, 2));
  EXPECT_FALSE(fd.suspects(2, 0));
}

TEST(InjectorTest, AsymmetricLinkDownSilencesOneDirectionOnly) {
  core::system sys(3, lan());
  svc::fault_detector fd(sys, {10_ms, 25_ms});
  fd.start();
  plan p;
  p.link_down(time_point::at(100_ms + 137_us), 2, 0)
      .link_up(time_point::at(300_ms + 151_us), 2, 0);
  apply(sys, p);
  sys.run_until(time_point::at(250_ms));
  // Node 0 stops hearing node 2; node 2 still hears everyone.
  EXPECT_TRUE(fd.suspects(0, 2));
  EXPECT_FALSE(fd.suspects(2, 0));
  EXPECT_FALSE(fd.suspects(1, 2));  // bystander direction untouched
  sys.run_until(time_point::at(400_ms));
  EXPECT_FALSE(fd.suspects(0, 2));
}

TEST(InjectorTest, ByzantineClockIsMaskedByTrimmedSync) {
  core::system sys(4, lan());
  svc::clock_sync_service::params sp;
  sp.resync_period = 50_ms;
  sp.collect_window = 2_ms;
  sp.max_faulty = 1;
  svc::clock_sync_service sync(sys, sp);
  sync.start();
  plan p;
  p.clock_byzantine(time_point::at(100_ms + 113_us), 3, 3.0, 2_ms)
      .clock_drift(time_point::at(100_ms + 127_us), 1, 200e-6);
  apply(sys, p);
  sys.run_until(time_point::at(600_ms));
  EXPECT_TRUE(sys.clock(3).is_faulty());
  // The three honest clocks stay tightly synchronized despite the liar
  // participating in every round (n = 4 >= 3f + 1 for f = 1).
  EXPECT_LT(sync.max_skew({0, 1, 2}), 300_us);
}

// Regression: a node crashed while a scheduler notification was in flight
// (sched_busy_ latched, the sched thread destroyed before scheduler_step
// ran) used to stay unschedulable forever after recovery. Spring gates
// every activation behind the scheduler, so a stuck latch shows up as zero
// post-recovery completions.
TEST(InjectorTest, RecoveredNodeSchedulesTasksAgain) {
  core::system::config cfg = lan();
  cfg.costs.scheduler_per_event = 100_us;  // scheduling has latency
  core::system sys(2, cfg);
  core::task_builder job("job");
  job.deadline(5_ms).law(core::arrival_law::periodic(10_ms));
  job.add_code_eu("job", 0, 1_ms);
  const auto t = sys.register_task(job.build());
  sys.attach_policy(0, std::make_shared<sched::spring_policy>());
  plan p;
  // Crash lands 50us after an activation: inside the scheduler notification.
  p.crash(time_point::at(20_ms + 50_us), 0)
      .recover(time_point::at(100_ms + 137_us), 0);
  apply(sys, p);
  sys.run_until(time_point::at(300_ms));
  const auto& st = sys.stats_for(t);
  EXPECT_GT(st.completions, 15u)  // ~20 post-recovery activations complete
      << "node 0 stopped scheduling after recovery";
}

// --- checker semantics ------------------------------------------------------

TEST(CheckerTest, UnexplainedSuspicionFailsTheDetectorCheck) {
  plan p;  // no faults planned
  observation o;
  o.nodes = 2;
  o.horizon = time_point::at(1_s);
  o.detect_bound = 47_ms;
  o.recover_bound = 12_ms;
  o.suspicions.push_back({0, 1, time_point::at(500_ms)});
  const auto results = check_detector(p, o);
  ASSERT_FALSE(results.empty());
  EXPECT_EQ(results[0].name, "detector.no_false_suspicion");
  EXPECT_FALSE(results[0].passed);
}

TEST(CheckerTest, MissedDetectionFailsTheCompletenessCheck) {
  plan p;
  p.crash(time_point::at(100_ms), 1);
  observation o;
  o.nodes = 2;
  o.horizon = time_point::at(1_s);
  o.detect_bound = 47_ms;
  o.recover_bound = 12_ms;
  // No suspicion observed although node 1 was down past the bound.
  const auto results = check_detector(p, o);
  EXPECT_FALSE(results[1].passed);
  EXPECT_EQ(results[1].name, "detector.crash_detected_within_bound");
}

// Regression: a suspicion during an omission-rate storm is legitimate — the
// storm can exceed the omission degree the perfection bound assumes — and
// must not fail the no-false-suspicion check.
TEST(CheckerTest, StormWindowJustifiesSuspicion) {
  plan p;
  p.omission_rate(time_point::at(300_ms), 0.5)
      .omission_rate(time_point::at(900_ms), 0.0);
  observation o;
  o.nodes = 2;
  o.horizon = time_point::at(1500_ms);
  o.detect_bound = 47_ms;
  o.recover_bound = 12_ms;
  o.suspicions.push_back({0, 1, time_point::at(340_ms)});
  const auto results = check_detector(p, o);
  EXPECT_TRUE(results[0].passed) << results[0].detail;
  // Outside the storm (plus detection slack) the suspicion stays false.
  observation late = o;
  late.suspicions[0].at = time_point::at(1200_ms);
  EXPECT_FALSE(check_detector(p, late)[0].passed);
}

// Regression: a node that re-crashes within one heartbeat of recovering is
// one continuous unreachability from the observers' point of view — the
// suspicion flag never clears, so the checkers must not demand a fresh
// suspicion (completeness) or an un-suspect event (recovery) for the
// second window.
TEST(CheckerTest, RecrashWithinHeartbeatIsOneContinuousOutage) {
  plan p;
  p.crash(time_point::at(400_ms), 1)
      .recover(time_point::at(900_ms), 1)
      .crash(time_point::at(902_ms), 1);
  observation o;
  o.nodes = 2;
  o.horizon = time_point::at(1500_ms);
  o.detect_bound = 47_ms;
  o.recover_bound = 12_ms;  // > the 2ms up-gap: windows glue shut
  o.suspicions.push_back({0, 1, time_point::at(440_ms)});
  // No recovery event: the subject was never heard again.
  for (const auto& r : check_detector(p, o))
    EXPECT_TRUE(r.passed) << r.name << ": " << r.detail;
}

TEST(CheckerTest, RegistryShipsTheCampaignFamily) {
  const auto scenarios = all_scenarios();
  EXPECT_GE(scenarios.size(), 8u);
  for (const auto& s : scenarios) {
    EXPECT_FALSE(s.name.empty());
    EXPECT_GE(s.nodes, 4u);
    EXPECT_GT(s.horizon, duration::zero());
  }
  EXPECT_EQ(find_scenario("single_crash").name, "single_crash");
  EXPECT_THROW(find_scenario("no_such_scenario"), invariant_violation);
}

// --- deployment --------------------------------------------------------------

bool same(const std::vector<observation::suspicion>& a,
          const std::vector<observation::suspicion>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (a[i].observer != b[i].observer || a[i].subject != b[i].subject ||
        a[i].at != b[i].at)
      return false;
  return true;
}

// collect() reads suspicions and recoveries from the monitor's detector
// records. They must be exactly what the detector's callbacks report, and
// the suspicion-counting mode policy must switch at the date it always has.
TEST(DeploymentTest, CollectedSuspicionsMatchTheDetectorCallbacks) {
  const struct {
    const char* scenario;
    std::int64_t switch_ns;
  } cases[] = {{"single_crash", 500'157'000},
               {"partition_degrades_mode", 490'020'000}};
  for (const auto& c : cases) {
    SCOPED_TRACE(c.scenario);
    deployment_options opt;
    opt.seed = 1;
    deployment d(find_scenario(c.scenario), opt);
    std::vector<observation::suspicion> suspected, recovered;
    d.fd().on_suspect([&](node_id o, node_id s, time_point at) {
      suspected.push_back({o, s, at});
    });
    d.fd().on_recover([&](node_id o, node_id s, time_point at) {
      recovered.push_back({o, s, at});
    });
    d.start();
    d.run();
    const observation obs = d.collect();
    sort_suspicions(suspected);
    sort_suspicions(recovered);
    EXPECT_FALSE(suspected.empty());
    EXPECT_TRUE(same(obs.suspicions, suspected));
    EXPECT_TRUE(same(obs.recoveries, recovered));
    ASSERT_EQ(obs.mode_switches.size(), 1u);
    EXPECT_EQ(obs.mode_switches[0].to, svc::op_mode::degraded);
    EXPECT_EQ(obs.mode_switches[0].at.nanoseconds(), c.switch_ns);
  }
}

}  // namespace
}  // namespace hades::scenario
