#include <gtest/gtest.h>

#include <string>

#include "services/dependency.hpp"
#include "services/mode_manager.hpp"
#include "services/storage.hpp"

namespace hades::svc {
namespace {

using namespace hades::literals;

// ------------------------------------------------------------ stable_store

TEST(StableStoreTest, PutGetRoundTrip) {
  stable_store s;
  EXPECT_FALSE(s.get("k").has_value());
  EXPECT_TRUE(s.put("k", "v1"));
  EXPECT_EQ(s.get("k"), "v1");
  EXPECT_TRUE(s.put("k", "v2"));
  EXPECT_EQ(s.get("k"), "v2");
}

TEST(StableStoreTest, CrashBeforeWriteLosesNothing) {
  stable_store s;
  s.put("k", "v1");
  s.inject_crash(stable_store::crash_point::before_first_copy);
  EXPECT_FALSE(s.put("k", "v2"));
  EXPECT_TRUE(s.is_down());
  s.repair_and_restart();
  EXPECT_EQ(s.get("k"), "v1");  // old value intact
}

TEST(StableStoreTest, CrashBetweenCopiesRecoversNewValue) {
  stable_store s;
  s.put("k", "v1");
  s.inject_crash(stable_store::crash_point::between_copies);
  EXPECT_FALSE(s.put("k", "v2"));
  const auto repaired = s.repair_and_restart();
  // Copy A carries v2 (valid, newer); copy B is repaired from it.
  EXPECT_EQ(s.get("k"), "v2");
  EXPECT_GE(repaired, 1u);
}

TEST(StableStoreTest, CrashAfterBothCopiesIsDurable) {
  stable_store s;
  s.inject_crash(stable_store::crash_point::after_both);
  EXPECT_FALSE(s.put("k", "v1"));
  s.repair_and_restart();
  EXPECT_EQ(s.get("k"), "v1");
}

TEST(StableStoreTest, AccessWhileDownThrows) {
  stable_store s;
  s.inject_crash(stable_store::crash_point::between_copies);
  s.put("k", "v");
  EXPECT_THROW(static_cast<void>(s.get("k")), invariant_violation);
  EXPECT_THROW(s.put("k", "w"), invariant_violation);
  s.repair_and_restart();
  EXPECT_NO_THROW(static_cast<void>(s.get("k")));
}

TEST(StableStoreTest, NeverObservesTornRecordAcrossCrashMatrix) {
  // Property: after any single crash + recovery, the read is either the
  // previous committed value or the new one — never a mix, never absent.
  for (auto cp : {stable_store::crash_point::before_first_copy,
                  stable_store::crash_point::between_copies,
                  stable_store::crash_point::after_both}) {
    stable_store s;
    s.put("k", "old");
    s.inject_crash(cp);
    s.put("k", "new");
    s.repair_and_restart();
    const auto v = s.get("k");
    ASSERT_TRUE(v.has_value());
    EXPECT_TRUE(*v == "old" || *v == "new");
  }
}

// ------------------------------------------------------ dependency_tracker

using key = dependency_tracker::instance_key;

TEST(DependencyTrackerTest, DirectConsumers) {
  dependency_tracker d;
  d.record({2, 0}, {1, 0});
  d.record({3, 0}, {1, 0});
  EXPECT_EQ(d.consumers_of({1, 0}).size(), 2u);
  EXPECT_EQ(d.edge_count(), 2u);
}

TEST(DependencyTrackerTest, TransitiveClosure) {
  dependency_tracker d;
  d.record({2, 0}, {1, 0});
  d.record({3, 0}, {2, 0});
  d.record({4, 0}, {3, 0});
  d.record({5, 0}, {9, 9});  // unrelated
  const auto orphans = d.orphan_closure({1, 0});
  EXPECT_EQ(orphans.size(), 3u);
  EXPECT_TRUE(orphans.contains(key{4, 0}));
  EXPECT_FALSE(orphans.contains(key{5, 0}));
}

TEST(DependencyTrackerTest, CyclicDependenciesTerminate) {
  dependency_tracker d;
  d.record({2, 0}, {1, 0});
  d.record({1, 0}, {2, 0});  // mutual
  const auto orphans = d.orphan_closure({1, 0});
  EXPECT_EQ(orphans.size(), 1u);  // {2,0}; {1,0} itself excluded
}

TEST(DependencyTrackerTest, DuplicateEdgesCountedOnce) {
  dependency_tracker d;
  d.record({2, 0}, {1, 0});
  d.record({2, 0}, {1, 0});
  EXPECT_EQ(d.edge_count(), 1u);
}

// ----------------------------------------------------------- mode_manager

core::system::config quiet() {
  core::system::config cfg;
  cfg.costs = core::cost_model::zero();
  cfg.kernel_background = false;
  return cfg;
}

core::task_graph missing_task(node_id node) {
  core::task_builder b("late");
  b.deadline(1_ms);
  b.add_code_eu("late", node, 5_ms);
  return b.build();
}

TEST(ModeManagerTest, DeadlineMissesDegradeThenSafe) {
  core::system sys(1, quiet());
  mode_manager mm(sys, {1, 3, 1});
  const auto t = sys.register_task(missing_task(0));
  EXPECT_EQ(mm.mode(), op_mode::normal);
  sys.activate(t);
  sys.run_for(10_ms);
  EXPECT_EQ(mm.mode(), op_mode::degraded);
  sys.activate(t);
  sys.run_for(10_ms);
  sys.activate(t);
  sys.run_for(10_ms);
  EXPECT_EQ(mm.mode(), op_mode::safe);
  EXPECT_EQ(mm.switches(), 2u);
}

TEST(ModeManagerTest, NodeCrashGoesStraightToSafe) {
  core::system sys(2, quiet());
  mode_manager mm(sys, {1, 3, 1});
  sys.run_for(5_ms);
  sys.crash_node(1);
  sys.run_for(1_ms);
  EXPECT_EQ(mm.mode(), op_mode::safe);
  // Monitor events reach the manager's home shard one minimum network hop
  // after the trigger — the same constant on every backend, which is what
  // keeps switch dates identical across shard counts.
  EXPECT_EQ(mm.last_switch(),
            time_point::at(5_ms) + sys.network().config().delta_min);
}

TEST(ModeManagerTest, HooksFireWithTransition) {
  core::system sys(1, quiet());
  mode_manager mm(sys, {1, 3, 1});
  std::vector<std::pair<op_mode, op_mode>> seen;
  mm.on_switch([&](op_mode f, op_mode t, time_point) {
    seen.emplace_back(f, t);
  });
  const auto t = sys.register_task(missing_task(0));
  sys.activate(t);
  sys.run_for(10_ms);
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0].first, op_mode::normal);
  EXPECT_EQ(seen[0].second, op_mode::degraded);
}

TEST(ModeManagerTest, StateCapturedAtSwitch) {
  core::system sys(1, quiet());
  mode_manager mm(sys, {1, 3, 1});
  const auto t = sys.register_task(missing_task(0));
  sys.task_state(t) = std::string("snapshot-me");
  sys.activate(t);
  sys.run_for(10_ms);
  ASSERT_TRUE(mm.captured_state().contains(t));
  const std::string* snap = mm.captured<std::string>(t);
  ASSERT_NE(snap, nullptr);
  EXPECT_EQ(*snap, "snapshot-me");
}

// The manager is redelivered only the kinds it counts: with
// suspicions_for_degraded == 0 a recorded suspicion schedules nothing,
// and with a threshold set it is redelivered and degrades the mode.
TEST(ModeManagerTest, SuspicionsAreRedeliveredOnlyWhenTheyCount) {
  for (const std::size_t threshold : {0u, 1u}) {
    SCOPED_TRACE("suspicions_for_degraded " + std::to_string(threshold));
    core::system sys(2, quiet());
    mode_manager mm(sys, {1, 3, 1, 0, threshold});
    core::monitor_event e;
    e.kind = core::monitor_event_kind::node_suspected;
    e.at = sys.now();
    e.node = 0;
    e.subject_node = 1;
    const std::size_t before = sys.engine().pending();
    sys.mon().record(e);
    EXPECT_EQ(sys.engine().pending(), before + threshold);
    sys.run_for(1_ms);
    EXPECT_EQ(mm.mode(), threshold == 0 ? op_mode::normal : op_mode::degraded);
  }
}

TEST(ModeManagerTest, ForceModeResetsCounters) {
  core::system sys(1, quiet());
  mode_manager mm(sys, {1, 3, 1});
  mm.force_mode(op_mode::degraded);
  EXPECT_EQ(mm.mode(), op_mode::degraded);
  mm.force_mode(op_mode::normal);
  EXPECT_EQ(mm.mode(), op_mode::normal);
}

}  // namespace
}  // namespace hades::svc
