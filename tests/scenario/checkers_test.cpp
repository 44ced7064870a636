// Pinned verdicts of the broadcast and detector checkers on hand-built
// observations: which check fails, and the exact detail it reports.
#include "scenario/checkers.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "util/error.hpp"

namespace hades::scenario {
namespace {

using namespace hades::literals;

using delivery_log = std::vector<svc::delivery_logs::entry>;

time_point ms(std::int64_t v) { return time_point::at(duration::milliseconds(v)); }

/// Every node correct, no plan: horizon 1s, delivery bound 10ms.
observation bcast_obs(std::size_t nodes) {
  observation o;
  o.nodes = nodes;
  o.horizon = ms(1000);
  o.delivery_bound = 10_ms;
  o.delivery_logs = svc::delivery_logs(nodes);
  o.sent_at.assign(nodes, {});
  return o;
}

/// Append `log` to node `n`'s delivery log.
void set_log(observation& o, node_id n, const delivery_log& log) {
  for (const auto& e : log) o.delivery_logs.append(n, e);
}

const check_result& named(const std::vector<check_result>& rs,
                          const std::string& name) {
  for (const check_result& r : rs)
    if (r.name == name) return r;
  throw std::runtime_error("no check named " + name);
}

void expect_pass(const std::vector<check_result>& rs, const std::string& name) {
  const check_result& r = named(rs, name);
  EXPECT_TRUE(r.passed) << name << ": " << r.detail;
  EXPECT_EQ(r.detail, "") << name;
}

void expect_fail(const std::vector<check_result>& rs, const std::string& name,
                 const std::string& detail) {
  const check_result& r = named(rs, name);
  EXPECT_FALSE(r.passed) << name;
  EXPECT_EQ(r.detail, detail) << name;
}

// --- broadcast: pairwise path (<= 64 correct nodes) --------------------------

TEST(BroadcastChecker, IdenticalLogsPassEveryCheck) {
  observation o = bcast_obs(3);
  o.sent_at[0] = {ms(100), ms(200)};
  o.sent_at[1] = {ms(110)};
  const delivery_log log = {{0, 1}, {1, 1}, {0, 2}};
  for (node_id n = 0; n < 3; ++n) set_log(o, n, log);
  const auto rs = check_broadcast(plan{}, o, false);
  ASSERT_EQ(rs.size(), 4u);
  EXPECT_EQ(rs[0].name, "broadcast.agreement");
  EXPECT_EQ(rs[1].name, "broadcast.validity");
  EXPECT_EQ(rs[2].name, "broadcast.total_order");
  EXPECT_EQ(rs[3].name, "broadcast.no_order_faults");
  for (const auto& r : rs) {
    EXPECT_TRUE(r.passed) << r.name << ": " << r.detail;
    EXPECT_EQ(r.detail, "") << r.name;
  }
}

TEST(BroadcastChecker, PartialDeliveryFailsAgreementAndValidity) {
  observation o = bcast_obs(3);
  o.sent_at[0] = {ms(100)};
  o.sent_at[1] = {ms(110)};
  set_log(o, 0, {{0, 1}, {1, 1}});
  set_log(o, 1, {{0, 1}, {1, 1}});
  set_log(o, 2, {{0, 1}});
  const auto rs = check_broadcast(plan{}, o, false);
  expect_fail(rs, "broadcast.agreement",
              "message (1, 1) delivered by 2/3 correct nodes");
  expect_fail(rs, "broadcast.validity",
              "quiet message (1, 1) not delivered everywhere");
  expect_pass(rs, "broadcast.total_order");
  expect_pass(rs, "broadcast.no_order_faults");
}

TEST(BroadcastChecker, UndeliveredQuietMessageFailsValidityOnly) {
  observation o = bcast_obs(3);
  o.sent_at[0] = {ms(100)};
  o.sent_at[2] = {ms(120), ms(130)};
  for (node_id n = 0; n < 3; ++n) set_log(o, n, {{0, 1}, {2, 1}});
  const auto rs = check_broadcast(plan{}, o, false);
  // Agreement grades only what some correct node delivered.
  expect_pass(rs, "broadcast.agreement");
  expect_fail(rs, "broadcast.validity",
              "quiet message (2, 2) not delivered everywhere");
}

TEST(BroadcastChecker, UngradeableMessagesAreNotGraded) {
  observation o = bcast_obs(3);
  plan p;
  p.split(ms(300), {{0}, {1, 2}}).heal(ms(400));
  o.sent_at[0] = {ms(100), ms(350), ms(995)};
  // (0, 2) was sent during the partition, (0, 3) too close to the horizon
  // for worst-case delivery: neither is graded.
  set_log(o, 0, {{0, 1}, {0, 2}, {0, 3}});
  set_log(o, 1, {{0, 1}});
  set_log(o, 2, {{0, 1}});
  const auto rs = check_broadcast(p, o, false);
  expect_pass(rs, "broadcast.agreement");
  expect_pass(rs, "broadcast.validity");
  expect_pass(rs, "broadcast.total_order");
}

TEST(BroadcastChecker, PairwiseOrderReportsTheFirstDisagreeingPair) {
  observation o = bcast_obs(4);
  o.sent_at[0] = {ms(100)};
  o.sent_at[1] = {ms(100)};
  set_log(o, 0, {{0, 1}, {1, 1}});
  set_log(o, 1, {{0, 1}, {1, 1}});
  set_log(o, 2, {{1, 1}, {0, 1}});
  set_log(o, 3, {{1, 1}, {0, 1}});
  const auto rs = check_broadcast(plan{}, o, false);
  expect_pass(rs, "broadcast.agreement");
  expect_pass(rs, "broadcast.validity");
  expect_fail(rs, "broadcast.total_order",
              "nodes 0 and 2 deliver (1, 1) in different relative order");
}

TEST(BroadcastChecker, OrderFaultsFailUnlessExpected) {
  observation o = bcast_obs(2);
  o.order_faults = 3;
  const auto rs = check_broadcast(plan{}, o, false);
  expect_fail(rs, "broadcast.no_order_faults",
              "3 hold-back breaches on a network without performance faults");
  // A scenario that injects performance faults grades neither order check.
  const auto expected = check_broadcast(plan{}, o, true);
  ASSERT_EQ(expected.size(), 2u);
  EXPECT_EQ(expected[0].name, "broadcast.agreement");
  EXPECT_EQ(expected[1].name, "broadcast.validity");
}

TEST(BroadcastChecker, CrashedOriginIsGradedForAgreementNotValidity) {
  observation o = bcast_obs(3);
  plan p;
  p.crash(ms(500), 2);
  // (2, 1) left while the origin was up; (2, 2) is dated while it was down.
  o.sent_at[2] = {ms(100), ms(600)};
  set_log(o, 0, {{2, 1}, {2, 2}});
  set_log(o, 1, {{2, 2}});
  set_log(o, 2, {{2, 2}, {2, 1}});  // not correct: never compared
  const auto rs = check_broadcast(p, o, false);
  expect_fail(rs, "broadcast.agreement",
              "message (2, 1) delivered by 1/2 correct nodes");
  expect_pass(rs, "broadcast.validity");
  expect_pass(rs, "broadcast.total_order");
}

TEST(BroadcastChecker, DuplicateDeliveryCountsOnceAndOrdersByLastCopy) {
  observation o = bcast_obs(3);
  o.sent_at[0] = {ms(100)};
  o.sent_at[1] = {ms(110)};
  set_log(o, 0, {{0, 1}, {1, 1}});
  set_log(o, 1, {{0, 1}, {1, 1}, {0, 1}});
  set_log(o, 2, {{1, 1}});
  const auto rs = check_broadcast(plan{}, o, false);
  // Node 1's second copy does not stand in for node 2's missing one.
  expect_fail(rs, "broadcast.agreement",
              "message (0, 1) delivered by 2/3 correct nodes");
  expect_fail(rs, "broadcast.validity",
              "quiet message (0, 1) not delivered everywhere");
  // Against node 1's log, (0, 1) sits at its last position, after (1, 1).
  expect_fail(rs, "broadcast.total_order",
              "nodes 0 and 1 deliver (1, 1) in different relative order");
}

TEST(BroadcastChecker, DeliveryOfAnUnsentMessageThrows) {
  for (const std::pair<node_id, std::uint64_t> unsent :
       {std::pair<node_id, std::uint64_t>{0, 2}, {0, 0}, {3, 1}}) {
    observation o = bcast_obs(3);
    o.sent_at[0] = {ms(100)};
    for (node_id n = 0; n < 3; ++n) set_log(o, n, {{0, 1}});
    o.delivery_logs.append(1, unsent);
    EXPECT_THROW((void)check_broadcast(plan{}, o, false), invariant_violation)
        << "(" << unsent.first << ", " << unsent.second << ")";
  }
}

// --- broadcast: the pairwise limit --------------------------------------------

/// `nodes` nodes, node 0 crashed; origins 1 and 2 each send two messages that
/// every node delivers interleaved, except node 7 (origin 1's pair first) and
/// node 40 (one extra message from origin 3 at the end: the longest log).
observation wide_obs(std::size_t nodes, plan& p) {
  observation o = bcast_obs(nodes);
  p.crash(ms(50), 0);
  o.sent_at[1] = {ms(100), ms(200)};
  o.sent_at[2] = {ms(110), ms(210)};
  o.sent_at[3] = {ms(300)};
  const delivery_log usual = {{1, 1}, {2, 1}, {1, 2}, {2, 2}};
  const delivery_log pairs_first = {{1, 1}, {1, 2}, {2, 1}, {2, 2}};
  for (node_id n = 1; n < nodes; ++n)
    set_log(o, n, n == 7 || n == 50 ? pairs_first : usual);
  o.delivery_logs.append(40, {3, 1});
  return o;
}

TEST(BroadcastChecker, SixtyFourCorrectNodesAreComparedPairwise) {
  plan p;
  const observation o = wide_obs(65, p);
  const auto rs = check_broadcast(p, o, false);
  expect_fail(rs, "broadcast.agreement",
              "message (3, 1) delivered by 1/64 correct nodes");
  expect_fail(rs, "broadcast.validity",
              "quiet message (3, 1) not delivered everywhere");
  expect_fail(rs, "broadcast.total_order",
              "nodes 1 and 7 deliver (1, 2) in different relative order");
}

TEST(BroadcastChecker, AboveSixtyFourEachLogIsComparedWithTheLongest) {
  plan p;
  const observation o = wide_obs(70, p);
  const auto rs = check_broadcast(p, o, false);
  expect_fail(rs, "broadcast.agreement",
              "message (3, 1) delivered by 1/69 correct nodes");
  expect_fail(rs, "broadcast.total_order",
              "nodes 7 and 40 deliver (2, 1) in different relative order");
}

// --- detector ----------------------------------------------------------------

observation detector_obs(std::size_t nodes) {
  observation o;
  o.nodes = nodes;
  o.horizon = ms(1000);
  o.detect_bound = 20_ms;
  o.recover_bound = 10_ms;
  return o;
}

void suspect(std::vector<observation::suspicion>& v, node_id observer,
             node_id subject, std::int64_t at_ms) {
  v.push_back({observer, subject, ms(at_ms)});
}

TEST(DetectorChecker, CompletenessReportsLastFailingWindowOfFirstPair) {
  plan p;
  p.crash(ms(100), 2).recover(ms(200), 2);
  p.crash(ms(300), 2).recover(ms(400), 2);
  p.crash(ms(500), 2).recover(ms(600), 2);
  observation o = detector_obs(3);
  // Observer 0 only notices the first outage; observer 1 notices the first
  // two. Both fail; (subject 2, observer 0) is graded first, and its
  // window at 500ms is the last one to fail.
  suspect(o.suspicions, 0, 2, 110);
  suspect(o.suspicions, 1, 2, 110);
  suspect(o.suspicions, 1, 2, 310);
  suspect(o.recoveries, 0, 2, 205);
  suspect(o.recoveries, 1, 2, 205);
  suspect(o.recoveries, 1, 2, 405);
  const auto rs = check_detector(p, o);
  ASSERT_EQ(rs.size(), 3u);
  expect_pass(rs, "detector.no_false_suspicion");
  expect_fail(rs, "detector.crash_detected_within_bound",
              "observer 0 / subject 2 not suspected within 20.000ms of fault "
              "at t=500.000ms");
  expect_pass(rs, "detector.recovery_observed_within_bound");
}

TEST(DetectorChecker, CompletenessOrdersPairsSubjectFirst) {
  plan p;
  p.crash(ms(100), 2).recover(ms(200), 2);
  p.crash(ms(300), 1).recover(ms(400), 1);
  observation o = detector_obs(3);
  // Subject 1 is missed by observer 2 and subject 2 by observer 0: the
  // lower subject is reported although its observer is higher.
  suspect(o.suspicions, 1, 2, 105);
  suspect(o.suspicions, 0, 1, 305);
  const auto rs = check_detector(p, o);
  expect_fail(rs, "detector.crash_detected_within_bound",
              "observer 2 / subject 1 not suspected within 20.000ms of fault "
              "at t=300.000ms");
}

TEST(DetectorChecker, DownObserverIsExemptFromCompleteness) {
  plan p;
  p.crash(ms(90), 0).recover(ms(150), 0);
  p.crash(ms(100), 2).recover(ms(200), 2);
  observation o = detector_obs(3);
  // Observer 0 is down when node 2 fails: only observer 1 must notice.
  suspect(o.suspicions, 1, 0, 100);
  suspect(o.suspicions, 2, 0, 100);
  suspect(o.suspicions, 1, 2, 110);
  const auto rs = check_detector(p, o);
  expect_pass(rs, "detector.crash_detected_within_bound");
}

TEST(DetectorChecker, RecoveryReportsFirstFailingWindowOfFirstSuspicion) {
  plan p;
  // A 15ms gap: wider than recover_bound, so the windows stay apart, but
  // narrower than detect_bound, so a suspicion at 216ms belongs to both.
  p.crash(ms(100), 2).recover(ms(200), 2);
  p.crash(ms(215), 2).recover(ms(300), 2);
  observation o = detector_obs(3);
  suspect(o.suspicions, 0, 2, 110);
  suspect(o.suspicions, 0, 2, 216);
  suspect(o.suspicions, 1, 2, 217);
  suspect(o.recoveries, 0, 2, 205);
  const auto rs = check_detector(p, o);
  expect_pass(rs, "detector.no_false_suspicion");
  expect_fail(rs, "detector.crash_detected_within_bound",
              "observer 1 / subject 2 not suspected within 20.000ms of fault "
              "at t=100.000ms");
  expect_fail(rs, "detector.recovery_observed_within_bound",
              "observer 0 / subject 2 not un-suspected within 10.000ms of "
              "recovery at t=300.000ms");
}

TEST(DetectorChecker, ShortGapsAreGluedIntoOneWindow) {
  plan p;
  // A 5ms gap is shorter than recover_bound: one continuous suspicion and
  // one recovery after the second window are enough.
  p.crash(ms(100), 2).recover(ms(200), 2);
  p.crash(ms(205), 2).recover(ms(300), 2);
  observation o = detector_obs(3);
  suspect(o.suspicions, 0, 2, 110);
  suspect(o.suspicions, 1, 2, 110);
  suspect(o.recoveries, 0, 2, 305);
  suspect(o.recoveries, 1, 2, 305);
  const auto rs = check_detector(p, o);
  for (const auto& r : rs) EXPECT_TRUE(r.passed) << r.name << ": " << r.detail;
}

TEST(DetectorChecker, FalseSuspicionReportsTheFirstUnjustified) {
  plan p;
  p.split(ms(300), {{0}, {1, 2}}).heal(ms(400));
  p.link_down(ms(600), 2, 1).link_up(ms(700), 2, 1);
  p.omission_rate(ms(800), 0.5).omission_rate(ms(850), 0.0);
  observation o = detector_obs(3);
  suspect(o.suspicions, 1, 0, 310);  // partition
  suspect(o.suspicions, 0, 1, 415);  // within detect_bound of the heal
  suspect(o.suspicions, 1, 2, 610);  // 2 -> 1 is down
  suspect(o.suspicions, 2, 1, 650);  // 1 -> 2 is up, but links are disturbed
  suspect(o.suspicions, 0, 2, 820);  // omission storm
  suspect(o.suspicions, 2, 0, 880);  // unjustified
  suspect(o.suspicions, 0, 1, 990);  // unjustified, later
  const auto rs = check_detector(p, o);
  expect_fail(rs, "detector.no_false_suspicion",
              "observer 2 / subject 0 suspected at t=880.000ms with no fault "
              "in force");
}

TEST(DetectorChecker, PartitionAndLinkWindowsGradeCompletenessAndRecovery) {
  plan p;
  p.split(ms(300), {{0}, {1, 2}}).heal(ms(400));
  p.link_down(ms(600), 2, 1).link_up(ms(700), 2, 1);
  observation o = detector_obs(3);
  suspect(o.suspicions, 0, 1, 305);
  suspect(o.suspicions, 0, 2, 305);
  suspect(o.suspicions, 1, 0, 305);
  suspect(o.suspicions, 2, 0, 305);
  suspect(o.suspicions, 1, 2, 605);
  suspect(o.recoveries, 0, 1, 405);
  suspect(o.recoveries, 0, 2, 405);
  suspect(o.recoveries, 1, 0, 405);
  suspect(o.recoveries, 2, 0, 405);
  const auto rs = check_detector(p, o);
  expect_pass(rs, "detector.no_false_suspicion");
  expect_pass(rs, "detector.crash_detected_within_bound");
  expect_fail(rs, "detector.recovery_observed_within_bound",
              "observer 1 / subject 2 not un-suspected within 10.000ms of "
              "recovery at t=700.000ms");
}

}  // namespace
}  // namespace hades::scenario
