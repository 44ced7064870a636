// The grading index against an independent oracle: replay each plan's
// date-sorted actions as a plain state machine and, at every action date
// and midway between consecutive dates, decide directly which nodes are
// down, which pairs a partition separates, which directions are dead and
// whether the network is disturbed. Between two action dates nothing
// changes, so those instants cover every window the index can report.
// Every registry plan and the first 200 generated fuzz plans, every node
// and every (observer, subject) pair.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "scenario/fuzz.hpp"
#include "scenario/plan.hpp"
#include "scenario/scenarios.hpp"

namespace hades::scenario {
namespace {

/// The plan's fault state at one instant, after every action dated at or
/// before it.
struct instant {
  time_point at;
  std::vector<bool> down;   // [node]
  std::vector<int> group;   // [node]: partition group, -1 when none
  std::set<std::pair<node_id, node_id>> dead;  // directed links down
  bool disturbed = false;

  [[nodiscard]] bool separated(node_id a, node_id b) const {
    return group[a] >= 0 && group[b] >= 0 && group[a] != group[b];
  }
  [[nodiscard]] bool link_down(node_id src, node_id dst) const {
    return dead.count({src, dst}) > 0;
  }
};

/// The instants to check: time zero, every action date, the midpoint of
/// every gap between consecutive dates and of the gap to the horizon.
std::vector<time_point> sample_dates(const plan& p, time_point horizon) {
  std::vector<time_point> dates{time_point::zero(), horizon};
  for (const action& a : p.actions)
    if (a.at < horizon) dates.push_back(a.at);
  std::sort(dates.begin(), dates.end());
  dates.erase(std::unique(dates.begin(), dates.end()), dates.end());
  std::vector<time_point> out;
  for (std::size_t i = 0; i + 1 < dates.size(); ++i) {
    out.push_back(dates[i]);
    out.push_back(dates[i] + (dates[i + 1] - dates[i]) / 2);
  }
  return out;
}

std::vector<instant> replay(const plan& p, std::size_t nodes,
                            time_point horizon) {
  std::vector<action> timeline = p.actions;
  std::stable_sort(timeline.begin(), timeline.end(),
                   [](const action& x, const action& y) { return x.at < y.at; });
  instant now;
  now.down.assign(nodes, false);
  now.group.assign(nodes, -1);
  bool partitioned = false;
  bool rate = false;
  bool perf = false;
  std::vector<instant> out;
  std::size_t next = 0;
  for (const time_point t : sample_dates(p, horizon)) {
    for (; next < timeline.size() && timeline[next].at <= t; ++next) {
      const action& a = timeline[next];
      switch (a.kind) {
        case action_kind::crash_node:
        case action_kind::recover_node:
          if (a.a < nodes) now.down[a.a] = a.kind == action_kind::crash_node;
          break;
        case action_kind::partition:
          // In force until the next heal, even with a single group. A node
          // listed twice belongs to the first group listing it.
          partitioned = true;
          now.group.assign(nodes, -1);
          for (std::size_t g = a.groups.size(); g-- > 0;)
            for (node_id m : a.groups[g])
              if (m < nodes) now.group[m] = static_cast<int>(g);
          break;
        case action_kind::heal_partition:
          partitioned = false;
          now.group.assign(nodes, -1);
          break;
        case action_kind::link_down:
          now.dead.insert({a.a, a.b});
          break;
        case action_kind::link_up:
          now.dead.erase({a.a, a.b});
          break;
        case action_kind::omission_rate:
          rate = a.rate > 0.0;
          break;
        case action_kind::perf_fault:
          perf = a.rate > 0.0;
          break;
        default:
          break;
      }
    }
    now.at = t;
    now.disturbed = rate || perf || partitioned || !now.dead.empty();
    out.push_back(now);
  }
  return out;
}

bool covers(std::span<const window> ws, time_point t) {
  return std::any_of(ws.begin(), ws.end(),
                     [t](const window& w) { return w.contains(t); });
}

/// The first instant and query where the index disagrees with the oracle,
/// or "" when it agrees everywhere.
std::string first_disagreement(const scenario_spec& spec) {
  const time_point horizon = time_point::at(spec.horizon);
  const ground_truth truth(spec.p, spec.nodes, horizon);
  const std::vector<instant> oracle = replay(spec.p, spec.nodes, horizon);
  const auto where = [&](const instant& s, const std::string& what) {
    return spec.name + " at " + s.at.to_string() + ": " + what;
  };
  for (const instant& s : oracle) {
    if (covers(truth.disturbed_windows(), s.at) != s.disturbed ||
        truth.quiet(s.at, duration::nanoseconds(1)) == s.disturbed)
      return where(s, "disturbed");
    for (node_id n = 0; n < spec.nodes; ++n)
      if (covers(truth.down_windows(n), s.at) != s.down[n] ||
          truth.down_at(n, s.at) != s.down[n])
        return where(s, "down " + std::to_string(n));
  }
  std::vector<window> separated, link, unreachable;
  for (node_id a = 0; a < spec.nodes; ++a)
    for (node_id b = 0; b < spec.nodes; ++b) {
      if (a == b) continue;
      truth.separated_windows(a, b, separated);
      truth.link_down_windows(a, b, link);
      truth.unreachable_windows(a, b, unreachable);
      const auto pair = [&](const instant& s, const char* what) {
        return where(s, what + std::to_string(a) + "," + std::to_string(b));
      };
      for (const instant& s : oracle) {
        if (covers(separated, s.at) != s.separated(a, b))
          return pair(s, "separated ");
        if (covers(link, s.at) != s.link_down(a, b))
          return pair(s, "link down ");
        if (covers(unreachable, s.at) !=
            (s.down[b] || s.separated(a, b) || s.link_down(b, a)))
          return pair(s, "unreachable ");
      }
    }
  return "";
}

TEST(GroundTruthTest, RegistryPlansMatchTheOracle) {
  for (const scenario_spec& spec : all_scenarios())
    EXPECT_EQ(first_disagreement(spec), "");
  for (const scenario_spec& spec : scale_scenarios())
    EXPECT_EQ(first_disagreement(spec), "");
}

TEST(GroundTruthTest, GeneratedPlansMatchTheOracle) {
  for (std::uint64_t i = 0; i < 200; ++i)
    EXPECT_EQ(first_disagreement(generate_case(1, i).spec), "");
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
