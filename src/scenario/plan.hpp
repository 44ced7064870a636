// Declarative fault plans (DESIGN.md, "Scenario layer").
//
// A `plan` is a timeline of typed fault actions — node crash/recover, link
// partition/heal, scripted omission bursts, performance faults, clock
// drift/step — that the injector (`apply`) schedules onto a running
// `core::system`. Actions are *data*: the same plan replays bit-identically
// on the single-engine and sharded backends because the injector anchors
// every action on the node it touches (`runtime::at_node`) and the network
// fault state it drives is time-indexed (sim/network.hpp).
//
// The plan doubles as the ground truth for the property checkers
// (scenario/checkers.hpp): through a `ground_truth` index built once per
// checker call, they query it for when a node was down, when two
// nodes were separated by a partition, and which periods were "quiet"
// (free of probabilistic network faults), and grade the observed run
// against the paper's guarantees for exactly those windows.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "util/time.hpp"
#include "util/types.hpp"

namespace hades::core {
class system;
}

namespace hades::scenario {

enum class action_kind {
  crash_node,      // node `a` halts (symmetric wire silence)
  recover_node,    // node `a` comes back
  partition,       // LAN splits into `groups`
  heal_partition,  // all groups reconnect
  omission_burst,  // drop `count` consecutive frames a -> b on `channel`
  omission_rate,   // global omission probability `rate` from this date on
  perf_fault,      // performance failures: probability `rate`, delay `extra`
  clock_drift,     // node `a`'s crystal drifts at `rate` (rho) from here
  clock_step,      // node `a`'s logical clock jumps by `extra`
  link_down,       // one direction a -> b goes silent (asymmetric partition)
  link_up,         // restore direction a -> b
  clock_fault,     // node `a`'s clock turns Byzantine: H(t) = t*rate + extra
};

[[nodiscard]] const char* to_string(action_kind k);

struct action {
  time_point at;
  action_kind kind = action_kind::crash_node;
  node_id a = invalid_node;
  node_id b = invalid_node;
  int channel = -1;  // omission_burst: restrict to this channel (-1 = any)
  int count = 0;
  double rate = 0.0;
  duration extra = duration::zero();
  std::vector<std::vector<node_id>> groups;
};

/// Closed-open interval of simulated time.
struct window {
  time_point from;
  time_point to;
  [[nodiscard]] bool contains(time_point t) const { return from <= t && t < to; }
  [[nodiscard]] bool overlaps(time_point lo, time_point hi) const {
    return from < hi && lo < to;
  }
};

struct plan {
  std::string name;
  std::vector<action> actions;

  // --- builders (chainable) ---------------------------------------------
  plan& crash(time_point at, node_id n);
  plan& recover(time_point at, node_id n);
  plan& split(time_point at, std::vector<std::vector<node_id>> groups);
  plan& heal(time_point at);
  plan& omission_burst(time_point at, node_id src, node_id dst, int count,
                       int channel = -1);
  plan& omission_rate(time_point at, double rate);
  plan& perf_fault(time_point at, double rate, duration extra);
  plan& clock_drift(time_point at, node_id n, double rho);
  plan& clock_step(time_point at, node_id n, duration step);
  /// One direction of a link goes silent / comes back: frames src -> dst are
  /// dropped at submit time, the reverse direction is untouched. Asymmetric
  /// partitions are sets of these.
  plan& link_down(time_point at, node_id src, node_id dst);
  plan& link_up(time_point at, node_id src, node_id dst);
  /// Node n's hardware clock turns Byzantine from `at` on: it reads
  /// H(t) = t * rate + offset instead of honest time (clock_sync's trimmed
  /// average must mask up to f of these).
  plan& clock_byzantine(time_point at, node_id n, double rate,
                        duration offset);

  // --- single-node queries ------------------------------------------------
  // Graders index the whole timeline once instead (`ground_truth`).
  /// True when node n is crashed at t (an outage never ends unless a
  /// recover action ends it).
  [[nodiscard]] bool down_at(node_id n, time_point t) const;
  [[nodiscard]] bool ever_down(node_id n) const;
  [[nodiscard]] bool correct_throughout(node_id n) const {
    return !ever_down(n);
  }
  /// True when a clock_fault action ever targets node n (Byzantine clock:
  /// exclude from skew grading).
  [[nodiscard]] bool clock_faulty(node_id n) const;

  // --- structural validation --------------------------------------------
  /// Every way the timeline is ill-formed, in date order (empty = valid):
  /// out-of-range or self-referential node ids, negative or infinite dates,
  /// actions at or past `horizon`, recover without a prior crash (or crash
  /// of an already-down node), heal without a partition in force, link_up
  /// without a matching link_down (or link_down of an already-dead
  /// direction), empty/overlapping partition groups, burst counts < 1, and
  /// probabilities outside [0, 1]. `apply` rejects invalid plans loudly —
  /// a generated plan must never silently no-op.
  [[nodiscard]] std::vector<std::string> validate(std::size_t nodes,
                                                  time_point horizon) const;
};

/// A plan's ground truth over [0, horizon), indexed once for a grader that
/// queries every (observer, subject) pair: the timeline is sorted once,
/// every node's outages and every direction's link-downs get their own
/// windows, and each partition is resolved to a node -> group array. A
/// pair query then reads only its own nodes' state. Windows are clipped to
/// [0, horizon).
///
/// Node ids at or above `nodes` are in no partition group. Building costs
/// O(actions log actions + nodes x partition actions).
class ground_truth {
 public:
  ground_truth(const plan& p, std::size_t nodes, time_point horizon);

  /// Intervals during which node n was crashed.
  [[nodiscard]] std::span<const window> down_windows(node_id n) const;
  /// Node n is crashed at t: an outage still open at the horizon never
  /// ends.
  [[nodiscard]] bool down_at(node_id n, time_point t) const;
  /// Intervals during which probabilistic network faults (global omission
  /// rate, performance faults), a partition, or any directional link-down
  /// were in force, merged. Scripted bursts are NOT disturbances: the
  /// reliable primitives mask them deterministically.
  [[nodiscard]] const std::vector<window>& disturbed_windows() const {
    return disturbed_;
  }
  /// True when no disturbance overlaps [t, t + pad).
  [[nodiscard]] bool quiet(time_point t, duration pad) const;

  // Pair queries clear `out` and fill it, so a sweep over every pair
  // reuses one buffer.
  /// Intervals during which a partition separated nodes a and b.
  void separated_windows(node_id a, node_id b, std::vector<window>& out) const;
  /// Intervals during which the directed link src -> dst was down.
  void link_down_windows(node_id src, node_id dst,
                         std::vector<window>& out) const;
  /// Intervals during which node s was unreachable from observer o: s down,
  /// an (o, s) partition in force, or the directed link s -> o down (what
  /// silences s's heartbeats towards o under an asymmetric partition).
  /// Overlapping intervals are merged.
  void unreachable_windows(node_id o, node_id s,
                           std::vector<window>& out) const;

 private:
  /// The windows of one node's outages or of one direction's link-downs.
  struct keyed_windows {
    std::uint64_t key = 0;  // the node, or src << 32 | dst for a direction
    std::vector<window> windows;
    bool open_at_end = false;  // still in force at the horizon
  };
  struct split {  // one partition or heal action
    time_point at;
    bool heal = false;
    std::vector<int> group_of;  // [node]: group index, -1 when unlisted
  };

  [[nodiscard]] static const keyed_windows* find(
      const std::vector<keyed_windows>& v, std::uint64_t key);
  void append_separated(node_id a, node_id b, std::vector<window>& out) const;

  time_point horizon_;
  std::vector<keyed_windows> down_;   // by node; only nodes that crash
  std::vector<keyed_windows> links_;  // by direction; only those named
  std::vector<window> disturbed_;     // merged
  std::vector<split> splits_;         // date order
};

// --- JSON (committable repro artifacts) ---------------------------------
/// Serialize the action timeline ("hades-plan v1"). Rates are emitted as
/// exact ppm integers and dates/durations as nanosecond integers, so
/// parse(render(p)) replays bit-identically to p on every compiler.
[[nodiscard]] std::string plan_to_json(const plan& p, int indent = 0);
/// Parse a "hades-plan v1" document (or the "plan" member of an enclosing
/// object); throws hades::invariant_violation on malformed input.
[[nodiscard]] plan plan_from_json(const std::string& text);

/// Schedule every action of the plan onto the system's runtime (and
/// pre-register its wire truth into the system's network). Call once,
/// before (or during) the run; dates must not be in the past. The plan is
/// validated against the system's node count first (and against `horizon`
/// when finite — the deployment passes its own); an ill-formed plan throws
/// hades::invariant_violation listing every violation instead of silently
/// no-opping.
void apply(core::system& sys, const plan& p,
           time_point horizon = time_point::infinity());

}  // namespace hades::scenario
