// Heartbeat-based fault detection (paper section 2.2: "fault detection" is
// one of the generic robustness services), in two topologies.
//
// Flat (params.cluster_size == 0, the default): every node broadcasts a
// heartbeat each period and supervises every peer, suspecting a node whose
// heartbeat has not been heard for `timeout`. Under the synchronous
// assumptions of the platform (bounded network delay, bounded omission
// degree) the detector is *perfect* when timeout > period *
// (omission_degree + 1) + delta_max: no correct node is ever suspected and
// a crashed node is suspected within one timeout — bench_monitor / tests
// check both bounds, and the boundary itself is probed one tick either side
// by FaultDetectorTest.
//
// Hierarchical (params.cluster_size = C > 0, DESIGN.md "Scalable topology
// layer"): nodes are grouped into contiguous clusters of C
// (`topo::cluster_map`). Each cluster elects an *aggregator* — the lowest
// member the observer does not suspect, a pure function of the observer's
// suspicion state, so no election protocol runs. Members heartbeat to their
// aggregator only; the aggregator directly supervises its members and each
// period sends a *liveness digest* (its current suspicion list) to its
// members and to every other cluster's aggregator. The digest doubles as
// the aggregator's heartbeat. Message cost per period drops from O(N²) to
// O(N + C·numC); per-observer state drops from O(N) dense rows to a sparse
// map over the supervision set (own cluster + one entry per foreign
// cluster).
//
// Suspicion spreads by digest adoption with authority rules: a member
// adopts its own aggregator's digest wholesale (add and remove) except for
// the aggregator itself, which it supervises directly; an aggregator adopts
// a foreign digest only for the sender's own members, over whom the sender
// is authoritative. Aggregator succession is implicit: suspecting the
// current aggregator advances the observer's derived view to the next
// unsuspected member, with a fresh grace horizon so the successor is not
// instantly suspected off a stale date. If a whole cluster falls silent —
// no digest from *any* member for `cluster_silence()` — the observer
// presumes every remaining member of that cluster unreachable (the
// completeness backstop for partitions); a heal's first digest both clears
// the aggregator and, by adoption, un-suspects the presumed members.
//
// The two-hop supervision path (member -> aggregator -> digest) re-derives
// the perfection bound as timeout > period * (omission_degree + 1) +
// 2*delta_max; FaultDetectorTest probes it one tick either side at 256
// nodes. `detection_bound()` / `recovery_bound()` expose the end-to-end
// worst-case latencies for whichever topology is configured — the scenario
// checkers grade against those instead of re-deriving formulas inline.
//
// A suspected node whose heartbeat (or digest) is heard again — recovery
// after system::recover_node, or a false suspicion under a sub-bound
// timeout — is un-suspected and `on_recover` callbacks fire; mode managers
// can use this to leave degraded operation.
//
// Each node's heartbeat/check tick is a self-re-arming chain anchored with
// `runtime::at_node(n, ...)`, so on the sharded backend every send a node
// performs executes on the shard that owns the node. That keeps the
// per-source network rng streams in send-date order regardless of shard
// count — the property the scenario campaign's cross-backend checksum gate
// relies on (DESIGN.md, "Scenario layer").
//
// Shard confinement: all detector state is [observer]-indexed and touched
// only from the observer's tick/receive events, i.e. on the observer's
// shard. The counters are plain totals, which never race: every backend
// runs one process's events on one thread. Suspicion
// transitions are additionally recorded into the system monitor
// (node_suspected / node_unsuspected, the suspected node in
// `subject_node`), which is how suspicion-driven mode policies receive them
// deterministically on their own shard
// (mode_manager::thresholds::suspicions_for_degraded) and where the
// scenario deployment reads the suspicions it grades. `on_suspect` /
// `on_recover` callbacks run on the observer's shard and must stay
// shard-confined.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "core/system.hpp"
#include "services/channels.hpp"
#include "services/topology.hpp"
#include "util/sparse_map.hpp"

namespace hades::svc {

class fault_detector {
 public:
  struct params {
    duration heartbeat_period = duration::milliseconds(10);
    duration timeout = duration::milliseconds(25);
    /// 0 = flat all-to-all supervision; C > 0 = hierarchical cluster
    /// supervision with contiguous clusters of C nodes.
    std::size_t cluster_size = 0;
  };

  using suspect_fn =
      std::function<void(node_id observer, node_id suspect, time_point at)>;

  fault_detector(core::system& sys, params p);

  void start();
  void on_suspect(suspect_fn fn) { callbacks_.push_back(std::move(fn)); }
  /// Fires when a suspected node's heartbeat is heard again.
  void on_recover(suspect_fn fn) { recover_callbacks_.push_back(std::move(fn)); }

  [[nodiscard]] bool suspects(node_id observer, node_id subject) const {
    return obs_[observer].suspicion.contains(subject);
  }
  [[nodiscard]] std::optional<time_point> suspected_at(node_id observer,
                                                       node_id subject) const {
    const time_point* at = obs_[observer].suspicion.find(subject);
    return at != nullptr ? std::optional<time_point>(*at) : std::nullopt;
  }
  [[nodiscard]] std::uint64_t heartbeats_sent() const { return sent_; }
  [[nodiscard]] std::uint64_t recoveries_observed() const {
    return recoveries_;
  }
  [[nodiscard]] const params& config() const { return params_; }
  [[nodiscard]] bool hierarchical() const { return params_.cluster_size > 0; }

  /// Silence threshold after which an observer presumes a whole cluster
  /// unreachable (hierarchical only): long enough to cover aggregator
  /// succession, so it only fires when no member can get a digest through.
  [[nodiscard]] duration cluster_silence() const {
    return (params_.timeout + params_.heartbeat_period) * 2 +
           net_delta_max_ * 2;
  }

  /// Worst-case latency from a node becoming permanently unreachable to
  /// *every* correct observer suspecting it, for the configured topology.
  /// Flat: timeout + one period + one delivery. Hierarchical worst case is
  /// the presumption path (whole cluster silent), then one more digest
  /// period + delivery for members to adopt their aggregator's view.
  [[nodiscard]] duration detection_bound() const {
    if (!hierarchical())
      return params_.timeout + params_.heartbeat_period + net_delta_max_;
    return cluster_silence() + params_.heartbeat_period * 2 +
           net_delta_max_ * 3;
  }
  /// Worst-case latency from a suspected node speaking again to every
  /// correct observer clearing the suspicion. Flat: one period + one
  /// delivery. Hierarchical: heartbeat to the aggregator, then the
  /// aggregator's next digest to everyone, then one more digest period for
  /// members of other clusters.
  [[nodiscard]] duration recovery_bound() const {
    if (!hierarchical())
      return params_.heartbeat_period + net_delta_max_;
    return (params_.heartbeat_period + net_delta_max_) * 3;
  }

 private:
  /// Per-observer detector state: sparse, keyed by the supervision set.
  struct observer_state {
    /// subject -> last heartbeat/digest date. Absent = never heard;
    /// effective date is max(entry-or-start, horizon).
    util::sparse_node_map<time_point> last_heard;
    /// subject -> suspicion date. Presence = currently suspected.
    util::sparse_node_map<time_point> suspicion;
    /// cluster id -> last digest date from ANY member of that cluster
    /// (hierarchical, aggregator role). Grace resets after suspecting an
    /// aggregator live in `last_heard` of the successor, not here.
    util::sparse_node_map<time_point> last_digest;
    /// Observation floor: raised to now() while the observer is down so a
    /// recovered node does not instantly suspect the world off stale dates.
    time_point horizon;
    /// Whether the last tick ran in the aggregator role. A fresh promotion
    /// (succession, restart) grants digest grace for every foreign cluster:
    /// the new aggregator was never a digest recipient, so without the
    /// grace its cluster-silence presumption would fire instantly.
    bool agg_role = false;
  };

  void tick(node_id n);
  void flat_tick(node_id n);
  void hier_tick(node_id n);
  void on_heartbeat(node_id me, const sim::message& m);
  void on_digest(node_id me, const sim::message& m);

  [[nodiscard]] time_point heard(const observer_state& o, node_id subject) const {
    const time_point* t = o.last_heard.find(subject);
    return t != nullptr && *t > o.horizon ? *t : o.horizon;
  }
  [[nodiscard]] time_point digest_heard(const observer_state& o,
                                        std::size_t c) const {
    const time_point* t = o.last_digest.find(static_cast<node_id>(c));
    return t != nullptr && *t > o.horizon ? *t : o.horizon;
  }
  /// The observer's view of cluster c's aggregator: the lowest member it
  /// does not suspect, or invalid_node when it suspects them all.
  [[nodiscard]] node_id aggregator_view(const observer_state& o,
                                        std::size_t c) const;
  void suspect(node_id observer, node_id subject);
  void unsuspect(node_id observer, node_id subject);
  void send_digest(node_id n);

  core::system* sys_;
  params params_;
  topo::cluster_map clusters_;
  duration net_delta_max_;
  time_point start_;
  std::vector<observer_state> obs_;  // [observer]
  std::vector<suspect_fn> callbacks_;
  std::vector<suspect_fn> recover_callbacks_;
  std::uint64_t sent_ = 0;
  std::uint64_t recoveries_ = 0;
};

}  // namespace hades::svc
