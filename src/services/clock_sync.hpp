// Fault-tolerant clock synchronization (paper section 2.2.1, service (vi);
// the paper names the Lundelius–Lynch algorithm [LL88]), in two topologies.
//
// Flat (params.cluster_size == 0, the default): interactive-convergence
// style rounds — every resync period each node broadcasts its logical clock
// reading; receivers estimate the peer-local clock difference (compensating
// the nominal network delay); at the end of the collection window each node
// discards the f largest and f smallest differences — masking up to f
// Byzantine clocks, n >= 3f+1 — and steps its logical clock by the
// fault-tolerant average of the rest. O(N²) messages per round.
//
// Clustered (params.cluster_size = C > 0, DESIGN.md "Scalable topology
// layer"): readings stay within a cluster (topo::cluster_map, aggregator =
// the cluster's first node). Each round runs in two collection windows:
//   phase 1 — members unicast their reading to the aggregator, which
//     f-trims the cluster's differences into a *cluster summary* clock;
//   phase 2 — aggregators exchange summaries, f-trim those into a global
//     correction, step their own clock and beacon the corrected reading to
//     their members, who step to it (delay-compensated).
// Per-round traffic drops from O(N²) to O(N + numC²); only aggregators hold
// a round inbox, sized by the cluster, not the system. A crashed aggregator
// idles its cluster for the round (members skip the step and resume on the
// next round after recovery or — for longer outages — keep free-running on
// their hardware clocks; the achieved bound degrades by the extra drift,
// which the scenario skew checker's grading windows account for).
//
// The achieved skew bound is checked by tests and measured by
// bench_clock_sync (E6). All state but the rounds total is node-confined
// ([node]-indexed, touched only from that node's events, i.e. its shard);
// the total never races, since every backend runs one process's events on
// one thread. Every send is anchored on the sending node's chain,
// preserving the campaign's cross-backend checksum determinism.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/system.hpp"
#include "services/channels.hpp"
#include "services/topology.hpp"
#include "util/stats.hpp"

namespace hades::svc {

class clock_sync_service {
 public:
  struct params {
    duration resync_period = duration::milliseconds(100);
    duration collect_window = duration::milliseconds(2);  // > delta_max
    int max_faulty = 0;  // f: readings trimmed from each end
    /// 0 = flat all-to-all rounds; C > 0 = clustered two-phase rounds with
    /// per-cluster aggregators (readings trimmed to cluster scope).
    std::size_t cluster_size = 0;
  };

  clock_sync_service(core::system& sys, params p);

  /// Arm the periodic rounds on every node.
  void start();

  /// Maximum pairwise logical-clock skew over the given nodes (all attached
  /// nodes when empty). Faulty/crashed nodes are the caller's business to
  /// exclude.
  [[nodiscard]] duration max_skew(const std::vector<node_id>& nodes = {}) const;

  [[nodiscard]] std::uint64_t rounds_completed() const { return rounds_; }
  /// Merged per-node correction statistics (all state is node-confined;
  /// merging in node order keeps the summary shard-count independent).
  [[nodiscard]] running_stats correction_magnitude() const;
  [[nodiscard]] bool clustered() const { return params_.cluster_size > 0; }

 private:
  struct reading {
    node_id from;
    duration clock_value;
    time_point received_at;
  };

  void begin_round(node_id n);
  void conclude_round(node_id n, std::uint64_t round);
  void summarize_cluster(node_id n, std::uint64_t round);
  void conclude_cluster(node_id n, std::uint64_t round);
  void on_message(node_id n, const sim::message& m);
  void apply_correction(node_id n, duration correction);
  /// f-trimmed average difference between the boxed readings (aged to
  /// "now", delay-compensated for remote ones) and node n's clock; nullopt
  /// when fewer than 2f+1 readings arrived.
  [[nodiscard]] std::optional<duration> trimmed_offset(
      node_id n, const std::vector<reading>& box) const;

  core::system* sys_;
  params params_;
  topo::cluster_map clusters_;
  time_point start_;  // rounds are (now - start_) / resync_period
  duration nominal_delay_;
  std::vector<std::vector<reading>> inbox_;      // per node (phase 1)
  std::vector<std::vector<reading>> summaries_;  // per aggregator (phase 2)
  std::vector<std::uint64_t> round_of_;          // per node
  std::uint64_t rounds_ = 0;
  std::vector<running_stats> corrections_;       // per node
};

}  // namespace hades::svc
