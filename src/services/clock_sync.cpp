#include "services/clock_sync.hpp"

#include <algorithm>

namespace hades::svc {

namespace {
struct sync_payload {
  duration clock_value;
  std::uint64_t round;
};
// Clustered mode, phase 2: one aggregator's f-trimmed estimate of its
// cluster's clock, exchanged between aggregators.
struct cluster_summary {
  duration clock_value;
  std::uint64_t round;
};
// Clustered mode, step 3: the aggregator's corrected reading, beamed to its
// members after the global trim.
struct cluster_beacon {
  duration clock_value;
  std::uint64_t round;
};
}  // namespace

clock_sync_service::clock_sync_service(core::system& sys, params p)
    : sys_(&sys),
      params_(p),
      clusters_{sys.node_count(),
                p.cluster_size > 0 ? p.cluster_size : sys.node_count()},
      start_(sys.now()) {
  const auto& net = sys_->network().config();
  nominal_delay_ = (net.delta_min + net.delta_max) / 2;
  inbox_.resize(sys_->node_count());
  summaries_.resize(sys_->node_count());
  round_of_.assign(sys_->node_count(), 0);
  corrections_.resize(sys_->node_count());
  sys_->on_channel(ch_clock_sync, [this](node_id n, const sim::message& m) {
    on_message(n, m);
  });
}

void clock_sync_service::start() {
  // Per-node chains anchored at the node (not one shared periodic): on the
  // sharded backend each node's resync sends then execute on the shard
  // owning the node, keeping its network rng stream in send-date order
  // across shard counts (same determinism rule as fault_detector).
  for (node_id n = 0; n < sys_->node_count(); ++n)
    sys_->engine().periodic_at_node(
        n, sys_->now() + params_.resync_period, params_.resync_period,
        [this, n] {
          if (!sys_->crashed(n)) begin_round(n);
        });
}

void clock_sync_service::begin_round(node_id n) {
  // The round number is a pure function of the sim date, not a per-node
  // counter: every node's chain fires at the same dates, and a node that
  // slept through rounds while crashed rejoins the current round instead of
  // staying permanently behind (where every exchange would read as stale).
  const std::uint64_t round = static_cast<std::uint64_t>(
      (sys_->now() - start_).count() / params_.resync_period.count());
  round_of_[n] = round;
  if (!clustered()) {
    inbox_[n].clear();
    // Own reading participates like any other.
    inbox_[n].push_back({n, sys_->clock(n).read(), sys_->now()});
    sync_payload p{sys_->clock(n).read(), round};
    sys_->net(n).send_all(ch_clock_sync, p, 48);
    sys_->engine().after(params_.collect_window,
                         [this, n, round] { conclude_round(n, round); });
    return;
  }
  const std::size_t c = clusters_.cluster_of(n);
  const node_id agg = clusters_.first(c);
  if (n != agg) {
    // Member: report the reading to the aggregator; the step comes back as
    // a beacon two windows later. Rounds stay aligned across nodes because
    // every periodic chain fires at the same sim dates.
    sys_->net(n).send(agg, ch_clock_sync,
                      sync_payload{sys_->clock(n).read(), round}, 48);
    return;
  }
  // Aggregator: collect member readings for one window, summaries for one
  // more. Both phase deadlines are anchored on this node (its own shard).
  inbox_[n].clear();
  summaries_[n].clear();
  inbox_[n].push_back({n, sys_->clock(n).read(), sys_->now()});
  sys_->engine().at_node(n, sys_->now() + params_.collect_window,
                         [this, n, round] { summarize_cluster(n, round); });
  sys_->engine().at_node(n, sys_->now() + params_.collect_window * 2,
                         [this, n, round] { conclude_cluster(n, round); });
}

void clock_sync_service::on_message(node_id n, const sim::message& m) {
  if (const auto* p = m.payload.get<sync_payload>()) {
    if (p->round != round_of_[n]) return;  // stale round
    inbox_[n].push_back({m.src, p->clock_value, sys_->now()});
    return;
  }
  if (const auto* s = m.payload.get<cluster_summary>()) {
    if (s->round != round_of_[n]) return;
    summaries_[n].push_back({m.src, s->clock_value, sys_->now()});
    return;
  }
  if (const auto* b = m.payload.get<cluster_beacon>()) {
    if (b->round != round_of_[n] || sys_->crashed(n)) return;
    // Step to the aggregator's corrected clock, aged by the flight time.
    const duration estimate = b->clock_value + nominal_delay_;
    apply_correction(n, estimate - sys_->clock(n).read());
  }
}

std::optional<duration> clock_sync_service::trimmed_offset(
    node_id n, const std::vector<reading>& box) const {
  const duration own_now = sys_->clock(n).read();
  const time_point now = sys_->now();
  // Difference between each boxed clock (extrapolated to "now") and ours.
  std::vector<std::int64_t> diffs;
  diffs.reserve(box.size());
  for (const reading& r : box) {
    duration peer_estimate = r.clock_value;
    if (r.from != n) {
      // The reading aged while in flight and in the collection window; the
      // flight time itself is approximated by the nominal delay.
      peer_estimate += (now - r.received_at) + nominal_delay_;
    } else {
      peer_estimate += now - r.received_at;
    }
    diffs.push_back((peer_estimate - own_now).count());
  }
  const int f = params_.max_faulty;
  if (static_cast<int>(diffs.size()) <= 2 * f) return std::nullopt;
  std::sort(diffs.begin(), diffs.end());
  // Fault-tolerant average: trim f from each end.
  std::int64_t sum = 0;
  const std::size_t lo = static_cast<std::size_t>(f);
  const std::size_t hi = diffs.size() - static_cast<std::size_t>(f);
  for (std::size_t i = lo; i < hi; ++i) sum += diffs[i];
  return duration::nanoseconds(sum / static_cast<std::int64_t>(hi - lo));
}

void clock_sync_service::apply_correction(node_id n, duration correction) {
  sys_->clock(n).adjust(correction);
  corrections_[n].add(static_cast<double>(std::abs(correction.count())));
  ++rounds_;
  core::monitor& mon = sys_->mon();
  if (mon.tracing())
    mon.trace(sys_->now(), n, core::monitor_event_kind::service_event,
              "clock_sync", "correction " + correction.to_string());
}

void clock_sync_service::conclude_round(node_id n, std::uint64_t round) {
  if (sys_->crashed(n) || round != round_of_[n]) return;
  const auto correction = trimmed_offset(n, inbox_[n]);
  if (!correction) return;  // not enough readings
  apply_correction(n, *correction);
}

void clock_sync_service::summarize_cluster(node_id n, std::uint64_t round) {
  if (sys_->crashed(n) || round != round_of_[n]) return;
  const auto offset = trimmed_offset(n, inbox_[n]);
  if (!offset) return;
  // The cluster's clock as this aggregator estimates it right now.
  const duration estimate = sys_->clock(n).read() + *offset;
  summaries_[n].push_back({n, estimate, sys_->now()});
  cluster_summary s{estimate, round};
  auto& net = sys_->net(n);
  const std::size_t num_c = clusters_.cluster_count();
  for (std::size_t x = 0; x < num_c; ++x)
    if (x != clusters_.cluster_of(n))
      net.send(clusters_.first(x), ch_clock_sync, s, 48);
}

void clock_sync_service::conclude_cluster(node_id n, std::uint64_t round) {
  if (sys_->crashed(n) || round != round_of_[n]) return;
  const auto correction = trimmed_offset(n, summaries_[n]);
  if (!correction) return;
  apply_correction(n, *correction);
  // Beacon the corrected reading to the members so they step with us.
  cluster_beacon b{sys_->clock(n).read(), round};
  const std::size_t c = clusters_.cluster_of(n);
  auto& net = sys_->net(n);
  for (node_id v = clusters_.first(c); v < clusters_.end(c); ++v)
    if (v != n) net.send(v, ch_clock_sync, b, 48);
}

running_stats clock_sync_service::correction_magnitude() const {
  running_stats merged;
  for (const running_stats& s : corrections_) merged.merge(s);
  return merged;
}

duration clock_sync_service::max_skew(const std::vector<node_id>& nodes) const {
  std::vector<node_id> ns = nodes;
  if (ns.empty())
    for (node_id n = 0; n < sys_->node_count(); ++n)
      if (!sys_->crashed(n)) ns.push_back(n);
  duration worst = duration::zero();
  for (std::size_t i = 0; i < ns.size(); ++i)
    for (std::size_t j = i + 1; j < ns.size(); ++j) {
      const duration a = sys_->clock(ns[i]).read();
      const duration b = sys_->clock(ns[j]).read();
      const duration skew = a > b ? a - b : b - a;
      worst = std::max(worst, skew);
    }
  return worst;
}

}  // namespace hades::svc
