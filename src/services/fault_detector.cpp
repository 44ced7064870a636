#include "services/fault_detector.hpp"

#include <algorithm>

namespace hades::svc {

namespace {

hades::core::monitor_event suspicion_event(core::monitor_event_kind kind,
                                           time_point at, node_id observer,
                                           node_id subject) {
  core::monitor_event ev;
  ev.kind = kind;
  ev.at = at;
  ev.node = observer;
  ev.subject_node = subject;
  return ev;
}

}  // namespace

fault_detector::fault_detector(core::system& sys, params p)
    : sys_(&sys),
      params_(p),
      clusters_{sys.node_count(),
                p.cluster_size > 0 ? p.cluster_size : sys.node_count()},
      net_delta_max_(sys.network().config().delta_max),
      start_(sys.now()) {
  const std::size_t n = sys_->node_count();
  obs_.resize(n);
  for (auto& o : obs_) o.horizon = start_;
  sys_->on_channel(ch_heartbeat, [this](node_id me, const sim::message& m) {
    on_heartbeat(me, m);
  });
  if (hierarchical())
    sys_->on_channel(ch_fd_digest, [this](node_id me, const sim::message& m) {
      on_digest(me, m);
    });
}

void fault_detector::start() {
  // One periodic chain per node, anchored at the node so that on the
  // sharded backend the node's sends run on its own shard (see header).
  for (node_id n = 0; n < sys_->node_count(); ++n)
    sys_->engine().periodic_at_node(
        n, sys_->now() + params_.heartbeat_period, params_.heartbeat_period,
        [this, n] { tick(n); });
}

void fault_detector::tick(node_id n) {
  if (hierarchical())
    hier_tick(n);
  else
    flat_tick(n);
}

void fault_detector::suspect(node_id observer, node_id subject) {
  observer_state& o = obs_[observer];
  if (o.suspicion.contains(subject)) return;
  const time_point now = sys_->now();
  o.suspicion[subject] = now;
  sys_->mon().record(suspicion_event(core::monitor_event_kind::node_suspected,
                                     now, observer, subject));
  for (const auto& cb : callbacks_) cb(observer, subject, now);
}

void fault_detector::unsuspect(node_id observer, node_id subject) {
  obs_[observer].suspicion.erase(subject);
  ++recoveries_;
  const time_point now = sys_->now();
  sys_->mon().record(suspicion_event(
      core::monitor_event_kind::node_unsuspected, now, observer, subject));
  for (const auto& cb : recover_callbacks_) cb(observer, subject, now);
}

void fault_detector::on_heartbeat(node_id me, const sim::message& m) {
  observer_state& o = obs_[me];
  o.last_heard[m.src] = sys_->now();
  // The suspect speaks again: recovery (or a false suspicion under a
  // sub-bound timeout).
  if (o.suspicion.contains(m.src)) unsuspect(me, m.src);
}

// ------------------------------------------------------------------ flat --

void fault_detector::flat_tick(node_id n) {
  observer_state& o = obs_[n];
  if (sys_->crashed(n)) {
    // A down node observes nothing: keep its horizon fresh so that after
    // recovery it does not instantly suspect every peer off stale dates.
    o.horizon = sys_->now();
    return;
  }
  sys_->net(n).send_all(ch_heartbeat, std::uint64_t{0}, 32);
  ++sent_;
  const time_point now = sys_->now();
  for (node_id peer = 0; peer < sys_->node_count(); ++peer) {
    if (peer == n || o.suspicion.contains(peer)) continue;
    if (now - heard(o, peer) > params_.timeout) suspect(n, peer);
  }
}

// ---------------------------------------------------------- hierarchical --

node_id fault_detector::aggregator_view(const observer_state& o,
                                        std::size_t c) const {
  for (node_id v = clusters_.first(c); v < clusters_.end(c); ++v)
    if (!o.suspicion.contains(v)) return v;
  return invalid_node;
}

void fault_detector::send_digest(node_id n) {
  observer_state& o = obs_[n];
  std::vector<node_id> suspects;
  suspects.reserve(o.suspicion.size());
  o.suspicion.for_each(
      [&](node_id v, const time_point&) { suspects.push_back(v); });
  std::sort(suspects.begin(), suspects.end());
  // Wire cost: envelope plus one id per listed suspect (normally none).
  const std::size_t bytes = 32 + 4 * suspects.size();
  const std::size_t c = clusters_.cluster_of(n);
  sim::wire_payload payload(std::move(suspects));
  auto& net = sys_->net(n);
  // To every own-cluster member (the digest doubles as the aggregator's
  // heartbeat; suspected members get one too so a healed member recovers
  // off the very next digest) ...
  for (node_id v = clusters_.first(c); v < clusters_.end(c); ++v)
    if (v != n) net.send(v, ch_fd_digest, payload, bytes);
  // ... and to this observer's view of every other cluster's aggregator.
  // A fully-suspected cluster still gets a digest at its first node: were
  // both sides of a healed partition to stay silent towards each other,
  // total mutual suspicion would be an absorbing state — this probe is what
  // lets the first post-heal exchange unwind it.
  const std::size_t num_c = clusters_.cluster_count();
  for (std::size_t x = 0; x < num_c; ++x) {
    if (x == c) continue;
    const node_id ax = aggregator_view(o, x);
    net.send(ax != invalid_node ? ax : clusters_.first(x), ch_fd_digest,
             payload, bytes);
  }
}

void fault_detector::on_digest(node_id me, const sim::message& m) {
  observer_state& o = obs_[me];
  const time_point now = sys_->now();
  const node_id src = m.src;
  // A digest is heartbeat evidence for its sender and for its cluster.
  o.last_heard[src] = now;
  if (o.suspicion.contains(src)) unsuspect(me, src);
  const std::size_t c_src = clusters_.cluster_of(src);
  o.last_digest[static_cast<node_id>(c_src)] = now;

  const auto* suspects = m.payload.get<std::vector<node_id>>();
  if (suspects == nullptr) return;
  const std::size_t c_me = clusters_.cluster_of(me);
  const bool own = c_src == c_me;
  // Authority rules: my own aggregator's view is adopted wholesale (it is
  // my only window on the world) except for the aggregator itself, which I
  // supervise directly; a foreign digest is authoritative only for the
  // sender's own members. A same-cluster digest from a node that is not my
  // aggregator (diverged views during succession) is ignored — views
  // reconverge through the heartbeat evidence recorded above.
  if (own && src != aggregator_view(o, c_me)) return;
  auto in_scope = [&](node_id v) {
    if (v == me || v == src) return false;
    return own || clusters_.cluster_of(v) == c_src;
  };
  for (node_id v : *suspects)
    if (in_scope(v) && !o.suspicion.contains(v)) suspect(me, v);
  std::vector<node_id> cleared;
  o.suspicion.for_each([&](node_id v, const time_point&) {
    if (in_scope(v) &&
        !std::binary_search(suspects->begin(), suspects->end(), v))
      cleared.push_back(v);
  });
  std::sort(cleared.begin(), cleared.end());
  for (node_id v : cleared) unsuspect(me, v);
}

void fault_detector::hier_tick(node_id n) {
  observer_state& o = obs_[n];
  const time_point now = sys_->now();
  if (sys_->crashed(n)) {
    // A restart loses detector state: keep the horizon fresh AND drop the
    // suspicion view, so a recovered aggregator never digests stale
    // suspicions for its members to adopt (see header).
    o.horizon = now;
    o.suspicion.clear();
    o.agg_role = false;
    return;
  }
  const std::size_t c = clusters_.cluster_of(n);
  const node_id agg = aggregator_view(o, c);
  if (agg == n) {
    if (!o.agg_role) {
      // Freshly promoted (succession or restart): grace for every foreign
      // cluster's digests AND for the own-cluster members — neither ever
      // sent to this node while it was a plain member. Members redirect
      // their heartbeats here well within one timeout of the promotion.
      o.agg_role = true;
      for (std::size_t x = 0; x < clusters_.cluster_count(); ++x)
        if (x != c) o.last_digest[static_cast<node_id>(x)] = now;
      for (node_id v = clusters_.first(c); v < clusters_.end(c); ++v)
        if (v != n && !o.suspicion.contains(v)) o.last_heard[v] = now;
    }
    send_digest(n);
    ++sent_;
    // Direct supervision of own-cluster members (one-hop heartbeats).
    for (node_id v = clusters_.first(c); v < clusters_.end(c); ++v) {
      if (v == n || o.suspicion.contains(v)) continue;
      if (now - heard(o, v) > params_.timeout) suspect(n, v);
    }
    // Cross-cluster supervision through digest traffic.
    const std::size_t num_c = clusters_.cluster_count();
    for (std::size_t x = 0; x < num_c; ++x) {
      if (x == c) continue;
      const time_point dh = digest_heard(o, x);
      if (now - dh > cluster_silence()) {
        // No member of x got a digest through for the whole succession
        // allowance: presume the cluster unreachable (partition backstop).
        for (node_id v = clusters_.first(x); v < clusters_.end(x); ++v)
          if (!o.suspicion.contains(v)) suspect(n, v);
        continue;
      }
      const node_id ax = aggregator_view(o, x);
      if (ax == invalid_node) continue;
      if (now - std::max(heard(o, ax), dh) > params_.timeout) {
        suspect(n, ax);
        // Grace for the successor: a fresh horizon so it has a full
        // timeout to start digesting before it is suspected in turn.
        const node_id nx = aggregator_view(o, x);
        if (nx != invalid_node) o.last_heard[nx] = now;
      }
    }
  } else {
    o.agg_role = false;
    // Member: heartbeat to the aggregator, supervise only it.
    sys_->net(n).send(agg, ch_heartbeat, std::uint64_t{0}, 32);
    ++sent_;
    if (now - heard(o, agg) > params_.timeout) {
      suspect(n, agg);
      const node_id na = aggregator_view(o, c);
      if (na != invalid_node && na != n) o.last_heard[na] = now;
    }
  }
}

}  // namespace hades::svc
