#include "services/reliable_comm.hpp"

#include <algorithm>
#include <utility>

namespace hades::svc {

// ------------------------------------------------------------ reliable_p2p

reliable_p2p::reliable_p2p(core::system& sys, params p)
    : sys_(&sys), params_(p) {
  const std::size_t n = sys_->node_count();
  next_seq_.resize(n);
  seen_.resize(n);
  sys_->on_channel(ch_reliable_p2p, [this](node_id me, const sim::message& m) {
    on_message(me, m);
  });
}

void reliable_p2p::send(node_id src, node_id dst, sim::wire_payload payload,
                        std::size_t size_bytes) {
  // Per-link sequences keep each receiver's stream contiguous, which is
  // what lets the dedup state collapse to a watermark.
  const std::uint64_t seq = ++next_seq_[src][dst];
  const frame f{seq, std::move(payload)};
  for (int copy = 0; copy <= params_.omission_degree; ++copy) {
    const duration delay = params_.retry_spacing * copy;
    // Anchored at the source so every copy leaves from the source's shard
    // in send-date order (the rng-stream rule of DESIGN.md).
    sys_->engine().at_node(src, sys_->now() + delay,
                           [this, src, dst, f, size_bytes] {
                             if (sys_->crashed(src)) return;
                             sys_->net(src).send(dst, ch_reliable_p2p, f,
                                                 size_bytes);
                           });
  }
}

void reliable_p2p::on_message(node_id n, const sim::message& m) {
  const auto* f = m.payload.get<frame>();
  if (f == nullptr) return;
  if (!seen_[n][m.src].insert(f->seq)) {
    ++dups_;
    return;
  }
  ++delivered_;
  auto hit = handlers_.find(n);
  if (hit != handlers_.end() && hit->second) hit->second(m.src, f->payload);
}

duration reliable_p2p::p2p_bound(std::size_t size_bytes) const {
  return params_.retry_spacing * params_.omission_degree +
         sys_->network().worst_case_latency(size_bytes);
}

std::size_t reliable_p2p::state_bytes() const {
  std::size_t bytes = 0;
  for (const auto& per_recv : seen_) {
    bytes += per_recv.capacity_bytes();
    per_recv.for_each([&](node_id, const dedup_window& w) {
      bytes += w.state_bytes();
    });
  }
  for (const auto& per_src : next_seq_) bytes += per_src.capacity_bytes();
  return bytes;
}

// ------------------------------------------------------------ delivery_logs

void delivery_logs::append(node_id n, entry e) {
  node_log& l = nodes_[n];
  if (l.tail.empty()) {
    if (l.prefix == trunk_.size()) {
      trunk_.push_back(e);
      ++l.prefix;
      return;
    }
    if (trunk_[l.prefix] == e) {
      ++l.prefix;
      return;
    }
  }
  l.tail.push_back(e);
}

std::size_t delivery_logs::entries_held() const {
  std::size_t held = trunk_.size();
  for (const node_log& l : nodes_) held += l.tail.size();
  return held;
}

// ------------------------------------------------------- reliable_broadcast

reliable_broadcast::reliable_broadcast(core::system& sys, params p)
    : sys_(&sys), params_(p), logs_(sys.node_count()) {
  const std::size_t n = sys_->node_count();
  seen_.resize(n);
  holdback_.resize(n);
  next_seq_.assign(n, 0);
  sys_->on_channel(ch_reliable_bcast,
                   [this](node_id me, const sim::message& m) {
                     on_message(me, m);
                   });
}

void reliable_broadcast::broadcast(node_id src, sim::wire_payload payload,
                                   std::size_t size_bytes) {
  require(!params_.total_order || size_bytes <= params_.max_message_bytes,
          "reliable_broadcast: total-order payload exceeds max_message_bytes");
  bcast_msg msg;
  msg.origin = src;
  msg.seq = ++next_seq_[src];
  msg.sent_at = sys_->now();
  msg.size_bytes = size_bytes;
  msg.payload = std::move(payload);
  // Local delivery first (the sender is a destination too), then diffusion.
  accept(src, msg);
  relay(src, msg);
}

void reliable_broadcast::on_message(node_id n, const sim::message& m) {
  const auto* msg = m.payload.get<bcast_msg>();
  if (msg == nullptr) return;
  accept(n, *msg);
}

std::size_t reliable_broadcast::diffusion_hops() const {
  if (params_.diffusion == diffusion_kind::flood) return 2;
  const topo::kary_tree tree{sys_->node_count(), params_.tree_fanout};
  const std::size_t h = tree.height();
  return h > 1 ? h : 1;
}

const std::vector<node_id>& reliable_broadcast::relay_targets(node_id n,
                                                              node_id origin) {
  const topo::kary_tree tree{sys_->node_count(), params_.tree_fanout};
  const std::size_t l = tree.label_of(origin, n);
  labels_.clear();
  // Forward to a label, and — if this relayer suspects the node holding
  // it — adopt its children too (transitively), so a suspected relay's
  // subtree is re-parented here without waiting on it. The suspect itself
  // still gets its copy in case the suspicion is false: skipping only ever
  // ADDS targets, it never starves a correct node.
  auto collect = [&](auto&& self, std::size_t lbl) -> void {
    labels_.push_back(lbl);
    if (suspicion_ && suspicion_(n, tree.node_at(origin, lbl))) {
      const std::size_t fc = tree.first_child(lbl);
      for (std::size_t ch = fc; ch < fc + tree.fanout && ch < tree.nodes;
           ++ch)
        self(self, ch);
    }
  };
  const std::size_t fc = tree.first_child(l);
  for (std::size_t cl = fc; cl < fc + tree.fanout && cl < tree.nodes; ++cl) {
    collect(collect, cl);
    // Unconditional grandchildren: masks a child that crashed but is not
    // yet suspected — its subtree hears the message from here directly.
    const std::size_t gc = tree.first_child(cl);
    for (std::size_t gl = gc; gl < gc + tree.fanout && gl < tree.nodes; ++gl)
      collect(collect, gl);
  }
  // Suspicion recursion duplicates labels that are also plain grandchildren;
  // dedupe, and keep label order so the send order (and with it the
  // per-source rng stream) is deterministic.
  std::sort(labels_.begin(), labels_.end());
  labels_.erase(std::unique(labels_.begin(), labels_.end()), labels_.end());
  targets_.clear();
  for (std::size_t lbl : labels_) targets_.push_back(tree.node_at(origin, lbl));
  return targets_;
}

void reliable_broadcast::relay(node_id n, const bcast_msg& msg) {
  if (params_.diffusion == diffusion_kind::flood) {
    sys_->net(n).send_all(ch_reliable_bcast, msg, msg.size_bytes);
    return;
  }
  const sim::wire_payload payload(msg);  // one pooled copy, shared by ref
  auto& net = sys_->net(n);
  for (node_id t : relay_targets(n, msg.origin))
    net.send(t, ch_reliable_bcast, payload, msg.size_bytes);
}

time_point reliable_broadcast::release_time(const bcast_msg& msg) const {
  // A message may only be released once no earlier-keyed message can still
  // arrive: Delta, stretched to the worst-case diffusion path (direct hop
  // plus relay hop under flooding, tree height hops under tree relay) of
  // the LARGEST admitted payload when that is longer. Using the message's
  // own size here would release a later small message while an earlier
  // large one is still legitimately in flight.
  const duration diffusion =
      sys_->network().worst_case_latency(params_.max_message_bytes) *
      static_cast<int>(diffusion_hops());
  return msg.sent_at + std::max(params_.stability_delay, diffusion);
}

void reliable_broadcast::accept(node_id n, const bcast_msg& msg) {
  if (!seen_[n][msg.origin].insert(msg.seq)) return;  // duplicate
  // Relay on first receipt, at the message's true size (a relayed 4KB frame
  // costs 4KB on the wire): this is what makes the primitive tolerate a
  // sender crash after a partial send (agreement) without undercutting the
  // per-byte latency model.
  if (n != msg.origin) {
    ++relays_;
    relay(n, msg);
  }
  if (!params_.total_order) {
    deliver(n, msg);
    return;
  }
  // Delta-delivery: hold back until release_time, then release strictly in
  // (sent_at, origin, seq) order — identical on every node.
  const time_point due = release_time(msg);
  auto& queue = holdback_[n];
  queue.push_back({order_key{msg.sent_at, msg.origin, msg.seq}, msg});
  std::push_heap(queue.begin(), queue.end());
  if (sys_->now() >= due) {
    // Arrival at the release date is the legal worst case; strictly past it
    // only a performance-faulty network gets here. Release immediately
    // either way (agreement over order).
    if (sys_->now() > due) ++order_faults_;
    flush(n);
  } else {
    sys_->engine().at(due, [this, n] {
      if (!sys_->crashed(n)) flush(n);
    });
  }
}

void reliable_broadcast::flush(node_id n) {
  auto& queue = holdback_[n];
  while (!queue.empty()) {
    if (sys_->now() < release_time(queue.front().msg)) break;
    std::pop_heap(queue.begin(), queue.end());
    const bcast_msg msg = std::move(queue.back().msg);
    queue.pop_back();
    deliver(n, msg);
  }
}

void reliable_broadcast::deliver(node_id n, const bcast_msg& msg) {
  if (params_.record_deliveries) logs_.append(n, {msg.origin, msg.seq});
  ++delivered_;
  auto it = handlers_.find(n);
  if (it != handlers_.end() && it->second) it->second(msg);
}

delivery_logs reliable_broadcast::take_delivery_logs() {
  return std::exchange(logs_, delivery_logs(logs_.size()));
}

duration reliable_broadcast::delivery_bound(std::size_t size_bytes) const {
  const int hops = static_cast<int>(diffusion_hops());
  if (!params_.total_order)
    return sys_->network().worst_case_latency(size_bytes) * hops;
  // Delta-delivery releases every message at sent_at + max(Delta, diffusion
  // of the largest admitted payload): when the relay path exceeds
  // stability_delay, the relay path is the bound — for every size.
  const duration diffusion =
      sys_->network().worst_case_latency(params_.max_message_bytes) * hops;
  return std::max(params_.stability_delay, diffusion);
}

std::size_t reliable_broadcast::state_bytes() const {
  std::size_t bytes = 0;
  for (const auto& per_node : seen_) {
    bytes += per_node.capacity_bytes();
    per_node.for_each([&](node_id, const dedup_window& w) {
      bytes += w.state_bytes();
    });
  }
  for (const auto& queue : holdback_)
    bytes += queue.size() * (sizeof(order_key) + sizeof(bcast_msg) + 32);
  bytes += next_seq_.size() * sizeof(std::uint64_t);
  // The opt-in delivery logs grow with the run — charge the entries they
  // hold while enabled so soak assertions see them.
  return bytes + logs_.entries_held() * sizeof(delivery_logs::entry);
}

}  // namespace hades::svc
