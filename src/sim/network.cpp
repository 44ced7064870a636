#include "sim/network.hpp"

namespace hades::sim {

network::~network() = default;

void network::new_source() {
  const auto n = static_cast<std::uint64_t>(sources_.size());
  // Seeds depend only on the source index, so growing the node set never
  // disturbs an existing source's stream (rng stability across
  // reserve_nodes growth).
  sources_.push_back(std::make_unique<source_state>(
      rng(seed_ ^ (0x9E3779B97F4A7C15ull * (n + 1)))));
}

void network::set_omission_rate_at(time_point t, double p) {
  global_.omission_rate.set(t, p);
}

void network::set_performance_fault_at(time_point t, double p, duration extra) {
  global_.perf_fault_tl.set(t, {p, extra});
  if (p > 0.0) max_perf_extra_ = std::max(max_perf_extra_, extra);
}

void network::set_node_down_at(time_point t, node_id n, bool down) {
  if (global_.node_down.size() <= n)
    global_.node_down.resize(static_cast<std::size_t>(n) + 1);
  global_.node_down[n].set(t, down);
}

void network::heal_partition_at(time_point t) { global_.partition.set(t, {}); }

void network::partition_at(time_point t,
                           const std::vector<std::vector<node_id>>& groups) {
  std::vector<std::uint32_t> assign;
  for (std::size_t g = 0; g < groups.size(); ++g)
    for (node_id n : groups[g]) {
      if (n >= assign.size()) assign.resize(n + 1, no_group);
      assign[n] = static_cast<std::uint32_t>(g);
    }
  global_.partition.set(t, std::move(assign));
}

bool network::global_state::partitioned_at(node_id a, node_id b,
                                           time_point t) const {
  const std::vector<std::uint32_t>* groups = partition.at(t);
  if (groups == nullptr || groups->empty()) return false;
  const std::uint32_t ga = a < groups->size() ? (*groups)[a] : no_group;
  const std::uint32_t gb = b < groups->size() ? (*groups)[b] : no_group;
  return ga != no_group && gb != no_group && ga != gb;
}

void network::set_link_down(node_id src, node_id dst, bool down) {
  source(src).faults[dst].down.set(rt_->now(), down);
}

void network::drop_next(node_id src, node_id dst, int count, int channel) {
  auto& bursts = source(src).faults[dst].scripted_drops;
  for (auto& b : bursts)
    if (b.channel == channel) {
      b.remaining += count;
      return;
    }
  bursts.push_back({channel, count});
}

bool network::should_drop(source_state& s, node_id src, node_id dst,
                          int channel, time_point t) {
  const global_state& g = global_;
  // Deterministic (draw-free) drop causes first, so a dropped frame never
  // perturbs the per-source rng stream.
  if (g.node_down_at(src, t) || g.node_down_at(dst, t)) return true;
  if (g.partitioned_at(src, dst, t)) return true;
  double p = -1.0;
  // A source no fault setter touched has no slots: `find` returns at once.
  if (link_faults* lf = s.faults.find(dst)) {
    if (!lf->down.empty()) {
      const bool* down = lf->down.at(t);
      if (down != nullptr && *down) return true;
    }
    if (auto& bursts = lf->scripted_drops; !bursts.empty()) {
      // Channel-scoped bursts are consumed before an any_channel burst on
      // the same link, regardless of registration order.
      for (const int key : {channel, any_channel})
        for (auto& b : bursts)
          if (b.channel == key && b.remaining > 0) {
            --b.remaining;
            return true;
          }
    }
    p = lf->omission;
  }
  if (p < 0.0) {
    const double* global = g.omission_rate.at(t);
    p = global != nullptr ? *global : 0.0;
  }
  return p > 0.0 && s.stream.chance(p);
}

duration network::sample_latency(source_state& s, std::size_t size_bytes,
                                 time_point now, bool& late, duration& extra) {
  const std::int64_t jitter_span =
      (params_.delta_max - params_.delta_min).count();
  duration lat =
      params_.delta_min +
      duration::nanoseconds(
          jitter_span > 0 ? s.stream.uniform_int(0, jitter_span) : 0) +
      params_.per_byte * static_cast<std::int64_t>(size_bytes);
  perf_fault pf;
  if (const perf_fault* p = global_.perf_fault_tl.at(now); p != nullptr)
    pf = *p;
  late = pf.rate > 0.0 && s.stream.chance(pf.rate);
  extra = late ? pf.extra : duration::zero();
  return lat + extra;
}

std::uint64_t network::submit(source_state& s, time_point now, node_id src,
                              node_id dst, int channel, wire_payload payload,
                              std::size_t size_bytes) {
  message m;
  m.src = src;
  m.dst = dst;
  m.channel = channel;
  m.payload = std::move(payload);
  m.size_bytes = size_bytes;
  // Per-source ids keep the counter shard-confined while staying unique
  // system-wide (40 bits of per-source sequence).
  m.id = ((static_cast<std::uint64_t>(src) + 1) << 40) | ++s.next_seq;
  m.sent_at = now;
  ++counters_.sent;

  if (should_drop(s, src, dst, channel, now)) {
    ++counters_.dropped;
    return m.id;
  }

  bool late = false;
  duration extra = duration::zero();
  const duration lat = sample_latency(s, size_bytes, now, late, extra);
  if (late) ++counters_.late;

  // A frame for a destination owned by another OS process leaves through
  // the remote transport, judged by the same fault model as a local one;
  // the transport adds the drawn performance-fault delay on the real wire.
  if (remote_hook_ && remote_hook_(m, extra)) return m.id;

  time_point deliver_at = now + lat;
  // ATM virtual circuits are FIFO: never deliver before an earlier frame on
  // the same link. The first delivery to a destination creates its floor;
  // afterwards the path allocates nothing.
  time_point& floor = s.fifo_floor[dst];
  if (deliver_at < floor) deliver_at = floor;
  floor = deliver_at;

  const std::uint64_t id = m.id;
  rt_->at_node(dst, deliver_at,
               [this, m = std::move(m)]() mutable { deliver_now(m); });
  return id;
}

void network::deliver_now(message& m) {
  const bool dst_down = global_.node_down_at(m.dst, rt_->now());
  if (m.dst >= handlers_.size() || !handlers_[m.dst] || dst_down) {
    ++counters_.dropped;
    return;
  }
  ++counters_.delivered;
  if (observer_) observer_(m);
  handlers_[m.dst](m);
}

std::uint64_t network::unicast(node_id src, node_id dst, int channel,
                               wire_payload payload, std::size_t size_bytes) {
  return submit(source(src), rt_->now(), src, dst, channel, std::move(payload),
                size_bytes);
}

std::size_t network::fan_out(node_id src, int channel,
                             const wire_payload& payload,
                             std::size_t size_bytes) {
  // Hoisted once for the whole fan-out: the clock read and the source
  // lookup.
  source_state& s = source(src);
  const time_point now = rt_->now();
  std::size_t n = 0;
  for (node_id dst = 0; dst < handlers_.size(); ++dst) {
    if (dst == src || !handlers_[dst]) continue;
    submit(s, now, src, dst, channel, payload, size_bytes);  // refcount
    ++n;
  }
  return n;
}

}  // namespace hades::sim
