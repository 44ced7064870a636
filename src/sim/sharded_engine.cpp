#include "sim/sharded_engine.hpp"

#include <algorithm>
#include <limits>

namespace hades::sim {

sharded_engine::sharded_engine(sharded_params p)
    : lookahead_(p.lookahead), node_shard_(std::move(p.node_shard)) {
  validate(p.shards >= 1 && p.shards <= 64,
           "sharded_engine: shard count must be in [1, 64]");
  validate(p.workers == 0,
           "sharded_engine: workers must be 0 — shards advance in serial "
           "rounds on the calling thread");
  validate(!lookahead_.is_infinite() &&
               lookahead_ >= duration::nanoseconds(1),
           "sharded_engine: lookahead must be finite and >= 1ns");
  for (std::uint32_t s : node_shard_)
    validate(s < p.shards, "sharded_engine: node mapped to unknown shard");
  shards_.reserve(p.shards);
  for (std::size_t s = 0; s < p.shards; ++s) {
    shards_.push_back(std::make_unique<shard>());
    shards_.back()->outbox.resize(p.shards);
  }
}

std::uint32_t sharded_engine::shard_of(node_id n) const {
  if (n < node_shard_.size()) return node_shard_[n];
  return static_cast<std::uint32_t>(n % shards_.size());
}

event_id sharded_engine::tag(std::uint32_t s, event_id inner) {
  if (inner == invalid_event) return inner;
  require(inner.value >> shard_shift == 0,
          "sharded_engine: per-shard event pool exceeds the id tag space");
  return event_id{inner.value | (static_cast<std::uint64_t>(s) << shard_shift)};
}

// --- scheduling --------------------------------------------------------------

time_point sharded_engine::now() const {
  if (in_event_context()) return shards_[executing_]->core.now();
  // Between rounds every core sits at the same date; otherwise the
  // conservative minimum is the global virtual time.
  time_point m = shards_[0]->core.now();
  for (std::size_t s = 1; s < shards_.size(); ++s)
    m = std::min(m, shards_[s]->core.now());
  return m;
}

event_id sharded_engine::at(time_point t, event_fn fn) {
  const std::uint32_t s = current_shard();
  return tag(s, shards_[s]->core.at(t, std::move(fn)));
}

event_id sharded_engine::at_node(node_id dst, time_point t, event_fn fn) {
  const std::uint32_t target = shard_of(dst);
  if (!in_event_context() || target == executing_)
    return tag(target, shards_[target]->core.at(t, std::move(fn)));
  // Cross-shard: queue in the origin's outbox for the round boundary. The
  // lookahead requirement is what makes the conservative horizon sound — an
  // event below the horizon can only create work at or beyond it.
  shard& from = *shards_[executing_];
  require(t >= from.core.now() + lookahead_,
          "sharded_engine::at_node: cross-shard event below the lookahead");
  from.outbox[target].push_back(cross_event{t, std::move(fn)});
  return invalid_event;  // cross-shard events are fire-and-forget
}

void sharded_engine::cancel(event_id id) {
  if (id == invalid_event) return;
  const auto s = static_cast<std::uint32_t>(id.value >> shard_shift);
  if (s >= shards_.size()) return;
  shards_[s]->core.cancel(
      event_id{id.value & ((std::uint64_t{1} << shard_shift) - 1)});
}

// --- conservative rounds -----------------------------------------------------

// Round-boundary injection, origins in index order. Each outbox holds one
// origin's events in scheduling order, and the target core's heap orders
// by date and then by injection order, so same-instant arrivals fire in
// {time, origin shard, origin seq} order without a merge sort.
void sharded_engine::drain_outboxes() {
  for (std::uint32_t s = 0; s < shards_.size(); ++s) {
    engine& core = shards_[s]->core;
    for (auto& from : shards_) {
      std::vector<cross_event>& box = from->outbox[s];
      cross_events_ += box.size();
      for (cross_event& ce : box) core.at(ce.t, std::move(ce.fn));
      box.clear();
    }
  }
}

time_point sharded_engine::next_time_all() {
  time_point m = time_point::infinity();
  for (auto& sp : shards_) m = std::min(m, sp->core.peek_time());
  return m;
}

std::size_t sharded_engine::run_shard(std::uint32_t s, time_point bound) {
  executing_ = s;
  const std::size_t n = shards_[s]->core.run_until(bound);
  executing_ = no_shard;
  return n;
}

std::size_t sharded_engine::run_rounds(time_point limit,
                                       std::size_t max_events) {
  std::size_t total = 0;
  while (total < max_events) {
    drain_outboxes();
    const time_point m = next_time_all();
    if (m.is_infinite() || m > limit) break;
    // Everything strictly below m + lookahead is safe; run_until is
    // inclusive, so the bound is one tick short of the horizon. max_events
    // is enforced at round granularity (a round is the atom of progress).
    time_point bound = (m + lookahead_) - duration::nanoseconds(1);
    if (limit < bound) bound = limit;
    ++rounds_;
    for (std::uint32_t s = 0; s < shards_.size(); ++s)
      total += run_shard(s, bound);
  }
  return total;
}

// --- execution ---------------------------------------------------------------

bool sharded_engine::step() {
  drain_outboxes();
  std::uint32_t best = 0;
  time_point bt = time_point::infinity();
  for (std::uint32_t s = 0; s < shards_.size(); ++s) {
    const time_point t = shards_[s]->core.peek_time();
    if (t < bt) {
      bt = t;
      best = s;
    }
  }
  if (bt.is_infinite()) return false;
  executing_ = best;
  shards_[best]->core.step();
  executing_ = no_shard;
  return true;
}

std::size_t sharded_engine::run_until(time_point t) {
  const std::size_t n =
      run_rounds(t, std::numeric_limits<std::size_t>::max());
  if (!t.is_infinite())
    for (auto& sp : shards_) sp->core.run_until(t);  // advance idle clocks
  return n;
}

std::size_t sharded_engine::run(std::size_t max_events) {
  return run_rounds(time_point::infinity(), max_events);
}

bool sharded_engine::empty() const { return pending() == 0; }

std::size_t sharded_engine::pending() const {
  std::size_t n = 0;
  for (const auto& sp : shards_) {
    n += sp->core.pending();
    for (const auto& box : sp->outbox) n += box.size();
  }
  return n;
}

std::uint64_t sharded_engine::executed() const {
  std::uint64_t n = 0;
  for (const auto& sp : shards_) n += sp->core.executed();
  return n;
}

sharded_engine::shard_stats sharded_engine::stats() const {
  shard_stats st;
  st.rounds = rounds_;
  st.cross_events = cross_events_;
  st.executed_per_shard.reserve(shards_.size());
  for (const auto& sp : shards_)
    st.executed_per_shard.push_back(sp->core.executed());
  return st;
}

std::unique_ptr<runtime> make_sharded_engine(sharded_params p) {
  return std::make_unique<sharded_engine>(std::move(p));
}

}  // namespace hades::sim
