// Sharded multi-engine backend of hades::runtime (DESIGN.md, "Sharded
// backend"): nodes partitioned into shards, each shard owning its own
// pooled event core (`sim::engine` slabs + 4-ary heap).
//
// Time advances in conservative rounds: with `m` the earliest pending event
// anywhere and `L` the configured lookahead (a lower bound on every
// cross-shard scheduling delay — the network's minimum link delay), every
// event strictly below the horizon `m + L` is independent across shards and
// safe to run, because any event it creates on another shard lands at or
// beyond the horizon. A round runs shard 0's whole window, then shard 1's,
// and so on, on the calling thread.
//
// Cross-shard events (`at_node` targeting a foreign shard) are appended to
// a plain vector, one per (origin, target) pair, and injected into the
// target core at the round boundary, origins in index order. Each vector is
// in origin-sequence order and the target heap orders by date, then by
// injection order, so same-instant arrivals execute in {time, origin shard,
// origin seq} order whatever the round's layout — the merged trace is, for
// workloads whose same-instant events are shard-local, identical to the
// single-engine run (see DESIGN.md for the exact determinism argument).
//
// Contract deviations from the single engine, all confined to cross-shard
// use: `at_node` across shards requires `t >= now() + lookahead` and
// returns `invalid_event` (fire-and-forget).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "sim/engine.hpp"
#include "sim/runtime.hpp"

namespace hades::sim {

class sharded_engine final : public runtime {
 public:
  /// Throws unless `p.workers == 0`: serial rounds are the only mode.
  explicit sharded_engine(sharded_params p);

  // --- runtime interface ---------------------------------------------------
  [[nodiscard]] time_point now() const override;
  event_id at(time_point t, event_fn fn) override;
  event_id at_node(node_id dst, time_point t, event_fn fn) override;
  void cancel(event_id id) override;

  bool step() override;
  std::size_t run_until(time_point t) override;
  std::size_t run(std::size_t max_events = 100'000'000) override;

  [[nodiscard]] bool empty() const override;
  [[nodiscard]] std::size_t pending() const override;
  [[nodiscard]] std::uint64_t executed() const override;

  // --- shard observability ---------------------------------------------------
  [[nodiscard]] std::uint32_t shard_of(node_id n) const override;
  [[nodiscard]] std::size_t shard_count() const override {
    return shards_.size();
  }
  /// The shard whose event core is executing (0 when called from outside
  /// event execution) — what the observation sinks tag each record with.
  [[nodiscard]] std::uint32_t executing_shard() const override {
    return current_shard();
  }
  [[nodiscard]] bool in_event_context() const override {
    return executing_ != no_shard;
  }
  [[nodiscard]] duration lookahead() const { return lookahead_; }

  struct shard_stats {
    std::uint64_t rounds = 0;        // conservative synchronization windows
    std::uint64_t cross_events = 0;  // events routed through an outbox
    /// Always 0: outboxes are unbounded vectors and never spill. Kept so
    /// reports that read it keep their schema.
    std::uint64_t spilled = 0;
    /// Events executed per shard — the max/mean ratio is the load balance.
    std::vector<std::uint64_t> executed_per_shard;
  };
  [[nodiscard]] shard_stats stats() const;

 private:
  struct cross_event {
    time_point t;
    event_fn fn;
  };

  struct shard {
    engine core;
    /// Outgoing cross-shard events, one vector per target shard, each in
    /// scheduling (origin-sequence) order.
    std::vector<std::vector<cross_event>> outbox;
  };

  // Shard ids are the inner engine's {slot+1, gen} id tagged with the shard
  // index in the top bits. 6 tag bits cap the backend at 64 shards and each
  // shard at 2^26 pooled slots (~67M concurrently pending events).
  static constexpr int shard_shift = 58;
  static constexpr std::uint32_t no_shard = 0xFFFFFFFFu;
  static event_id tag(std::uint32_t s, event_id inner);
  [[nodiscard]] std::uint32_t current_shard() const {
    return executing_ == no_shard ? 0 : executing_;
  }

  void drain_outboxes();
  [[nodiscard]] time_point next_time_all();
  std::size_t run_shard(std::uint32_t s, time_point bound);
  std::size_t run_rounds(time_point limit, std::size_t max_events);

  duration lookahead_;
  std::vector<std::uint32_t> node_shard_;
  std::vector<std::unique_ptr<shard>> shards_;
  std::uint32_t executing_ = no_shard;  // shard running events, if any
  std::uint64_t rounds_ = 0;
  std::uint64_t cross_events_ = 0;
};

}  // namespace hades::sim
