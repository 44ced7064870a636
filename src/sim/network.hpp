// Simulated LAN with bounded delay and the paper's network fault model.
//
// The paper assumes an ATM LAN whose communication failures are omissions
// (messages lost) and performance failures (messages delivered late,
// section 2.1). The simulator implements exactly those semantics: delivery
// latency is drawn uniformly from [delta_min, delta_max] plus a per-byte
// transfer cost; faults can be injected probabilistically per link or
// scripted deterministically ("drop the next k messages from a to b").
// Per-link FIFO order is preserved, as on an ATM virtual circuit.
//
// Every stochastic draw (latency jitter, omission, lateness) comes from a
// per-source-node stream derived from the seed, never from a shared global
// stream: a node's wire behaviour depends only on its own send history, so
// the same workload produces bit-identical deliveries on the single-engine
// and sharded runtime backends (DESIGN.md, "Sharded backend"). Deliveries
// are scheduled with `runtime::at_node(dst, ...)` so the sharded backend
// can route each one to the shard owning the destination.
//
// Wire fast path (DESIGN.md, "Wire fast path"): a steady-state fault-free
// send costs zero heap allocations and zero lock acquisitions. Payloads are
// `wire_payload`s (drawn from the running thread's slab pool, refcount-shared
// across broadcast fan-out — never `std::any`'s per-copy heap box). The
// only per-link state every link needs is its FIFO floor: one 16-byte
// open-addressed `sparse_node_map` slot per destination *actually
// delivered to* — sized by the topology's neighbour set, not by N, so
// 10k-node runs with clustered/tree topologies keep wire state near-linear
// system-wide instead of the O(N²) a dense [source][destination] layout
// costs (DESIGN.md, "Scalable topology layer"). The per-link fault program
// (omission rate, scripted drop bursts, directional link-down timeline)
// lives in a second per-source map that only the link fault setters
// write; a send probes it only when it holds an entry, so a fault-free
// send makes one probe. After the first delivery to a destination its slot
// exists and the path allocates nothing. Timeline lookups binary-search
// their sorted entries (`std::upper_bound`), so long pre-registered fault
// plans do not tax every send.
//
// Shard confinement (DESIGN.md): all per-link send-side state lives in one
// `source_state` per node, touched only at send time, i.e. on the shard
// owning the sender (every send a node performs executes on its own shard —
// the anchoring rule of DESIGN.md). The globally-read fault state (node
// up/down, partitions, the global omission/performance rates) is a set of
// date-keyed timelines: a send at date t reads the state configured for
// date t, never the state as of whichever order the shards of a serial
// round happened to execute the mutation in — which is what lets the
// scenario layer replay a fault plan bit-identically across shard counts
// (`scenario::apply` pre-registers a plan's whole global wire truth before
// the run; runtime re-registrations are same-date idempotent).
//
// `reserve_nodes` pre-creates source slots and the handler table (the
// owning `core::system` calls it with its node count); per-destination
// slots inside a source's sparse maps grow on first contact.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "sim/runtime.hpp"
#include "sim/wire_payload.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/sparse_map.hpp"
#include "util/types.hpp"

namespace hades::sim {

/// One frame on the wire. Payloads are type-erased pooled values (the
/// simulation is in-process; services down-cast on their own channel with
/// `payload.get<T>()`). Copying a message shares the payload by refcount.
struct message {
  node_id src = invalid_node;
  node_id dst = invalid_node;
  int channel = 0;
  wire_payload payload;
  std::size_t size_bytes = 0;
  std::uint64_t id = 0;  // unique per source: (src + 1) << 40 | per-src seq
  time_point sent_at;
};

/// The simulated LAN, and the one fault model every backend's frames are
/// judged by: on the realtime backend, frames for another OS process pass
/// the same drop and latency draws before the remote hook ships them.
class network {
 public:
  struct params {
    duration delta_min = duration::microseconds(10);
    duration delta_max = duration::microseconds(50);
    duration per_byte = duration::nanoseconds(8);  // ~1 Gbit/s
  };

  /// A node's receive handler. The frame is the handler's to consume: it
  /// may move the payload out, because the wire reads the frame no more
  /// once the handler returns (the delivery observer has already seen it).
  using handler = std::function<void(message&)>;

  network(runtime& rt, params p, std::uint64_t seed = 42)
      : rt_(&rt), params_(p), seed_(seed) {
    validate(p.delta_min <= p.delta_max, "network: delta_min > delta_max");
    validate(!p.delta_max.is_infinite(), "network: delta_max must be finite");
  }
  ~network();
  network(const network&) = delete;
  network& operator=(const network&) = delete;

  /// Pre-create per-source slots and the handler table for nodes [0, n);
  /// `core::system` calls it with its node count. Destination slots inside
  /// each source's sparse map are *not* pre-created — they grow on first
  /// contact.
  void reserve_nodes(std::size_t n) {
    while (sources_.size() < n) new_source();
    if (handlers_.size() < n) handlers_.resize(n);
  }

  /// Attach a node's receive handler. A node without a handler silently
  /// drops inbound traffic (models a crashed or absent node).
  void attach(node_id n, handler h) {
    ensure_source(n);
    if (handlers_.size() <= n) handlers_.resize(static_cast<std::size_t>(n) + 1);
    handlers_[n] = std::move(h);
  }
  void detach(node_id n) {
    if (n < handlers_.size()) handlers_[n] = nullptr;
  }
  [[nodiscard]] bool attached(node_id n) const {
    return n < handlers_.size() && handlers_[n] != nullptr;
  }
  /// Call `f(n)` for every attached node in ascending id order.
  template <typename F>
  void for_each_attached(F&& f) const {
    for (node_id n = 0; n < handlers_.size(); ++n)
      if (handlers_[n]) f(n);
  }

  /// Send one message. Returns the message id (even when the frame is
  /// dropped at submit time).
  std::uint64_t unicast(node_id src, node_id dst, int channel,
                        wire_payload payload, std::size_t size_bytes = 64);

  /// Send to every attached node except the sender, sharing one pooled
  /// payload across the whole fan-out (refcount, not copies). Returns the
  /// number of frames submitted; the zero-allocation broadcast path.
  std::size_t fan_out(node_id src, int channel, const wire_payload& payload,
                      std::size_t size_bytes = 64);

  // --- fault injection -------------------------------------------------
  // The globally-read toggles (node-down, partition, omission rate,
  // performance faults) each have a date-taking variant programming the
  // state ahead of time. The scenario injector uses those to register a
  // whole plan's wire state *before* the run: reads are date-keyed, so
  // pre-registration changes nothing semantically, but a relay send that
  // lands within one lookahead of a toggle on another shard then reads the
  // same answer whichever shard's window a serial round runs first.

  /// Probability that any message is lost (global omission rate). Takes
  /// effect from the current date onward (time-indexed toggle).
  void set_omission_rate(double p) { set_omission_rate_at(rt_->now(), p); }
  /// Program the omission rate to change at future date `t`.
  void set_omission_rate_at(time_point t, double p);
  /// Per-link omission probability, overrides the global rate. Send-side
  /// state: call from the source's shard (the injector anchors on it).
  void set_link_omission(node_id src, node_id dst, double p) {
    source(src).faults[dst].omission = p;
  }
  /// Deterministically drop the next `count` messages src -> dst.
  /// `channel >= 0` restricts the burst to that channel (so a scripted
  /// heartbeat burst cannot eat unrelated traffic on the same link); a
  /// channel-scoped burst is consumed before any `any_channel` burst on the
  /// same link.
  void drop_next(node_id src, node_id dst, int count, int channel = any_channel);
  /// Take one *direction* of a link down / up: frames src -> dst are dropped
  /// at submit time from this date onward, the reverse direction is
  /// untouched (asymmetric partitions are sets of these). Time-indexed: a
  /// frame is judged against the state at its own send date. Send-side
  /// state: call from the source's shard.
  void set_link_down(node_id src, node_id dst, bool down);
  /// Performance failures: with probability p, add `extra` delay. Takes
  /// effect from the current date onward (time-indexed toggle).
  void set_performance_fault(double p, duration extra) {
    set_performance_fault_at(rt_->now(), p, extra);
  }
  /// Program a performance-fault window edge at future date `t`.
  void set_performance_fault_at(time_point t, double p, duration extra);
  /// The largest extra delay any performance fault programmed so far can
  /// add (zero when none has a positive rate).
  [[nodiscard]] duration max_perf_extra() const { return max_perf_extra_; }

  /// Take a whole node off the wire (both directions): outbound frames are
  /// dropped at submit time and inbound frames at delivery time, so a
  /// crashed node neither sends nor receives — `core::system::crash_node`
  /// drives this, making crashes symmetric at the wire. Time-indexed: a
  /// frame is judged against the node state at its own send/delivery date.
  void set_node_down(node_id n, bool down) {
    set_node_down_at(rt_->now(), n, down);
  }
  /// Program a node's wire silence to toggle at future date `t`. Same-date
  /// re-registration (the scheduled crash action repeating the injector's
  /// pre-registered entry) is idempotent.
  void set_node_down_at(time_point t, node_id n, bool down);
  [[nodiscard]] bool node_down(node_id n) const {
    return global_.node_down_at(n, rt_->now());
  }

  /// Partition the LAN into isolated groups: frames whose endpoints are in
  /// different groups are dropped at submit time. Nodes not listed in any
  /// group stay connected to everyone. `heal_partition` reconnects all.
  void partition(const std::vector<std::vector<node_id>>& groups) {
    partition_at(rt_->now(), groups);
  }
  void heal_partition() { heal_partition_at(rt_->now()); }
  /// Program a partition / heal at future date `t`.
  void partition_at(time_point t,
                    const std::vector<std::vector<node_id>>& groups);
  void heal_partition_at(time_point t);

  // --- remote transport (realtime backend) ------------------------------
  /// Hook consulted once the fault model has judged a frame: it sees only
  /// frames that were not dropped, with the performance-fault delay `extra`
  /// they drew (zero when on time). Returning true means the frame's
  /// destination is owned by another OS process and the transport took it;
  /// false falls through to the local wire. Null (the default, every sim
  /// run) costs one branch.
  using remote_hook = std::function<bool(const message&, duration extra)>;
  void set_remote_hook(remote_hook hook) { remote_hook_ = std::move(hook); }
  /// Deliver a frame that arrived from a remote transport, at once, with
  /// the node-down check, counters, observer and handler local frames get.
  /// Call on the engine thread, inside the event the transport scheduled on
  /// the destination's owner: the frame's payload belongs to that thread.
  void deliver_remote(message& m) { deliver_now(m); }

  // --- observability ---------------------------------------------------
  struct counters {
    std::uint64_t sent = 0;
    std::uint64_t delivered = 0;
    std::uint64_t dropped = 0;
    std::uint64_t late = 0;
  };
  /// The wire counters: frames submitted, delivered, dropped (at submit
  /// time or in flight) and hit by a performance fault.
  [[nodiscard]] counters stats() const { return counters_; }
  [[nodiscard]] const params& config() const { return params_; }

  /// Worst-case fault-free delivery latency for a message of `size` bytes.
  [[nodiscard]] duration worst_case_latency(std::size_t size_bytes) const {
    return params_.delta_max + params_.per_byte * static_cast<std::int64_t>(size_bytes);
  }

  /// Observer invoked on every delivery (tracing). Runs on the destination
  /// node's shard.
  void set_delivery_observer(std::function<void(const message&)> obs) {
    observer_ = std::move(obs);
  }

  /// Sentinel for drop_next: the burst applies to any channel.
  static constexpr int any_channel = -1;

 private:
  /// Piecewise-constant value over simulated time: `set` records the value
  /// taking effect at date t, `at` reads the value in force at date t. All
  /// reads are order-independent — two shards may execute a mutation and a
  /// query in either wall order within a round and still agree, because the
  /// query compares dates, not mutation order. Entries stay sorted by date,
  /// same-date entries in registration order, and both `set` and `at`
  /// binary-search (`std::upper_bound`) — `at` returns the *last* entry at
  /// or before t, so same-date re-registration is last-write-wins.
  template <typename T>
  class timeline {
   public:
    void set(time_point t, T v) {
      entries_.insert(upper_bound(t), {t, std::move(v)});
    }
    [[nodiscard]] const T* at(time_point t) const {
      auto it = upper_bound(t);
      return it == entries_.begin() ? nullptr : &std::prev(it)->second;
    }
    [[nodiscard]] bool empty() const { return entries_.empty(); }

   private:
    using entry = std::pair<time_point, T>;
    // Const iterator serves both paths: vector::insert takes one.
    [[nodiscard]] typename std::vector<entry>::const_iterator upper_bound(
        time_point t) const {
      return std::upper_bound(
          entries_.begin(), entries_.end(), t,
          [](time_point q, const entry& e) { return q < e.first; });
    }

    std::vector<entry> entries_;  // sorted by date
  };

  struct perf_fault {
    double rate = 0.0;
    duration extra = duration::zero();
  };

  /// Globally-read fault state, every entry date-keyed.
  struct global_state {
    std::vector<timeline<bool>> node_down;  // node-indexed
    // node -> group in force; no_group means unrestricted. Empty vector =
    // no partition.
    timeline<std::vector<std::uint32_t>> partition;
    timeline<double> omission_rate;
    timeline<perf_fault> perf_fault_tl;

    [[nodiscard]] bool node_down_at(node_id n, time_point t) const {
      if (n >= node_down.size()) return false;
      const bool* v = node_down[n].at(t);
      return v != nullptr && *v;
    }
    [[nodiscard]] bool partitioned_at(node_id a, node_id b, time_point t) const;
  };

  static constexpr std::uint32_t no_group = 0xFFFFFFFFu;

  struct drop_burst {
    int channel = 0;  // any_channel = every channel
    int remaining = 0;
  };

  /// The fault program of one src -> dst link. Only `set_link_omission`,
  /// `drop_next` and `set_link_down` create one.
  struct link_faults {
    double omission = -1.0;  // <0 = unset, fall back to global rate
    std::vector<drop_burst> scripted_drops;
    timeline<bool> down;     // src -> dst, dated
  };

  /// Send-side state of one node, owned by the shard owning the node: only
  /// events executing there (the node's sends, injector actions anchored on
  /// the node) may touch it. Destination-keyed state is two sparse maps:
  /// the FIFO floor of every destination this source delivered to (the
  /// neighbour set, not N; 16-byte slots), and the fault program of every
  /// link a fault plan touched, empty in a fault-free run.
  struct source_state {
    explicit source_state(rng r) : stream(std::move(r)) {}
    rng stream;
    std::uint64_t next_seq = 0;
    util::sparse_node_map<time_point> fifo_floor;  // last delivery date
    util::sparse_node_map<link_faults> faults;
  };

  void new_source();
  void ensure_source(node_id n) {
    while (sources_.size() <= n) new_source();
  }
  source_state& source(node_id n) {
    ensure_source(n);
    return *sources_[n];
  }

  /// Draws one frame's delivery latency; `extra` receives the
  /// performance-fault delay included in it (zero unless `late`).
  duration sample_latency(source_state& s, std::size_t size_bytes,
                          time_point now, bool& late, duration& extra);
  /// The delivery-time half of the wire: node-down check, counters,
  /// observer, handler. Shared by locally scheduled deliveries and frames
  /// injected by `deliver_remote`.
  void deliver_now(message& m);
  bool should_drop(source_state& s, node_id src, node_id dst, int channel,
                   time_point now);
  /// The send fast path. `fan_out` hoists the clock read and the source
  /// lookup out of its per-destination loop.
  std::uint64_t submit(source_state& s, time_point now, node_id src,
                       node_id dst, int channel, wire_payload payload,
                       std::size_t size_bytes);

  runtime* rt_;
  params params_;
  std::uint64_t seed_;
  std::vector<std::unique_ptr<source_state>> sources_;
  std::vector<handler> handlers_;  // node-indexed; null = not attached
  global_state global_;
  counters counters_;
  std::function<void(const message&)> observer_;
  duration max_perf_extra_ = duration::zero();
  remote_hook remote_hook_;  // null on sim backends
};

}  // namespace hades::sim
