// The HADES runtime abstraction (see DESIGN.md, "Runtime layer").
//
// Every component that schedules work — dispatchers, processors, the
// net_mngt task, the simulated LAN, and the timer-driven services — programs
// against this interface instead of a concrete event engine. The discrete-
// event simulation backend (`sim::engine`) is one implementation; a
// real-clock backend or a sharded multi-engine backend can be slotted in
// without touching src/core or src/services. Those layers must include this
// header only, never `sim/engine.hpp` (enforced by CI and by the
// `runtime_layer_include_hygiene` ctest; the interface contract itself is
// covered by tests/sim/runtime_test.cpp).
//
// Semantics every backend must honour:
//   * time is monotonically non-decreasing and starts at zero,
//   * the only event kind is the dated one-shot event; events at the same
//     instant fire in scheduling (FIFO) order,
//   * `cancel` is O(1), idempotent, and safe on fired or invalid ids,
//   * a `periodic_at_node` chain fires at first, first+p, first+2p, ...
//     below its `until` date, without accumulating drift, each link on the
//     shard owning its node.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "sim/event.hpp"
#include "util/error.hpp"
#include "util/time.hpp"
#include "util/types.hpp"

namespace hades {

class runtime {
 public:
  /// Backend-neutral construction parameters (the runtime factory API).
  /// `runtime::make` resolves `backend` against the registry — "sim"
  /// (single pooled event engine), "sharded" (multi-engine conservative
  /// rounds), "realtime" (steady_clock timers, optionally one OS process
  /// per node group) — so composition layers select a backend by name and
  /// never spell a concrete engine type.
  struct options {
    std::string backend = "sim";
    std::size_t node_count = 0;  // nodes the topology queries cover

    // --- sharded backend ---------------------------------------------------
    std::size_t shards = 0;  // node groups (0 = backend default)
    /// Must stay 0: the sharded backend runs serial rounds only and rejects
    /// any other value.
    std::size_t workers = 0;
    /// Conservative lookahead: lower bound on every cross-shard scheduling
    /// delay (the network's delta_min for system runs).
    duration lookahead = duration::microseconds(10);
    /// node -> shard (sharded) or node -> owning process (realtime).
    /// Empty = contiguous balanced blocks over `node_count`.
    std::vector<std::uint32_t> node_shard;

    // --- realtime backend --------------------------------------------------
    /// Shared steady_clock epoch (nanoseconds since the clock's arbitrary
    /// zero) that virtual time 0 maps to; 0 = construction instant. A
    /// multi-process run passes one epoch to every process so their virtual
    /// clocks agree.
    std::int64_t epoch_ns = 0;
    /// Real seconds per virtual second (>1 = slow motion for tight plans).
    double time_scale = 1.0;
    /// This process's index among `process_count` cooperating processes.
    /// Nodes mapped elsewhere by `node_shard` are foreign: `at_node` on
    /// them is dropped (their owner runs the equivalent chain).
    std::uint32_t process_index = 0;
    std::size_t process_count = 1;
  };

  using factory_fn =
      std::function<std::unique_ptr<runtime>(const options&)>;

  /// Register a backend under `name` (last registration wins). The three
  /// built-ins are registered on first use of `make`/`registered_backends`.
  static void register_backend(const std::string& name, factory_fn f);
  /// Construct the backend `o.backend` names. Throws on unknown names.
  static std::unique_ptr<runtime> make(const options& o);
  /// Names currently registered, sorted (the conformance suite sweeps it).
  static std::vector<std::string> registered_backends();

  virtual ~runtime() = default;
  runtime(const runtime&) = delete;
  runtime& operator=(const runtime&) = delete;

  /// Current time. Monotonically non-decreasing.
  [[nodiscard]] virtual time_point now() const = 0;

  /// Schedule `fn` to run at absolute time `t` (must be >= now()).
  virtual sim::event_id at(time_point t, sim::event_fn fn) = 0;

  /// `at` with a placement hint: the event belongs to node `dst` (it will
  /// read or mutate that node's state when it fires). The single-engine
  /// backend ignores the hint; the sharded backend routes the event to the
  /// shard owning `dst`, enqueuing it at the shard boundary when the caller
  /// is executing on a different shard. Cross-shard events must respect the
  /// backend's lookahead (`t >= now() + lookahead`) and are fire-and-forget:
  /// the returned id may be `invalid_event` (not individually cancellable).
  virtual sim::event_id at_node(node_id dst, time_point t, sim::event_fn fn) {
    (void)dst;
    return at(t, std::move(fn));
  }

  /// Schedule `fn` to run after `d` has elapsed. An infinite delay never
  /// fires.
  sim::event_id after(duration d, sim::event_fn fn) {
    if (d.is_infinite()) return sim::invalid_event;
    return at(now() + d, std::move(fn));
  }

  /// Drift-free per-node periodic chain: runs `fn` at `first`,
  /// `first + period`, ... while the date stays below `until`. Built on
  /// `at_node`, so on the sharded backend every firing executes on the
  /// shard owning `n` — the anchoring rule timer-driven services follow to
  /// keep a node's sends in send-date order across backends (DESIGN.md,
  /// "Scenario layer"). The chain is not cancellable: gate inside `fn`
  /// (e.g. on `system::crashed`). A `first` at or past `until`, or an
  /// infinite period, arms nothing.
  void periodic_at_node(node_id n, time_point first, duration period,
                        std::function<void()> fn,
                        time_point until = time_point::infinity()) {
    if (first >= until || period.is_infinite()) return;
    arm_chain(std::make_unique<periodic_chain>(
                  periodic_chain{this, n, period, until, std::move(fn)}),
              first);
  }

  /// Cancel a previously scheduled event. Safe with invalid_event, with an
  /// already-fired id, and when called twice.
  virtual void cancel(sim::event_id id) = 0;

  // --- shard topology (DESIGN.md, "Shard confinement") ----------------------
  // The small query surface components need to keep their state
  // shard-confined: which shard owns a node, how many shards exist, and
  // which shard is executing. Single-engine backends are one shard;
  // `executing_shard()` returns 0 outside event execution.
  [[nodiscard]] virtual std::uint32_t shard_of(node_id n) const {
    (void)n;
    return 0;
  }
  [[nodiscard]] virtual std::size_t shard_count() const { return 1; }
  [[nodiscard]] virtual std::uint32_t executing_shard() const { return 0; }
  /// Threads advancing shards concurrently. Every built-in backend runs its
  /// events on one thread, so this is always 0; it stays virtual for
  /// wrappers that forward it.
  [[nodiscard]] virtual std::size_t worker_count() const { return 0; }
  /// True while the calling thread is inside one of this runtime's event
  /// callbacks (routing decisions distinguish in-event calls from setup
  /// calls made between runs).
  [[nodiscard]] virtual bool in_event_context() const { return false; }

  // --- rejected primitives --------------------------------------------------
  // No backend has native periodic or batched events: periodic work is a
  // `periodic_at_node` chain and a burst is a run of `at` calls. These four
  // stay declared only because e2ebench's timing wrapper overrides them
  // (they go with its next change). Every call throws invariant_violation
  // and arms nothing.
  virtual sim::event_id schedule_periodic(time_point, duration,
                                          sim::event_fn) {
    reject("schedule_periodic");
  }
  virtual sim::event_batch open_batch(time_point) { reject("open_batch"); }
  virtual sim::event_id batch_add(sim::event_batch&, sim::event_fn) {
    reject("batch_add");
  }
  virtual void commit(sim::event_batch&) { reject("commit"); }

  // --- execution control ----------------------------------------------------
  // The draining guarantee, identical on every backend (and asserted by the
  // conformance suite, tests/rt/runtime_conformance_test.cpp):
  //   * `run_until(t)` returns only once every event dated <= t — including
  //     events those events scheduled — has executed, and `now() == t`
  //     afterwards. `t` must be >= now(). A real-clock backend additionally
  //     waits for the wall clock to pass t before returning.
  //   * `run(max_events)` returns only when the queue is empty or at least
  //     `max_events` events have executed. It may overshoot `max_events` by
  //     the backend's atom of progress (a sharded round) but never stops
  //     early with work pending.
  //   * `step()` executes the next pending event and returns true, or
  //     returns false when idle; a real-clock backend blocks until the
  //     event's date.

  /// Run the next pending event, if any. Returns false when idle.
  virtual bool step() = 0;

  /// Run all events with timestamp <= t; afterwards now() == t.
  /// Returns the number of events executed.
  virtual std::size_t run_until(time_point t) = 0;

  /// Run until the event queue drains (or >= `max_events` executed; the
  /// stop is at the backend's atom-of-progress granularity, see above).
  virtual std::size_t run(std::size_t max_events = 100'000'000) = 0;

  [[nodiscard]] virtual bool empty() const = 0;
  [[nodiscard]] virtual std::size_t pending() const = 0;
  [[nodiscard]] virtual std::uint64_t executed() const = 0;

 protected:
  runtime() = default;

 private:
  [[noreturn]] static void reject(const char* primitive) {
    throw invariant_violation(
        std::string("runtime::") + primitive +
        " is not supported: schedule dated one-shot events (at, at_node, "
        "periodic_at_node)");
  }

  // The constant part of a periodic_at_node chain, held once per chain and
  // handed from link to link, so each link's closure is a pointer and a
  // date — inline in the event pool instead of a heap-allocated 72-byte
  // capture per firing.
  struct periodic_chain {
    runtime* rt;
    node_id n;
    duration period;
    time_point until;
    std::function<void()> fn;
  };
  // Links are dated first, first + period, ...: drift-free, and never read
  // now(), which a realtime backend reports as the (late) firing instant.
  static void arm_chain(std::unique_ptr<periodic_chain> c, time_point at) {
    if (at >= c->until) return;
    runtime* rt = c->rt;
    const node_id n = c->n;
    rt->at_node(n, at, [c = std::move(c), at]() mutable {
      c->fn();
      const time_point next = at + c->period;
      arm_chain(std::move(c), next);
    });
  }
};

namespace sim {
/// Factory for the discrete-event simulation backend (`sim::engine`),
/// usable without including sim/engine.hpp.
std::unique_ptr<runtime> make_engine();

/// Configuration for the sharded multi-engine backend (see DESIGN.md,
/// "Sharded backend"): nodes are partitioned into `shards` groups, each
/// group owning its own pooled event core, advanced in serial conservative
/// rounds — a shard may only run ahead to the global horizon
/// `min(next pending event) + lookahead`, so `lookahead` must be a lower
/// bound on every cross-shard scheduling delay (the network's minimum link
/// delay, delta_min).
struct sharded_params {
  std::size_t shards = 2;  // node groups, each with its own event core (<= 64)
  /// Must stay 0: rounds run on the calling thread, and the engine's
  /// constructor rejects any other value.
  std::size_t workers = 0;
  duration lookahead = duration::microseconds(10);  // must be >= 1ns
  /// node -> shard. Nodes past the end of the vector map to `node % shards`.
  std::vector<std::uint32_t> node_shard;
};

/// Factory for the sharded multi-engine backend (`sim::sharded_engine`),
/// usable without including sim/sharded_engine.hpp.
std::unique_ptr<runtime> make_sharded_engine(sharded_params p);
}  // namespace sim

}  // namespace hades
