// Real-clock runtime backend (DESIGN.md, "Runtime factory & injector API").
//
// The same `hades::runtime` contract the discrete-event backends implement,
// driven by `std::chrono::steady_clock`: virtual time t maps to the real
// instant `epoch + t * time_scale`. Events are ordered by the pooled
// `sim::engine` itself — this backend is a wall-clock driver of that core:
// its run loop peeks the core's next date, waits on a condvar until that
// date's real deadline passes, then steps the core. Dispatchers, services,
// the scenario injector — everything programmed against `hades::runtime` —
// run unmodified; what was simulated latency becomes actual elapsed time.
//
// Contract notes specific to this backend:
//   * `now()` derives from the wall clock (monotone via a watermark, so it
//     never regresses even across threads); during a callback it reads the
//     actual firing instant, not the scheduled date. Time starts at ~0:
//     construction (or the configured shared epoch) is virtual zero, and
//     pre-epoch reads clamp to 0.
//   * `at` accepts dates the wall clock has already passed — under real
//     scheduling jitter a periodic chain legitimately re-arms a date that
//     just slipped behind the clock. The event keeps its nominal date and
//     fires as soon as possible; `run_until(t)` still runs it when that
//     date is <= t. Only a date below the core's current instant (the date
//     of the event being fired, or the last `run_until` bound) is moved up
//     to that instant: it fires next, and never past a `run_until` bound.
//   * every scheduling call (`at`, `at_node`, `cancel`) is thread-safe: a
//     socket transport's receiver thread injects deliveries while the run
//     loop executes. Callbacks execute on the thread inside
//     `run`/`run_until`/`step`, one at a time, with the engine's lock
//     released — another thread may schedule or cancel meanwhile.
//   * multi-process placement: with `process_count > 1`, `node_shard`
//     assigns each node an owning process (contiguous balanced blocks over
//     `node_count` when empty). `shard_of` reports the owner,
//     `executing_shard` this process, and `at_node` on a foreign node is
//     dropped (returns `invalid_event`) — the owner runs the equivalent
//     chain; what must cross processes rides the socket transport, not the
//     scheduler.
//   * every fired event records its wake lateness (`wake_lateness`): how
//     long after its date's real deadline its callback started. The engine
//     reserves every row of that histogram when it is built, so recording
//     allocates nothing, however late a wake.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>

#include "sim/runtime.hpp"
#include "util/hdr_histogram.hpp"
#include "util/time.hpp"

namespace hades::rt {

/// The realtime backend for `o` (reads `epoch_ns`, `time_scale`,
/// `process_index`, `process_count`, `node_shard` and `node_count`).
std::unique_ptr<hades::runtime> make_realtime_engine(
    const hades::runtime::options& o);

/// The wake lateness of every event `rt` has fired, in real nanoseconds:
/// for each event, the real time from its date's real deadline
/// (`epoch + date * time_scale`) to the moment its callback starts. `rt`
/// must come from `make_realtime_engine`. Read it between runs, on the
/// thread that drives the engine.
[[nodiscard]] const hdr_histogram& wake_lateness(const hades::runtime& rt);

/// The time scale a multi-process run needs on a host whose measured wake
/// lateness is `lateness` (real ns). A frame's path wakes twice, on the
/// sending engine and on the receiver thread, so its lateness is taken as
/// 2 x p99.9: the answer is the smallest whole scale, at least 3, at which
/// that plus a 10 ms margin fits inside the real Δ (`delta_max` x scale),
/// or nullopt above 16, a host too late for Δ. DESIGN.md, "Multi-process
/// loopback quickstart", gives the basis of these constants.
[[nodiscard]] std::optional<std::uint32_t> time_scale_for(
    const hdr_histogram& lateness, duration delta_max);

/// Ensure "sim", "sharded", and "realtime" are registered with
/// `hades::runtime::make`'s registry. Idempotent; `runtime::make` and
/// `runtime::registered_backends` call it on first use, so user code only
/// needs it when registering additional backends *before* the built-ins.
void register_builtin_backends();

}  // namespace hades::rt
