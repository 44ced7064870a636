// Real-clock runtime backend (DESIGN.md, "Runtime factory & injector API").
//
// The same `hades::runtime` contract the discrete-event backends implement,
// driven by `std::chrono::steady_clock`: virtual time t maps to the real
// instant `epoch + t * time_scale`, and a condvar wait loop fires each
// pending event when the wall clock passes its date. Dispatchers, services,
// the scenario injector — everything programmed against `hades::runtime` —
// run unmodified; what was simulated latency becomes actual elapsed time.
//
// Contract notes specific to this backend:
//   * `now()` derives from the wall clock (monotone via a watermark, so it
//     never regresses even across threads); during a callback it reads the
//     actual firing instant, which is >= the scheduled date, never exactly
//     equal. Time starts at ~0: construction (or the configured shared
//     epoch) is virtual zero, and pre-epoch reads clamp to 0.
//   * `at` accepts past dates instead of rejecting them — under real
//     scheduling jitter a periodic chain legitimately re-arms a date that
//     just slipped behind the clock. The event keeps its nominal date: it
//     fires as soon as possible, in date order among the late events, and
//     `run_until(t)` still runs it when that date is <= t.
//   * every scheduling call (`at`, `cancel`, batches) is thread-safe: a
//     socket transport's receiver thread injects deliveries while the run
//     loop executes. Callbacks themselves execute on the thread inside
//     `run`/`run_until`/`step`, one at a time.
//   * multi-process placement: with `process_count > 1`, `node_process`
//     assigns each node an owning process. `shard_of` reports the owner,
//     `at_node` on a foreign node is dropped (returns `invalid_event`) —
//     the owner runs the equivalent chain; what must cross processes rides
//     the socket transport, not the scheduler.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "sim/runtime.hpp"
#include "util/types.hpp"

namespace hades::rt {

struct realtime_params {
  /// Shared steady_clock epoch (nanoseconds since the clock's arbitrary
  /// zero) mapping to virtual time 0; 0 = construction instant. A
  /// multi-process harness picks one epoch slightly in the future and hands
  /// it to every process so their virtual clocks agree.
  std::int64_t epoch_ns = 0;
  /// Real seconds per virtual second (> 1 slows the run down, giving tight
  /// plans more real headroom per virtual Δ).
  double time_scale = 1.0;
  std::uint32_t process_index = 0;
  std::size_t process_count = 1;
  /// node -> owning process; nodes past the end (or with an empty vector)
  /// map to contiguous balanced blocks over `node_count`.
  std::vector<std::uint32_t> node_process;
  std::size_t node_count = 0;
};

std::unique_ptr<hades::runtime> make_realtime_engine(realtime_params p = {});

/// Ensure "sim", "sharded", and "realtime" are registered with
/// `hades::runtime::make`'s registry. Idempotent; `runtime::make` and
/// `runtime::registered_backends` call it on first use, so user code only
/// needs it when registering additional backends *before* the built-ins.
void register_builtin_backends();

}  // namespace hades::rt
