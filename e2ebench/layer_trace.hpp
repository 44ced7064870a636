// Outside-in layer trace. Splits a traced cell's wall time by layer through
// public seams only — nothing inside src/ changes:
//
//   * timing wrappers registered in the runtime registry under "sim" and
//     "sharded" time every callback scheduled through `at`, `at_node`,
//     `schedule_periodic` and `batch_add`; engine self time is the wall time
//     of `run_until` minus the callback time inside it;
//   * the network's delivery observer labels the running callback with its
//     frame's channel (services/channels.hpp; 0 and 1 are dispatcher
//     tokens), so callback time splits into local work and deliveries;
//   * each gateway node's dispatcher admission and retire hooks are
//     re-installed wrapped with timers; their time is subtracted from the
//     enclosing callback, so no nanosecond is counted twice.
//
// The benchmark runs one thread, so the trace state is one plain global.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "core/system.hpp"

namespace e2ebench {

/// What a traced callback did, decided by the frame it delivered (if any).
enum class label : std::uint8_t {
  local,    // delivered no frame: dispatcher, processor, timers, arrivals
  token,    // dispatcher control tokens (channels 0 and 1)
  fd,       // heartbeats and aggregator digests
  bcast,    // reliable broadcast and point-to-point
  sync,     // clock synchronization
  capture,  // mode-switch state capture
  other,    // any other channel
};
inline constexpr std::size_t label_count = 7;

struct layer_times {
  std::array<double, label_count> cb_s{};         // callback self time
  std::array<std::uint64_t, label_count> cb_n{};  // callbacks
  double run_s = 0.0;       // wall time inside run_until / run / step
  double admit_s = 0.0;     // admission hook
  double retire_s = 0.0;    // retire hook
  std::uint64_t admit_n = 0;
  std::uint64_t retire_n = 0;
};

/// The process-wide accumulators; zero them with `reset_layer_times`.
layer_times& traced();
void reset_layer_times();

/// Register the timing wrappers for "sim" and "sharded". Call once, before
/// the first deployment is built.
void install_timing_backends();

/// Label callbacks by the channel of the frame they deliver.
void label_deliveries(hades::core::system& sys);

/// Wrap the admission and retire hooks of every node in `nodes` with timers.
void time_gateway_hooks(hades::core::system& sys,
                        const std::vector<hades::node_id>& nodes);

}  // namespace e2ebench
