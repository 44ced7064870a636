// UDP loopback transport for multi-process realtime runs (DESIGN.md,
// "Runtime factory & injector API").
//
// One transport per OS process, one UDP socket per transport, bound to
// 127.0.0.1:(base_port + process index). It plugs into the process-local
// `sim::network` through the remote hook: frames whose destination node the
// runtime places in another process (`runtime::shard_of` against
// `runtime::executing_shard`) are serialized (sim/wire_codec) and shipped
// as one length-delimited datagram each; everything else falls through to
// the simulated LAN untouched.
//
// The transport makes no fault decisions of its own. `sim::network` judges
// every frame, local or cross-process, against the one fault model the
// scenario plan programs — node silence, partitions, per-link downs,
// scripted omission bursts, omission and performance rates — before the
// hook runs, so a dropped frame never reaches the socket and never consumes
// a link sequence number (receivers see no artificial gap). A frame that
// drew a performance fault arrives with its extra delay: an event on the
// sending engine, dated that much after the frame's send, puts it on the
// socket (later undelayed frames overtake it, so the link reorders), and
// the intentional delay rides the frame header so the receiver's Δ check
// does not count it against the network.
//
// Receivers recover per-link FIFO with a sequence hold-back window: a gap
// (a genuinely lost datagram) is declared lost after a bounded hold and
// skipped — the same observable outcome as an omission fault, which every
// HADES service already tolerates. The hold stretches to cover the largest
// performance-fault delay the network was programmed with
// (`network::max_perf_extra`, read at `start`); like that delay, it runs on
// the engine's clock, so the time scale stretches both. A declared-lost
// frame that does arrive later is still delivered (late, out of FIFO order
// — the sim's perf-fault semantics) instead of degenerating into an
// omission.
//
// Monitor events forwarded across processes (`monitor::set_forwarder`)
// ride the same socket but bypass both the fault model and sequence
// recovery: in-process they travel through the scheduler, not the LAN, so
// the transport must not subject them to wire faults. They carry their
// subject and detail as text.
//
// The receiver thread reads only frame headers. It hands each datagram
// that leaves sequence recovery to the destination's engine thread as
// bytes, in one `at_node` event, and that thread decodes it: a data
// frame's payload into its own `wire_payload` pool, a monitor event's
// text into its monitor. Every payload is acquired and released on the
// engine thread (DESIGN.md, "Wire fast path").
//
// The receiver measures real end-to-end latency (minus any intentional
// extra delay) against the network's delta_max and counts violations; the
// harness fails loudly when the wall clock broke the Δ bound the checkers'
// verdicts assume.
#pragma once

#include <cstdint>
#include <memory>

#include "core/monitor.hpp"
#include "sim/network.hpp"
#include "sim/runtime.hpp"

namespace hades::rt {

class socket_transport final {
 public:
  /// Process i listens on 127.0.0.1:(base_port + i).
  socket_transport(hades::runtime& rt, sim::network& net, core::monitor& mon,
                   std::uint16_t base_port);
  ~socket_transport();
  socket_transport(const socket_transport&) = delete;
  socket_transport& operator=(const socket_transport&) = delete;

  /// Open the socket, start the receiver thread, and install the network
  /// remote hook + monitor forwarder. Call after every node is attached and
  /// the scenario plan is applied (the hold-back window reads the network's
  /// fault program here), before the run loop starts.
  void start();
  /// Uninstall hooks, cancel delayed sends still pending on the engine,
  /// stop the receiver thread, close the socket. Call it while the engine
  /// is not running. Idempotent; the destructor calls it.
  void stop();

  struct stats_t {
    std::uint64_t sent = 0;           // datagrams handed to the socket
    std::uint64_t received = 0;       // datagrams parsed
    std::uint64_t delayed = 0;        // performance-faulted frames
    std::uint64_t dup_dropped = 0;    // below-floor / duplicate sequence
    std::uint64_t gaps_declared = 0;  // lost datagrams skipped by hold-back
    std::uint64_t late_delivered = 0; // declared-lost frames arriving late
    std::uint64_t delta_violations = 0;
    std::int64_t max_latency_ns = 0;  // real latency, intentional delay excluded
  };
  [[nodiscard]] stats_t stats() const;

 private:
  struct impl;
  std::unique_ptr<impl> impl_;
};

}  // namespace hades::rt
