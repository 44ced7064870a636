// Wire-codec registrations for the HADES service payload types, plus the
// monitor-event byte codec the socket transport's forwarding path uses.
// Every process of a multi-process deployment calls
// `register_hades_codecs()` once at startup so the (tag, type) protocol
// agrees across the fleet.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/monitor.hpp"

namespace hades::rt {

/// Register codecs for everything HADES services put on the wire:
/// dispatcher control tokens, heartbeats, fault-detector digests,
/// reliable-broadcast envelopes (with their nested payload, recursively
/// encoded), and the plain `int` campaign application payload. Idempotent.
void register_hades_codecs();

/// A monitor event as it crosses processes. Name ids are local to one
/// monitor, so the subject and detail travel as text; the receiving
/// process interns them on its engine thread (`monitor::deliver_forwarded`).
struct monitor_event_text {
  core::monitor_event event;  // subject and detail ids unset
  std::string subject;
  std::string detail;
};

/// Serialize / rebuild a monitor event recorded in `mon` (cross-process
/// `subscribe_at_node` forwarding). Length-prefixed strings; same-binary
/// byte format, like the trivial payload codecs. The socket transport
/// decodes on the receiving process's engine thread, which then interns
/// the text.
void encode_monitor_event(const core::monitor& mon,
                          const core::monitor_event& e,
                          std::vector<std::byte>& out);
monitor_event_text decode_monitor_event(const std::byte* data,
                                        std::size_t len);

}  // namespace hades::rt
