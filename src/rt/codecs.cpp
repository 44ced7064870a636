#include "rt/codecs.hpp"

#include <cstring>
#include <mutex>
#include <string>
#include <string_view>
#include <type_traits>

#include "core/dispatcher.hpp"
#include "services/reliable_comm.hpp"
#include "sim/wire_codec.hpp"
#include "util/error.hpp"
#include "util/time.hpp"
#include "util/types.hpp"

namespace hades::rt {

namespace {

// Stable payload tags — the cross-process protocol. Never renumber a
// shipped tag; add new types at the end.
enum : std::uint32_t {
  tag_u64 = 1,            // heartbeat counters (services/fault_detector)
  tag_int = 2,            // campaign application payload
  tag_control_token = 3,  // dispatcher control channel
  tag_node_vec = 4,       // fault-detector suspicion digests
  tag_bcast_msg = 5,      // reliable_broadcast envelope (nested payload)
};

void put_bytes(std::vector<std::byte>& out, const void* p, std::size_t n) {
  const auto* b = static_cast<const std::byte*>(p);
  out.insert(out.end(), b, b + n);
}

template <typename T>
void put(std::vector<std::byte>& out, const T& v) {
  static_assert(std::is_trivially_copyable_v<T>);
  put_bytes(out, &v, sizeof v);
}

/// Bounds-checked sequential reader for decode paths.
struct reader {
  const std::byte* p;
  std::size_t left;

  template <typename T>
  T get() {
    static_assert(std::is_trivially_copyable_v<T>);
    validate(left >= sizeof(T), "rt codec: truncated frame");
    T v;
    std::memcpy(&v, p, sizeof v);
    p += sizeof(T);
    left -= sizeof(T);
    return v;
  }
  const std::byte* take(std::size_t n) {
    validate(left >= n, "rt codec: truncated frame");
    const std::byte* q = p;
    p += n;
    left -= n;
    return q;
  }
};

void put_string(std::vector<std::byte>& out, std::string_view s) {
  put(out, static_cast<std::uint32_t>(s.size()));
  put_bytes(out, s.data(), s.size());
}

std::string get_string(reader& r) {
  const auto n = r.get<std::uint32_t>();
  const std::byte* q = r.take(n);
  return {reinterpret_cast<const char*>(q), n};
}

}  // namespace

void register_hades_codecs() {
  static std::once_flag once;
  std::call_once(once, [] {
    using sim::wire_codec;
    using sim::wire_payload;

    wire_codec::register_trivial<std::uint64_t>(tag_u64);
    wire_codec::register_trivial<int>(tag_int);
    static_assert(std::is_trivially_copyable_v<core::control_token>);
    wire_codec::register_trivial<core::control_token>(tag_control_token);

    wire_codec::register_codec(
        tag_node_vec,
        [](const wire_payload& p, std::vector<std::byte>& out) {
          const auto* v = p.get<std::vector<node_id>>();
          if (v == nullptr) return false;
          put(out, static_cast<std::uint32_t>(v->size()));
          put_bytes(out, v->data(), v->size() * sizeof(node_id));
          return true;
        },
        [](const std::byte* data, std::size_t len) {
          reader r{data, len};
          const auto n = r.get<std::uint32_t>();
          std::vector<node_id> v(n);
          std::memcpy(v.data(), r.take(n * sizeof(node_id)),
                      n * sizeof(node_id));
          return wire_payload(std::move(v));
        });

    // Broadcast envelopes nest an arbitrary payload: encode it recursively
    // as (tag, length, bytes). An unregistered nested type throws from the
    // inner encode — the same loud failure as a bare payload.
    wire_codec::register_codec(
        tag_bcast_msg,
        [](const wire_payload& p, std::vector<std::byte>& out) {
          using bcast_msg = svc::reliable_broadcast::bcast_msg;
          const auto* m = p.get<bcast_msg>();
          if (m == nullptr) return false;
          put(out, m->origin);
          put(out, m->seq);
          put(out, m->sent_at.nanoseconds());
          put(out, static_cast<std::uint64_t>(m->size_bytes));
          // The nested payload is encoded in place, behind its tag and
          // length, which are written once it is.
          const std::size_t at = out.size();
          std::uint32_t nested[2] = {};  // tag, length
          put(out, nested);
          nested[0] = wire_codec::encode(m->payload, out);
          nested[1] =
              static_cast<std::uint32_t>(out.size() - at - sizeof nested);
          std::memcpy(out.data() + at, nested, sizeof nested);
          return true;
        },
        [](const std::byte* data, std::size_t len) {
          using bcast_msg = svc::reliable_broadcast::bcast_msg;
          reader r{data, len};
          bcast_msg m;
          m.origin = r.get<node_id>();
          m.seq = r.get<std::uint64_t>();
          m.sent_at = time_point::at(
              duration::nanoseconds(r.get<std::int64_t>()));
          m.size_bytes = static_cast<std::size_t>(r.get<std::uint64_t>());
          const auto nested_tag = r.get<std::uint32_t>();
          const auto nested_len = r.get<std::uint32_t>();
          m.payload = wire_codec::decode(nested_tag, r.take(nested_len),
                                         nested_len);
          return wire_payload(std::move(m));
        });
  });
}

void encode_monitor_event(const core::monitor& mon,
                          const core::monitor_event& e,
                          std::vector<std::byte>& out) {
  put(out, static_cast<std::uint32_t>(e.kind));
  put(out, e.at.nanoseconds());
  put(out, e.node);
  put(out, e.task);
  put(out, e.instance);
  put(out, e.subject_node);
  put_string(out, mon.name(e.subject));
  put_string(out, mon.name(e.detail));
}

monitor_event_text decode_monitor_event(const std::byte* data,
                                        std::size_t len) {
  reader r{data, len};
  monitor_event_text t;
  core::monitor_event& e = t.event;
  // Only monitored kinds are forwarded: trace records reach no forwarder.
  const auto kind = r.get<std::uint32_t>();
  validate(kind <= static_cast<std::uint32_t>(
                       core::monitor_event_kind::node_unsuspected),
           "rt codec: not a monitored event kind");
  e.kind = static_cast<core::monitor_event_kind>(kind);
  e.at = time_point::at(duration::nanoseconds(r.get<std::int64_t>()));
  e.node = r.get<node_id>();
  e.task = r.get<task_id>();
  e.instance = r.get<instance_number>();
  e.subject_node = r.get<node_id>();
  t.subject = get_string(r);
  t.detail = get_string(r);
  return t;
}

}  // namespace hades::rt
