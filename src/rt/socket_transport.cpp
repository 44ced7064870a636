#include "rt/socket_transport.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <utility>

#include "rt/codecs.hpp"
#include "sim/wire_codec.hpp"
#include "util/error.hpp"

namespace hades::rt {

namespace {

constexpr std::uint32_t frame_magic = 0x48444553;  // "HDES"
constexpr std::uint8_t kind_data = 0;
constexpr std::uint8_t kind_monitor = 1;
constexpr std::size_t max_datagram = 60000;
constexpr std::size_t max_held = 64;  // hold-back window per link
// How long the receiver holds frames behind a sequence gap before declaring
// the missing frame lost, before the stretch that covers the network's
// largest performance-fault delay. Engine time, like that delay: the time
// scale stretches both.
constexpr duration holdback = duration::milliseconds(5);

struct frame_header {
  std::uint32_t magic = frame_magic;
  std::uint8_t kind = kind_data;
  std::uint8_t pad[3] = {};
  node_id src = invalid_node;
  node_id dst = invalid_node;  // monitor frames: the home node
  std::int32_t channel = 0;
  std::uint64_t link_seq = 0;  // data frames only
  std::int64_t sent_at_ns = 0;
  std::int64_t extra_delay_ns = 0;  // intentional (perf-fault) delay
  std::uint64_t msg_id = 0;
  std::uint64_t size_bytes = 0;
  std::uint32_t payload_tag = 0;
  std::uint32_t payload_len = 0;
};
static_assert(std::is_trivially_copyable_v<frame_header>);

// Bytes a frame buffer takes in its one allocation: the 72-byte header and
// a payload of up to 184 bytes, which holds every payload kind of
// rt/codecs.cpp but a node list of more than 46 nodes (the largest else, a
// broadcast envelope around a control token, encodes to 132).
constexpr std::size_t frame_capacity = 256;

/// A frame holding room for its header, with capacity for the payload the
/// caller encodes behind it; the header is written once its tag and length
/// are known.
std::vector<std::byte> frame_buffer() {
  std::vector<std::byte> buf;
  buf.reserve(frame_capacity);
  buf.resize(sizeof(frame_header));
  return buf;
}

struct held_frame {
  std::vector<std::byte> bytes;
  time_point arrived;  // engine time
};

constexpr std::size_t max_lost_tracked = 4096;  // declared-gap seqs per link

struct link_state {
  std::uint64_t next_send_seq = 0;  // sender side
  std::uint64_t expected = 1;       // receiver side
  std::map<std::uint64_t, held_frame> held;
  // Sequences declared lost by the hold-back window: a below-floor frame
  // matching one of these is a delayed frame finally arriving, not a
  // duplicate — deliver it late instead of dropping it.
  std::set<std::uint64_t> lost;
};

}  // namespace

struct socket_transport::impl {
  std::uint16_t base_port;
  hades::runtime* rt;
  sim::network* net;
  core::monitor* mon;

  int fd = -1;
  std::thread receiver;
  std::atomic<bool> running{false};
  bool started = false;

  // Read once at start() from the network, which owns them.
  duration delta_max = duration::zero();
  duration max_perf_extra = duration::zero();  // largest intentional delay

  // Link and counter state (the hook runs on the event loop, the receiver
  // loop on its own thread): one mutex covers it all.
  mutable std::mutex mu;
  std::map<std::pair<node_id, node_id>, link_state> links;
  stats_t st;
  // Pending send events of performance-faulted frames, by token, stored
  // before one can run (mu is held across `at`); stop() cancels them.
  std::map<std::uint64_t, sim::event_id> delayed_sends;
  std::uint64_t next_delay_token = 0;

  explicit impl(std::uint16_t port) : base_port(port) {}

  void send_to(std::uint32_t proc, const std::byte* data, std::size_t len) {
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(base_port + proc));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    (void)::sendto(fd, data, len, 0, reinterpret_cast<sockaddr*>(&addr),
                   sizeof addr);
  }

  /// Network remote hook, called for frames the fault model let through:
  /// true = the destination is in another process and the frame shipped.
  bool on_submit(const sim::message& m, duration extra) {
    const std::uint32_t dest_proc = rt->shard_of(m.dst);
    if (dest_proc == rt->executing_shard()) return false;  // local: sim LAN
    const std::int64_t extra_ns = extra.count();
    std::vector<std::byte> buf = frame_buffer();
    {
      std::lock_guard lk(mu);
      frame_header h;
      h.kind = kind_data;
      h.src = m.src;
      h.dst = m.dst;
      h.channel = m.channel;
      h.link_seq = ++links[{m.src, m.dst}].next_send_seq;
      h.sent_at_ns = m.sent_at.nanoseconds();
      h.extra_delay_ns = extra_ns;
      h.msg_id = m.id;
      h.size_bytes = m.size_bytes;
      h.payload_tag = sim::wire_codec::encode(m.payload, buf);
      h.payload_len = static_cast<std::uint32_t>(buf.size() - sizeof h);
      validate(buf.size() <= max_datagram,
               "socket_transport: payload exceeds one datagram");
      std::memcpy(buf.data(), &h, sizeof h);
      ++st.sent;
      if (extra_ns > 0) ++st.delayed;
    }
    if (extra_ns == 0) {
      send_to(dest_proc, buf.data(), buf.size());
      return true;
    }
    // A performance fault: an event on this engine sends the frame once its
    // extra delay has passed. Frames sent meanwhile overtake it, and the
    // receiver's hold-back window restores the link's order.
    std::lock_guard lk(mu);
    const std::uint64_t token = ++next_delay_token;
    delayed_sends[token] = rt->at(
        m.sent_at + extra, [this, token, dest_proc, buf = std::move(buf)] {
          {
            std::lock_guard lk(mu);
            delayed_sends.erase(token);
          }
          send_to(dest_proc, buf.data(), buf.size());
        });
    return true;
  }

  /// Monitor forwarder: true = home is foreign, event shipped. Bypasses
  /// the fault model — in-process this path is the scheduler, not the LAN.
  bool on_forward(const core::monitor_event& e, node_id home, duration) {
    const std::uint32_t dest_proc = rt->shard_of(home);
    if (dest_proc == rt->executing_shard()) return false;
    frame_header h;
    h.kind = kind_monitor;
    h.dst = home;
    h.sent_at_ns = e.at.nanoseconds();
    std::vector<std::byte> buf = frame_buffer();
    encode_monitor_event(*mon, e, buf);
    h.payload_len = static_cast<std::uint32_t>(buf.size() - sizeof h);
    validate(buf.size() <= max_datagram,
             "socket_transport: monitor event exceeds one datagram");
    std::memcpy(buf.data(), &h, sizeof h);
    {
      std::lock_guard lk(mu);
      ++st.sent;
    }
    send_to(dest_proc, buf.data(), buf.size());
    return true;
  }

  /// Engine thread: decode a datagram the receiver handed over and deliver
  /// it. A monitor event's text is interned into this process's monitor; a
  /// data frame's payload is rebuilt in this thread's pool, which also
  /// releases it.
  void deliver(const std::vector<std::byte>& bytes) {
    frame_header h;
    std::memcpy(&h, bytes.data(), sizeof h);
    const std::byte* payload = bytes.data() + sizeof h;
    if (h.kind == kind_monitor) {
      const monitor_event_text t = decode_monitor_event(payload, h.payload_len);
      mon->deliver_forwarded(t.event, t.subject, t.detail, h.dst);
      return;
    }
    sim::message m;
    m.src = h.src;
    m.dst = h.dst;
    m.channel = h.channel;
    m.size_bytes = static_cast<std::size_t>(h.size_bytes);
    m.id = h.msg_id;
    m.sent_at = time_point::at(duration::nanoseconds(h.sent_at_ns));
    m.payload = sim::wire_codec::decode(h.payload_tag, payload, h.payload_len);
    net->deliver_remote(m);
  }

  /// Receiver thread: hand a datagram that left sequence recovery (monitor
  /// frames skip it) to the engine thread as bytes, reading only its header.
  void hand_over(std::vector<std::byte> bytes) {
    frame_header h;
    std::memcpy(&h, bytes.data(), sizeof h);
    if (h.kind == kind_data) {
      // Real delivery latency, the intentional perf-fault delay excluded,
      // must honor the Δ bound the checkers assume — or the harness fails.
      const std::int64_t lat =
          rt->now().nanoseconds() - h.sent_at_ns - h.extra_delay_ns;
      std::lock_guard lk(mu);
      st.max_latency_ns = std::max(st.max_latency_ns, lat);
      if (lat > delta_max.count()) ++st.delta_violations;
    }
    rt->at_node(h.dst, rt->now(),
                [this, bytes = std::move(bytes)] { deliver(bytes); });
  }

  void handle_datagram(const std::byte* data, std::size_t len) {
    frame_header h;
    if (len < sizeof h) return;
    std::memcpy(&h, data, sizeof h);
    if (h.magic != frame_magic || len != sizeof h + h.payload_len) return;
    {
      std::lock_guard lk(mu);
      ++st.received;
    }
    std::vector<std::byte> bytes(data, data + len);
    if (h.kind == kind_monitor) {
      hand_over(std::move(bytes));
      return;
    }
    // Per-link FIFO recovery: deliver in sequence order, holding frames
    // that arrive ahead of a gap.
    std::vector<std::vector<std::byte>> ready;
    {
      std::lock_guard lk(mu);
      link_state& l = links[{h.src, h.dst}];
      if (h.link_seq < l.expected) {
        const auto it = l.lost.find(h.link_seq);
        if (it == l.lost.end()) {
          ++st.dup_dropped;
          return;
        }
        // A declared-lost frame finally arrived (a perf-fault delay that
        // outlasted the hold-back window): deliver it late, outside FIFO
        // order — the sim delivers a perf-faulted message late, never as
        // an extra omission.
        l.lost.erase(it);
        ++st.late_delivered;
      } else if (h.link_seq > l.expected) {
        l.held.emplace(h.link_seq, held_frame{std::move(bytes), rt->now()});
        return;
      } else {
        ++l.expected;
        while (!l.held.empty() && l.held.begin()->first == l.expected) {
          ready.push_back(std::move(l.held.begin()->second.bytes));
          l.held.erase(l.held.begin());
          ++l.expected;
        }
      }
    }
    hand_over(std::move(bytes));
    for (auto& b : ready) hand_over(std::move(b));
  }

  /// Declare datagrams behind an over-age or over-full hold-back window
  /// lost and resume from the oldest held frame (observably an omission).
  void flush_expired_holdbacks() {
    std::vector<std::vector<std::byte>> ready;
    {
      std::lock_guard lk(mu);
      const time_point now = rt->now();
      // The base window covers loopback jitter; a programmed performance
      // fault additionally holds its victims for up to max_perf_extra on
      // the sender, so the window must stretch with it or every injected
      // delay degenerates into an omission.
      const duration max_age = holdback + max_perf_extra;
      for (auto& [link, l] : links) {
        if (l.held.empty()) continue;
        const bool expired =
            l.held.size() > max_held ||
            now - l.held.begin()->second.arrived > max_age;
        if (!expired) continue;
        ++st.gaps_declared;
        // Remember the skipped sequences: should one arrive after all (a
        // delay beyond even the stretched window), it is delivered late
        // rather than mistaken for a duplicate.
        for (std::uint64_t s = l.expected; s < l.held.begin()->first; ++s) {
          if (l.lost.size() >= max_lost_tracked) l.lost.erase(l.lost.begin());
          l.lost.insert(s);
        }
        l.expected = l.held.begin()->first;
        while (!l.held.empty() && l.held.begin()->first == l.expected) {
          ready.push_back(std::move(l.held.begin()->second.bytes));
          l.held.erase(l.held.begin());
          ++l.expected;
        }
      }
    }
    for (auto& b : ready) hand_over(std::move(b));
  }

  void receive_loop() {
    std::vector<std::byte> buf(1 << 16);
    while (running.load(std::memory_order_relaxed)) {
      pollfd pfd{fd, POLLIN, 0};
      const int r = ::poll(&pfd, 1, 1 /*ms*/);
      if (r > 0 && (pfd.revents & POLLIN) != 0) {
        for (;;) {
          const ssize_t n =
              ::recvfrom(fd, buf.data(), buf.size(), MSG_DONTWAIT, nullptr,
                         nullptr);
          if (n <= 0) break;
          handle_datagram(buf.data(), static_cast<std::size_t>(n));
        }
      }
      flush_expired_holdbacks();
    }
  }
};

socket_transport::socket_transport(hades::runtime& rt, sim::network& net,
                                   core::monitor& mon, std::uint16_t base_port)
    : impl_(std::make_unique<impl>(base_port)) {
  impl_->rt = &rt;
  impl_->net = &net;
  impl_->mon = &mon;
  register_hades_codecs();
}

socket_transport::~socket_transport() { stop(); }

void socket_transport::start() {
  impl& i = *impl_;
  require(!i.started, "socket_transport::start: already started");
  i.delta_max = i.net->config().delta_max;
  i.max_perf_extra = i.net->max_perf_extra();
  const std::uint32_t proc = i.rt->executing_shard();
  i.fd = ::socket(AF_INET, SOCK_DGRAM, 0);
  validate(i.fd >= 0, "socket_transport: socket() failed: " +
                          std::string(std::strerror(errno)));
  const int rcvbuf = 1 << 21;
  (void)::setsockopt(i.fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof rcvbuf);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(i.base_port + proc));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  const bool bound =
      ::bind(i.fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) == 0;
  const std::string why = std::strerror(errno);
  if (!bound) ::close(std::exchange(i.fd, -1));  // stop() would not close it
  validate(bound, "socket_transport: bind(port " +
                      std::to_string(i.base_port + proc) + ") failed: " + why);
  i.running.store(true);
  i.receiver = std::thread([&i] { i.receive_loop(); });
  i.net->set_remote_hook([&i](const sim::message& m, duration extra) {
    return i.on_submit(m, extra);
  });
  i.mon->set_forwarder(
      [&i](const core::monitor_event& e, node_id home, duration d) {
        return i.on_forward(e, home, d);
      });
  i.started = true;
}

void socket_transport::stop() {
  impl& i = *impl_;
  if (!i.started) return;
  i.net->set_remote_hook(nullptr);
  i.mon->set_forwarder(nullptr);
  {
    std::lock_guard lk(i.mu);
    for (const auto& [token, id] : i.delayed_sends) i.rt->cancel(id);
    i.delayed_sends.clear();
  }
  i.running.store(false);
  if (i.receiver.joinable()) i.receiver.join();
  ::close(i.fd);
  i.fd = -1;
  i.started = false;
}

socket_transport::stats_t socket_transport::stats() const {
  std::lock_guard lk(impl_->mu);
  return impl_->st;
}

}  // namespace hades::rt
