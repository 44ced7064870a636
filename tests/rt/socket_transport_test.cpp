// Cross-process traffic over the loopback socket transport, with both
// processes inside this test: two realtime runtimes on one shared epoch,
// each owning one node. The receiver thread reads only frame headers and
// hands each datagram to the engine thread as bytes; the engine thread
// decodes it there. A forwarded monitor event's names are interned into
// the receiving monitor, and a data frame's payload lands in the engine
// thread's own wire_payload pool (DESIGN.md, "Monitor records" and "Wire
// fast path"). Under TSan this test is the receiver-to-engine handoff.
// A frame that drew a performance fault is sent by an event on the sending
// engine, and the receiver's hold-back window keeps its link in order.
#include "rt/socket_transport.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <filesystem>
#include <functional>
#include <iterator>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/monitor.hpp"
#include "sim/network.hpp"
#include "sim/runtime.hpp"
#include "sim/wire_codec.hpp"
#include "util/error.hpp"

namespace hades {
namespace {

using namespace hades::literals;

struct process {
  std::unique_ptr<hades::runtime> rt;
  std::unique_ptr<sim::network> net;
  core::monitor mon;
  std::unique_ptr<rt::socket_transport> tx;  // declared last: stops first
};

std::int64_t steady_now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Two realtime processes at `time_scale` on an epoch 20 ms ahead; node n
/// lives in process n.
void make_processes(process (&p)[2], double time_scale = 1.0) {
  const std::int64_t epoch = steady_now_ns() + 20'000'000;
  for (std::uint32_t i = 0; i < 2; ++i) {
    hades::runtime::options o;
    o.backend = "realtime";
    o.node_count = 2;
    o.process_index = i;
    o.process_count = 2;
    o.epoch_ns = epoch;
    o.time_scale = time_scale;
    p[i].rt = hades::runtime::make(o);
    p[i].net = std::make_unique<sim::network>(*p[i].rt, sim::network::params{});
    p[i].net->reserve_nodes(2);
    p[i].mon.bind(*p[i].rt);
  }
}

/// Bind both transports on adjacent loopback ports, moving to another pair
/// when one is taken; the base port they started on, if any pair bound.
std::optional<std::uint16_t> start_transports(process (&p)[2]) {
  for (int attempt = 0; attempt < 8; ++attempt) {
    const auto base_port = static_cast<std::uint16_t>(
        30000 + ((::getpid() + attempt * 977) % 10000) * 2);
    try {
      for (process& q : p)
        q.tx = std::make_unique<rt::socket_transport>(*q.rt, *q.net, q.mon,
                                                      base_port);
      for (process& q : p) q.tx->start();
      return base_port;
    } catch (const hades::error&) {
      for (process& q : p) q.tx.reset();
    }
  }
  return std::nullopt;
}

std::size_t open_fds() {
  return static_cast<std::size_t>(
      std::distance(std::filesystem::directory_iterator("/proc/self/fd"),
                    std::filesystem::directory_iterator{}));
}

/// Run process 0 on this thread and process 1 on its own until 200 ms,
/// stop both transports, and return process 1's engine thread.
std::thread::id run_both(process (&p)[2]) {
  const time_point horizon = time_point::at(200_ms);
  std::thread::id engine1;
  std::thread t1([&] {
    engine1 = std::this_thread::get_id();
    p[1].rt->run_until(horizon);
  });
  p[0].rt->run_until(horizon);
  t1.join();
  for (process& q : p) q.tx->stop();
  return engine1;
}

TEST(SocketTransportTest, ForwardedMonitorEventIsInternedOnTheEngineThread) {
  process p[2];
  make_processes(p);
  std::string heard;
  std::thread::id heard_on;
  for (process& q : p) {
    // Every process subscribes, as a deployment's mode manager does; only
    // the home node's owner runs the listener.
    core::monitor& mon = q.mon;
    mon.subscribe_at_node(
        1, 1_ms, {core::monitor_event_kind::instance_rejected},
        [&heard, &heard_on, &mon](const core::monitor_event& e) {
          heard = mon.subject_text(e) + " : " + mon.detail_text(e);
          heard_on = std::this_thread::get_id();
        });
  }
  ASSERT_TRUE(start_transports(p));

  p[0].rt->at(time_point::at(5_ms), [&p] {
    core::monitor& mon = p[0].mon;
    core::monitor_event e;
    e.kind = core::monitor_event_kind::instance_rejected;
    e.at = p[0].rt->now();
    e.node = 0;
    e.task = 1;
    e.subject = mon.intern("gw1_c2");
    e.detail = mon.intern("shed: value density");
    mon.record(e);
  });
  // Process 1's engine reads its name table all through the window, so a
  // receiver thread writing the table would race with these reads.
  std::function<void()> tick = [&] {
    (void)p[1].mon.intern("tick");
    if (p[1].rt->now() < time_point::at(20_ms))
      p[1].rt->at(p[1].rt->now() + 50_us, [&tick] { tick(); });
  };
  p[1].rt->at(time_point::at(1_ms), [&tick] { tick(); });
  const std::thread::id engine1 = run_both(p);

  EXPECT_EQ(heard, "gw1_c2 : shed: value density");
  EXPECT_EQ(heard_on, engine1);
  EXPECT_EQ(p[0].mon.events().size(), 1u);
  EXPECT_TRUE(p[1].mon.events().empty());  // forwarded, not re-recorded
  EXPECT_EQ(p[0].tx->stats().sent, 1u);
  EXPECT_EQ(p[1].tx->stats().received, 1u);
}

// A payload type only this test puts on the wire: 24 bytes, so each
// process holds it in a pooled block, not inline.
struct probe_frame {
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  std::uint64_t c = 0;
};
constexpr std::uint32_t probe_tag = 0x50524F42;  // "PROB"
std::thread::id g_probe_decoded_on;  // read once both processes stopped

void register_probe_codec() {
  sim::wire_codec::register_codec(
      probe_tag,
      [](const sim::wire_payload& p, std::vector<std::byte>& out) {
        const probe_frame* v = p.get<probe_frame>();
        if (v == nullptr) return false;
        const auto* b = reinterpret_cast<const std::byte*>(v);
        out.insert(out.end(), b, b + sizeof *v);
        return true;
      },
      [](const std::byte* data, std::size_t len) {
        validate(len == sizeof(probe_frame), "probe_frame: size mismatch");
        g_probe_decoded_on = std::this_thread::get_id();
        probe_frame v;
        std::memcpy(&v, data, sizeof v);
        return sim::wire_payload(v);
      });
}

TEST(SocketTransportTest, DataFrameIsDecodedOnTheEngineThread) {
  register_probe_codec();
  process p[2];
  make_processes(p);
  probe_frame got;
  std::thread::id got_on;
  std::uint64_t live_before = 0;
  std::uint64_t live_in_handler = 0;
  std::uint64_t live_after = 0;
  p[1].net->attach(1, [&](sim::message& m) {
    if (const probe_frame* v = m.payload.get<probe_frame>()) {
      got = *v;
      got_on = std::this_thread::get_id();
      live_in_handler = sim::wire_payload::stats().pooled_live;
    }
  });
  ASSERT_TRUE(start_transports(p));

  p[1].rt->at(time_point::at(1_ms), [&] {
    live_before = sim::wire_payload::stats().pooled_live;
  });
  p[0].rt->at(time_point::at(5_ms), [&p] {
    p[0].net->unicast(0, 1, 3, probe_frame{11, 22, 33}, 64);
  });
  p[1].rt->at(time_point::at(150_ms), [&] {
    live_after = sim::wire_payload::stats().pooled_live;
  });
  const std::thread::id engine1 = run_both(p);

  EXPECT_EQ(got.a, 11u);
  EXPECT_EQ(got.b, 22u);
  EXPECT_EQ(got.c, 33u);
  EXPECT_EQ(got_on, engine1);
  EXPECT_EQ(g_probe_decoded_on, engine1);
  // The decoded payload is a block of process 1's engine-thread pool, and
  // goes back to it once the handler is done with the frame.
  EXPECT_EQ(live_in_handler, live_before + 1);
  EXPECT_EQ(live_after, live_before);
  EXPECT_EQ(p[0].tx->stats().sent, 1u);
  EXPECT_EQ(p[1].tx->stats().received, 1u);
  EXPECT_EQ(p[1].net->stats().delivered, 1u);
}

TEST(SocketTransportTest, FailedBindClosesItsSocket) {
  process p[2];
  make_processes(p);
  const std::optional<std::uint16_t> base_port = start_transports(p);
  ASSERT_TRUE(base_port);
  // A second transport for process 0 finds its port taken.
  rt::socket_transport second(*p[0].rt, *p[0].net, p[0].mon, *base_port);
  const std::size_t before = open_fds();
  EXPECT_THROW(second.start(), hades::error);
  EXPECT_EQ(open_fds(), before);
}

TEST(SocketTransportTest, PerfFaultDelayedFrameKeepsItsLinkInOrder) {
  register_probe_codec();
  const double scale = 2.0;
  process p[2];
  make_processes(p, scale);
  // Both processes program the same fault (the hold-back window reads it at
  // start): every frame is 2 ms late until process 0 lifts it.
  for (process& q : p)
    q.net->set_performance_fault_at(time_point::at(0_ms), 1.0, 2_ms);
  std::vector<std::uint64_t> order;
  std::chrono::steady_clock::time_point sent_a;
  std::chrono::steady_clock::time_point arrived_a;
  p[1].net->attach(1, [&](sim::message& m) {
    if (const probe_frame* v = m.payload.get<probe_frame>()) {
      order.push_back(v->a);
      if (v->a == 1) arrived_a = std::chrono::steady_clock::now();
    }
  });
  ASSERT_TRUE(start_transports(p));

  // A draws the fault; B follows on the same link without one and
  // overtakes A on the wire.
  p[0].rt->at(time_point::at(5_ms), [&] {
    sent_a = std::chrono::steady_clock::now();
    p[0].net->unicast(0, 1, 3, probe_frame{1, 0, 0}, 64);
    p[0].net->set_performance_fault(0.0, 0_ms);
    p[0].net->unicast(0, 1, 3, probe_frame{2, 0, 0}, 64);
  });
  run_both(p);

  EXPECT_EQ(order, (std::vector<std::uint64_t>{1, 2}));
  EXPECT_GE(arrived_a - sent_a,
            std::chrono::nanoseconds((2_ms).scaled(scale).count()));
  const rt::socket_transport::stats_t sender = p[0].tx->stats();
  const rt::socket_transport::stats_t receiver = p[1].tx->stats();
  EXPECT_EQ(sender.sent, 2u);
  EXPECT_EQ(sender.delayed, 1u);
  EXPECT_EQ(receiver.received, 2u);
  EXPECT_EQ(receiver.gaps_declared, 0u);
  EXPECT_EQ(receiver.late_delivered, 0u);
}

}  // namespace
}  // namespace hades
