// Cross-process monitor forwarding over the loopback socket transport, with
// both processes inside this test: two realtime runtimes on one shared
// epoch, each owning one node. A record on process 0 for a routed listener
// homed on process 1's node ships as text; process 1's receiver thread
// decodes it and hands it to its engine thread, which interns the names
// and redelivers (DESIGN.md, "Monitor records"). Under TSan this test is
// the receiver-to-engine handoff.
#include "rt/socket_transport.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <chrono>
#include <functional>
#include <memory>
#include <string>
#include <thread>

#include "core/monitor.hpp"
#include "sim/network.hpp"
#include "sim/runtime.hpp"
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

/// Bind both transports on adjacent loopback ports, moving to another pair
/// when one is taken.
bool start_transports(process (&p)[2]) {
  for (int attempt = 0; attempt < 8; ++attempt) {
    rt::socket_transport_params tp;
    tp.base_port = static_cast<std::uint16_t>(
        30000 + ((::getpid() + attempt * 977) % 10000) * 2);
    try {
      for (process& q : p)
        q.tx = std::make_unique<rt::socket_transport>(*q.rt, *q.net, q.mon,
                                                      tp);
      for (process& q : p) q.tx->start();
      return true;
    } catch (const hades::error&) {
      for (process& q : p) q.tx.reset();
    }
  }
  return false;
}

TEST(SocketTransportTest, ForwardedMonitorEventIsInternedOnTheEngineThread) {
  const std::int64_t epoch = steady_now_ns() + 20'000'000;  // 20 ms ahead
  process p[2];
  std::string heard;
  std::thread::id heard_on;
  for (std::uint32_t i = 0; i < 2; ++i) {
    hades::runtime::options o;
    o.backend = "realtime";
    o.node_count = 2;  // node n lives in process n
    o.process_index = i;
    o.process_count = 2;
    o.epoch_ns = epoch;
    p[i].rt = hades::runtime::make(o);
    p[i].net = std::make_unique<sim::network>(*p[i].rt, sim::network::params{});
    p[i].net->reserve_nodes(2);
    p[i].mon.bind(*p[i].rt);
    // Every process subscribes, as a deployment's mode manager does; only
    // the home node's owner runs the listener.
    core::monitor& mon = p[i].mon;
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
  const time_point horizon = time_point::at(200_ms);
  std::thread::id engine1;
  std::thread t1([&] {
    engine1 = std::this_thread::get_id();
    p[1].rt->run_until(horizon);
  });
  p[0].rt->run_until(horizon);
  t1.join();
  for (process& q : p) q.tx->stop();

  EXPECT_EQ(heard, "gw1_c2 : shed: value density");
  EXPECT_EQ(heard_on, engine1);
  EXPECT_EQ(p[0].mon.events().size(), 1u);
  EXPECT_TRUE(p[1].mon.events().empty());  // forwarded, not re-recorded
  EXPECT_EQ(p[0].tx->stats().sent, 1u);
  EXPECT_EQ(p[1].tx->stats().received, 1u);
}

}  // namespace
}  // namespace hades
