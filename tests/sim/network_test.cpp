#include "sim/network.hpp"

#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "sim/engine.hpp"

namespace hades::sim {
namespace {

using namespace hades::literals;

network::params tight() {
  network::params p;
  p.delta_min = 10_us;
  p.delta_max = 50_us;
  p.per_byte = 0_ns;
  return p;
}

TEST(NetworkTest, DeliversWithinBounds) {
  engine e;
  network net(e, tight());
  std::vector<time_point> arrivals;
  net.attach(0, [](const message&) {});
  net.attach(1, [&](const message&) { arrivals.push_back(e.now()); });
  for (int i = 0; i < 100; ++i) net.unicast(0, 1, 0, std::string("hi"), 16);
  e.run();
  ASSERT_EQ(arrivals.size(), 100u);
  for (auto t : arrivals) {
    EXPECT_GE(t - time_point::zero(), 10_us);
    EXPECT_LE(t - time_point::zero(), 50_us);
  }
}

TEST(NetworkTest, PayloadRoundTrips) {
  engine e;
  network net(e, tight());
  std::string got;
  net.attach(1, [&](const message& m) {
    got = *m.payload.get<std::string>();
  });
  net.unicast(0, 1, 7, std::string("payload!"), 16);
  e.run();
  EXPECT_EQ(got, "payload!");
}

TEST(NetworkTest, MetadataPropagates) {
  engine e;
  network net(e, tight());
  message seen;
  net.attach(3, [&](const message& m) { seen = m; });
  net.unicast(2, 3, 9, 42, 128);
  e.run();
  EXPECT_EQ(seen.src, 2u);
  EXPECT_EQ(seen.dst, 3u);
  EXPECT_EQ(seen.channel, 9);
  EXPECT_EQ(seen.size_bytes, 128u);
  EXPECT_EQ(seen.sent_at, time_point::zero());
}

TEST(NetworkTest, PerByteCostDelaysLargeMessages) {
  engine e;
  network::params p;
  p.delta_min = p.delta_max = 10_us;
  p.per_byte = 100_ns;
  network net(e, p);
  time_point arrival;
  net.attach(1, [&](const message&) { arrival = e.now(); });
  net.unicast(0, 1, 0, 0, 1000);  // 1000 bytes * 100ns = 100us
  e.run();
  EXPECT_EQ(arrival, time_point::at(110_us));
}

TEST(NetworkTest, BroadcastReachesAllButSender) {
  engine e;
  network net(e, tight());
  std::vector<node_id> got;
  for (node_id n = 0; n < 4; ++n)
    net.attach(n, [&, n](const message&) { got.push_back(n); });
  EXPECT_EQ(net.fan_out(2, 0, std::string("b"), 8), 3u);
  e.run();
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, (std::vector<node_id>{0, 1, 3}));
}

TEST(NetworkTest, ScriptedDropLosesExactlyK) {
  engine e;
  network net(e, tight());
  int received = 0;
  net.attach(1, [&](const message&) { ++received; });
  net.drop_next(0, 1, 2);
  for (int i = 0; i < 5; ++i) net.unicast(0, 1, 0, i, 8);
  e.run();
  EXPECT_EQ(received, 3);
  EXPECT_EQ(net.stats().dropped, 2u);
  EXPECT_EQ(net.stats().delivered, 3u);
}

TEST(NetworkTest, LinkDownDropsEverything) {
  engine e;
  network net(e, tight());
  int received = 0;
  net.attach(1, [&](const message&) { ++received; });
  net.set_link_down(0, 1, true);
  for (int i = 0; i < 5; ++i) net.unicast(0, 1, 0, i, 8);
  e.run();
  EXPECT_EQ(received, 0);
  net.set_link_down(0, 1, false);
  net.unicast(0, 1, 0, 9, 8);
  e.run();
  EXPECT_EQ(received, 1);
}

TEST(NetworkTest, LinkDownIsDirectional) {
  engine e;
  network net(e, tight());
  int fwd = 0, rev = 0;
  net.attach(0, [&](const message&) { ++rev; });
  net.attach(1, [&](const message&) { ++fwd; });
  net.set_link_down(0, 1, true);
  net.unicast(0, 1, 0, 1, 8);
  net.unicast(1, 0, 0, 2, 8);
  e.run();
  EXPECT_EQ(fwd, 0);
  EXPECT_EQ(rev, 1);
}

TEST(NetworkTest, OmissionRateDropsRoughlyP) {
  engine e;
  network net(e, tight(), 7);
  int received = 0;
  net.attach(1, [&](const message&) { ++received; });
  net.set_omission_rate(0.3);
  for (int i = 0; i < 2000; ++i) net.unicast(0, 1, 0, i, 8);
  e.run();
  EXPECT_NEAR(received, 1400, 120);
}

TEST(NetworkTest, PerformanceFaultAddsDelay) {
  engine e;
  network::params p;
  p.delta_min = p.delta_max = 10_us;
  p.per_byte = 0_ns;
  network net(e, p, 7);
  std::vector<duration> lat;
  net.attach(1, [&](const message& m) { lat.push_back(e.now() - m.sent_at); });
  net.set_performance_fault(1.0, 1_ms);
  net.unicast(0, 1, 0, 0, 8);
  e.run();
  ASSERT_EQ(lat.size(), 1u);
  EXPECT_EQ(lat[0], 10_us + 1_ms);
  EXPECT_EQ(net.stats().late, 1u);
}

TEST(NetworkTest, RemoteHookSeesOnlyFramesTheFaultModelPasses) {
  // Frames for another OS process are judged by the same fault model as
  // local ones: a down link and a scripted burst drop them before the
  // remote hook, and a performance fault reaches the hook as the extra
  // delay the transport must add.
  engine e;
  network net(e, tight());
  for (node_id n = 0; n < 4; ++n)
    net.attach(n, [](const message&) { ADD_FAILURE() << "delivered locally"; });
  std::vector<std::pair<node_id, duration>> shipped;
  net.set_remote_hook([&](const message& m, duration extra) {
    if (m.dst < 2) return false;
    shipped.emplace_back(m.dst, extra);
    return true;
  });
  net.set_link_down(0, 2, true);
  net.drop_next(0, 3, 1);
  net.unicast(0, 2, 0, 1, 8);
  net.unicast(0, 3, 0, 2, 8);
  net.unicast(0, 3, 0, 3, 8);
  ASSERT_EQ(shipped.size(), 1u);
  EXPECT_EQ(shipped[0].first, 3u);
  EXPECT_EQ(shipped[0].second, duration::zero());
  EXPECT_EQ(net.stats().dropped, 2u);

  net.set_performance_fault(1.0, 1_ms);
  net.unicast(0, 3, 0, 4, 8);
  ASSERT_EQ(shipped.size(), 2u);
  EXPECT_EQ(shipped[1].second, 1_ms);
  EXPECT_EQ(net.stats().late, 1u);
  e.run();
  EXPECT_EQ(net.stats().delivered, 0u);
}

TEST(NetworkTest, FifoPerLinkEvenWithLateness) {
  engine e;
  network::params p;
  p.delta_min = 10_us;
  p.delta_max = 10_us;
  network net(e, p, 7);
  std::vector<int> order;
  net.attach(1, [&](const message& m) {
    order.push_back(*m.payload.get<int>());
  });
  net.set_performance_fault(1.0, 500_us);  // first message very late
  net.unicast(0, 1, 0, 1, 8);
  net.set_performance_fault(0.0, duration::zero());
  net.unicast(0, 1, 0, 2, 8);  // would overtake without FIFO enforcement
  e.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(NetworkTest, DetachedDestinationCountsDropped) {
  engine e;
  network net(e, tight());
  net.attach(1, [](const message&) {});
  net.unicast(0, 1, 0, 0, 8);
  net.detach(1);  // crash while in flight
  e.run();
  EXPECT_EQ(net.stats().delivered, 0u);
  EXPECT_EQ(net.stats().dropped, 1u);
}

TEST(NetworkTest, WorstCaseLatencyBound) {
  engine e;
  network net(e, tight(), 11);
  std::vector<duration> lat;
  net.attach(1, [&](const message& m) { lat.push_back(e.now() - m.sent_at); });
  for (int i = 0; i < 500; ++i) net.unicast(0, 1, 0, i, 64);
  e.run();
  for (auto l : lat) EXPECT_LE(l, net.worst_case_latency(64));
}

// Regression: taking a node down used to silence only its inbound side
// (the detached handler) — outbound frames submitted by the dead node's
// stale timers still departed and were delivered. A crash must be
// symmetric on the wire.
TEST(NetworkTest, NodeDownSilencesOutbound) {
  engine e;
  network net(e, tight());
  int received = 0;
  net.attach(0, [](const message&) {});
  net.attach(1, [&](const message&) { ++received; });
  net.set_node_down(0, true);
  net.unicast(0, 1, 0, 1, 8);  // outbound from the dead node
  e.run();
  EXPECT_EQ(received, 0);
  EXPECT_EQ(net.stats().dropped, 1u);
  net.set_node_down(0, false);
  net.unicast(0, 1, 0, 2, 8);
  e.run();
  EXPECT_EQ(received, 1);
}

TEST(NetworkTest, NodeDownSilencesInboundIncludingInFlight) {
  engine e;
  network net(e, tight());
  int received = 0;
  net.attach(0, [](const message&) {});
  net.attach(1, [&](const message&) { ++received; });
  net.unicast(0, 1, 0, 1, 8);  // in flight when the node dies
  e.at(time_point::at(1_us), [&] { net.set_node_down(1, true); });
  e.run();
  EXPECT_EQ(received, 0);  // judged against the node state at delivery date
  net.set_node_down(1, false);
  net.unicast(0, 1, 0, 2, 8);
  e.run();
  EXPECT_EQ(received, 1);
}

TEST(NetworkTest, PartitionIsolatesGroupsAndHeals) {
  engine e;
  network net(e, tight());
  std::vector<int> received(4, 0);
  for (node_id n = 0; n < 4; ++n)
    net.attach(n, [&received, n](const message&) { ++received[n]; });
  net.partition({{0, 1}, {2, 3}});
  net.unicast(0, 1, 0, 1, 8);  // same side: delivered
  net.unicast(0, 2, 0, 2, 8);  // cross side: dropped
  net.unicast(3, 1, 0, 3, 8);  // cross side: dropped
  e.run();
  EXPECT_EQ(received, (std::vector<int>{0, 1, 0, 0}));
  net.heal_partition();
  net.unicast(0, 2, 0, 4, 8);
  e.run();
  EXPECT_EQ(received, (std::vector<int>{0, 1, 1, 0}));
}

TEST(NetworkTest, ScriptedDropCanBeChannelScoped) {
  engine e;
  network net(e, tight());
  std::vector<int> channels;
  net.attach(1, [&](const message& m) { channels.push_back(m.channel); });
  net.drop_next(0, 1, 2, /*channel=*/7);
  net.unicast(0, 1, 7, 1, 8);  // eaten by the burst
  net.unicast(0, 1, 9, 2, 8);  // other channel: unaffected
  net.unicast(0, 1, 7, 3, 8);  // eaten by the burst
  net.unicast(0, 1, 7, 4, 8);  // burst exhausted: delivered
  e.run();
  EXPECT_EQ(channels, (std::vector<int>{9, 7}));
}

TEST(NetworkTest, DeterministicAcrossRuns) {
  auto run = [] {
    engine e;
    network net(e, tight(), 99);
    std::vector<std::int64_t> arrivals;
    net.attach(1, [&](const message&) {
      arrivals.push_back(e.now().nanoseconds());
    });
    net.set_omission_rate(0.1);
    for (int i = 0; i < 200; ++i) net.unicast(0, 1, 0, i, 8);
    e.run();
    return arrivals;
  };
  EXPECT_EQ(run(), run());
}

// Regression: timeline entries programmed at the SAME date must resolve
// last-write-wins (the injector re-registers a plan's entries at their own
// dates; the scheduled action repeating a pre-registered edge is idempotent
// only if the later registration is the one read back).
TEST(NetworkTest, SameDateToggleIsLastWriteWins) {
  engine e;
  network net(e, tight());
  int received = 0;
  net.attach(1, [&](const message&) { ++received; });
  const time_point t = time_point::zero();
  net.set_omission_rate_at(t, 1.0);
  net.set_omission_rate_at(t, 0.0);  // same date, later registration wins
  for (int i = 0; i < 20; ++i) net.unicast(0, 1, 0, i, 8);
  e.run();
  EXPECT_EQ(received, 20);

  engine e2;
  network net2(e2, tight());
  int received2 = 0;
  net2.attach(1, [&](const message&) { ++received2; });
  net2.set_omission_rate_at(t, 0.0);
  net2.set_omission_rate_at(t, 1.0);  // reversed order: drop everything
  for (int i = 0; i < 20; ++i) net2.unicast(0, 1, 0, i, 8);
  e2.run();
  EXPECT_EQ(received2, 0);
}

// A channel-scoped burst is consumed before an any_channel burst on the
// same link, regardless of the order the bursts were registered in.
TEST(NetworkTest, ChannelBurstConsumedBeforeAnyChannelBurst) {
  engine e;
  network net(e, tight());
  std::vector<int> channels;
  net.attach(1, [&](const message& m) { channels.push_back(m.channel); });
  net.drop_next(0, 1, 1);                  // any_channel, registered first
  net.drop_next(0, 1, 1, /*channel=*/7);   // channel-scoped
  net.unicast(0, 1, 7, 1, 8);  // eaten by the channel-7 burst, not any_channel
  net.unicast(0, 1, 9, 2, 8);  // eaten by the any_channel burst
  net.unicast(0, 1, 7, 3, 8);  // both bursts exhausted: delivered
  net.unicast(0, 1, 9, 4, 8);  // delivered
  e.run();
  EXPECT_EQ(channels, (std::vector<int>{7, 9}));
  EXPECT_EQ(net.stats().dropped, 2u);
}

// Per-link FIFO floors are independent across destinations: holding one
// link back (lateness) must not delay another link of the same source.
TEST(NetworkTest, FifoFloorsArePerDestination) {
  engine e;
  network::params p;
  p.delta_min = p.delta_max = 10_us;
  p.per_byte = 0_ns;
  network net(e, p, 7);
  std::vector<std::pair<node_id, int>> order;
  for (node_id n = 1; n <= 2; ++n)
    net.attach(n, [&, n](const message& m) {
      order.emplace_back(n, *m.payload.get<int>());
    });
  net.set_performance_fault(1.0, 500_us);
  net.unicast(0, 1, 0, 1, 8);  // link 0->1 floor pushed to ~510us
  net.set_performance_fault(0.0, duration::zero());
  net.unicast(0, 2, 0, 2, 8);  // link 0->2 unaffected: arrives at 10us
  net.unicast(0, 1, 0, 3, 8);  // held behind the 0->1 floor
  e.run();
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], (std::pair<node_id, int>{2, 2}));
  EXPECT_EQ(order[1], (std::pair<node_id, int>{1, 1}));
  EXPECT_EQ(order[2], (std::pair<node_id, int>{1, 3}));
}

// A link's fault program is its own: a drop burst, a link-down window and
// an omission rate on 0->1 drop only 0->1 frames, while 0->2 delivers every
// frame on time, and 0->1's FIFO floor (raised by a late frame before the
// faults) still holds back the first frame after them.
TEST(NetworkTest, LinkFaultsStayOnTheirLinkAndKeepItsFifoFloor) {
  engine e;
  network::params p;
  p.delta_min = p.delta_max = 10_us;
  p.per_byte = 0_ns;
  network net(e, p, 7);
  std::vector<std::tuple<node_id, int, time_point>> got;
  for (node_id n = 1; n <= 2; ++n)
    net.attach(n, [&, n](const message& m) {
      got.emplace_back(n, *m.payload.get<int>(), e.now());
    });

  net.set_performance_fault(1.0, 500_us);
  net.unicast(0, 1, 0, 1, 8);  // 0->1 floor raised to 510us
  net.set_performance_fault(0.0, duration::zero());

  net.set_link_down(0, 1, true);
  net.drop_next(0, 1, 1);
  net.set_link_omission(0, 1, 1.0);
  net.unicast(0, 1, 0, 2, 8);  // link down
  net.unicast(0, 2, 0, 20, 8);
  net.set_link_down(0, 1, false);  // same date: last write wins
  net.unicast(0, 1, 0, 3, 8);  // the burst
  net.unicast(0, 2, 0, 21, 8);
  net.unicast(0, 1, 0, 4, 8);  // the omission rate
  net.unicast(0, 2, 0, 22, 8);
  net.set_link_omission(0, 1, 0.0);
  net.unicast(0, 1, 0, 5, 8);  // fault-free again, held behind the floor
  e.run();

  const time_point on_time = time_point::at(10_us);
  const time_point floor = time_point::at(510_us);
  EXPECT_EQ(got, (std::vector<std::tuple<node_id, int, time_point>>{
                     {2, 20, on_time},
                     {2, 21, on_time},
                     {2, 22, on_time},
                     {1, 1, floor},
                     {1, 5, floor}}));
  EXPECT_EQ(net.stats().dropped, 3u);
  EXPECT_EQ(net.stats().late, 1u);
}

// Growing the node set (reserve_nodes) must not disturb the rng stream —
// and therefore the delivery schedule — of an existing source.
TEST(NetworkTest, RngStreamStableAcrossReserveNodesGrowth) {
  auto run = [](bool grow_midway) {
    engine e;
    network net(e, tight(), 99);
    net.reserve_nodes(2);
    std::vector<std::int64_t> arrivals;
    net.attach(1, [&](const message&) {
      arrivals.push_back(e.now().nanoseconds());
    });
    for (int i = 0; i < 50; ++i) net.unicast(0, 1, 0, i, 8);
    if (grow_midway) net.reserve_nodes(48);  // widen fan-out state
    for (int i = 0; i < 50; ++i) net.unicast(0, 1, 0, i, 8);
    e.run();
    return arrivals;
  };
  EXPECT_EQ(run(false), run(true));
}

// The receive handler owns the delivered frame: it may move the payload out
// (the NIC interrupt takes the frame that way). The delivery observer runs
// first and sees the frame intact.
TEST(NetworkTest, HandlerMayMoveTheFrameOutAfterTheObserverSawIt) {
  struct body {
    std::uint64_t words[4];
  };
  engine e;
  network net(e, tight());
  std::vector<std::string> order;
  std::uint64_t observed = 0;
  net.set_delivery_observer([&](const message& m) {
    order.emplace_back("observer");
    if (const auto* b = m.payload.get<body>()) observed = b->words[0];
  });
  wire_payload taken;
  net.attach(0, [](message&) {});
  net.attach(1, [&](message& m) {
    order.emplace_back("handler");
    taken = std::move(m.payload);
    EXPECT_FALSE(m.payload.has_value());
  });
  const auto live_before = wire_payload::stats().pooled_live;
  net.unicast(0, 1, 3, body{{42, 0, 0, 0}}, 32);
  e.run();
  EXPECT_EQ(order, (std::vector<std::string>{"observer", "handler"}));
  EXPECT_EQ(observed, 42u);
  ASSERT_NE(taken.get<body>(), nullptr);
  EXPECT_EQ(taken.get<body>()->words[0], 42u);
  // The moved-out payload is the block's last holder: releasing it returns
  // the block to the pool.
  EXPECT_EQ(wire_payload::stats().pooled_live, live_before + 1);
  taken.reset();
  EXPECT_EQ(wire_payload::stats().pooled_live, live_before);
}

// Broadcast fan-out shares ONE pooled payload by refcount: every receiver
// observes the same block, and the steady state allocates nothing.
TEST(NetworkTest, BroadcastSharesOnePooledPayloadAndAllocatesNothing) {
  struct envelope {
    std::uint64_t a, b, c;
  };
  engine e;
  network net(e, tight());
  net.reserve_nodes(4);
  std::vector<const envelope*> seen;
  for (node_id n = 0; n < 4; ++n)
    net.attach(n, [&](const message& m) {
      seen.push_back(m.payload.get<envelope>());
    });
  net.fan_out(0, 1, envelope{1, 2, 3}, 32);
  e.run();
  ASSERT_EQ(seen.size(), 3u);
  EXPECT_NE(seen[0], nullptr);
  EXPECT_EQ(seen[0], seen[1]);  // one block, shared across the fan-out
  EXPECT_EQ(seen[1], seen[2]);

  // Steady state: no pool growth, no heap fallback, no event-closure heap.
  for (int i = 0; i < 16; ++i) {  // warm
    net.fan_out(0, 1, envelope{1, 2, 3}, 32);
    e.run();
  }
  const auto pool_before = wire_payload::stats();
  const auto cb_before = event_callback::heap_allocations();
  for (int i = 0; i < 1000; ++i) {
    net.fan_out(0, 1, envelope{static_cast<std::uint64_t>(i), 2, 3}, 32);
    e.run();
  }
  const auto pool_after = wire_payload::stats();
  EXPECT_EQ(pool_after.chunk_allocs, pool_before.chunk_allocs);
  EXPECT_EQ(pool_after.oversize_allocs, pool_before.oversize_allocs);
  EXPECT_EQ(pool_after.pooled_live, pool_before.pooled_live);
  EXPECT_EQ(event_callback::heap_allocations(), cb_before);
}

}  // namespace
}  // namespace hades::sim
