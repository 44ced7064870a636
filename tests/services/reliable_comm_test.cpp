#include "services/reliable_comm.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>
#include <vector>

namespace hades::svc {
namespace {

using namespace hades::literals;

core::system::config lan() {
  core::system::config cfg;
  cfg.costs = core::cost_model::zero();
  cfg.kernel_background = false;
  cfg.net.delta_min = 20_us;
  cfg.net.delta_max = 60_us;
  cfg.net.per_byte = 0_ns;
  return cfg;
}

// One window per (receiver, origin) pair: a 1,000-node broadcast keeps
// thousands, so the in-order case holds no set header.
static_assert(sizeof(dedup_window) <= 24);

TEST(DedupWindowTest, InOrderNumberIsAcceptedOnce) {
  dedup_window w;
  EXPECT_TRUE(w.insert(1));
  EXPECT_FALSE(w.insert(1));
  EXPECT_TRUE(w.insert(2));
  EXPECT_EQ(w.watermark(), 2u);
  EXPECT_EQ(w.state_bytes(), sizeof(dedup_window));
}

TEST(DedupWindowTest, DuplicatesAndNumbersAtOrBelowTheWatermarkAreRejected) {
  dedup_window w;
  EXPECT_FALSE(w.insert(0));
  for (std::uint64_t s = 1; s <= 5; ++s) ASSERT_TRUE(w.insert(s));
  EXPECT_TRUE(w.insert(8));
  EXPECT_FALSE(w.insert(8));  // held above the watermark
  for (std::uint64_t s = 0; s <= 5; ++s) EXPECT_FALSE(w.insert(s)) << s;
  EXPECT_EQ(w.watermark(), 5u);
}

TEST(DedupWindowTest, OutOfOrderNumbersWaitForTheGapThenTheWatermarkJumps) {
  dedup_window w;
  EXPECT_TRUE(w.insert(3));
  EXPECT_TRUE(w.insert(4));
  EXPECT_TRUE(w.insert(6));
  EXPECT_EQ(w.watermark(), 0u);
  EXPECT_TRUE(w.insert(2));
  EXPECT_EQ(w.watermark(), 0u);
  EXPECT_TRUE(w.insert(1));
  EXPECT_EQ(w.watermark(), 4u);  // 1-4 are contiguous; 6 still waits on 5
  EXPECT_FALSE(w.insert(3));
  EXPECT_TRUE(w.insert(5));
  EXPECT_EQ(w.watermark(), 6u);
  EXPECT_EQ(w.state_bytes(), sizeof(dedup_window));
}

TEST(DedupWindowTest, OverflowSkipsTheOldestGapAndRejectsItsLateArrivals) {
  dedup_window w(2);
  EXPECT_TRUE(w.insert(3));
  EXPECT_TRUE(w.insert(4));
  EXPECT_TRUE(w.insert(7));
  // Three held numbers exceed the window of two: the watermark moves to the
  // oldest held one, and the gap below it (1, 2) is declared lost.
  EXPECT_EQ(w.watermark(), 3u);
  EXPECT_FALSE(w.insert(1));
  EXPECT_FALSE(w.insert(2));
  EXPECT_FALSE(w.insert(3));
  // 4 is still held, right above the watermark: a duplicate, not in order.
  EXPECT_FALSE(w.insert(4));
  EXPECT_TRUE(w.insert(5));
  EXPECT_EQ(w.watermark(), 5u);
  EXPECT_TRUE(w.insert(6));
  EXPECT_EQ(w.watermark(), 7u);
}

// --- shared-prefix delivery logs ---------------------------------------------

using entry = delivery_logs::entry;
using entries = std::vector<entry>;

entries as_vector(delivery_logs::view v) { return {v.begin(), v.end()}; }

/// Delivery logs with a plain vector per node beside them: every append
/// goes to both, and no more entries may be held than were appended.
struct mirrored_logs {
  explicit mirrored_logs(std::size_t nodes) : logs(nodes), ref(nodes) {}

  void append(node_id n, entry e) {
    logs.append(n, e);
    ref[n].push_back(e);
    ++appended;
    EXPECT_LE(logs.entries_held(), appended);
  }
  void append(node_id n, const entries& es) {
    for (const entry& e : es) append(n, e);
  }
  /// Each view reads back its node's vector through size, iteration and
  /// indexing, and two views compare equal exactly when the vectors do.
  void expect_exact() const {
    ASSERT_EQ(logs.size(), ref.size());
    for (node_id n = 0; n < ref.size(); ++n) {
      const delivery_logs::view v = logs[n];
      ASSERT_EQ(v.size(), ref[n].size()) << "node " << n;
      EXPECT_EQ(as_vector(v), ref[n]) << "node " << n;
      for (std::size_t i = 0; i < v.size(); ++i)
        EXPECT_EQ(v[i], ref[n][i]) << "node " << n << " entry " << i;
      for (node_id m = 0; m < ref.size(); ++m)
        EXPECT_EQ(v == logs[m], ref[n] == ref[m]) << n << " vs " << m;
    }
  }

  delivery_logs logs;
  std::vector<entries> ref;
  std::size_t appended = 0;
};

TEST(DeliveryLogsTest, FollowersHoldTheSequenceOnce) {
  mirrored_logs m(5);
  for (std::uint64_t k = 1; k <= 20; ++k)
    for (node_id n = 0; n < 5; ++n) m.append(n, {k % 3, k});
  m.expect_exact();
  EXPECT_EQ(m.logs.entries_held(), 20u);
  EXPECT_EQ(m.logs.at(4), m.logs[0]);
  EXPECT_THROW((void)m.logs.at(5), std::out_of_range);
}

TEST(DeliveryLogsTest, ForksDuplicatesAndGapsReadBackExactly) {
  mirrored_logs m(6);
  const entries trunk = {{0, 1}, {1, 1}, {0, 2}, {2, 1}, {1, 2}};
  m.append(0, trunk);                     // lays the trunk down
  m.append(1, trunk);                     // follows it to its end
  m.append(2, {{0, 1}, {2, 1}});          // a gap: forks mid-trunk
  m.append(3, {{1, 1}});                  // forks before the first entry
  m.append(4, {{0, 1}, {1, 1}, {0, 1}});  // a duplicate forks it
  m.append(1, {{2, 2}});                  // at the end: extends the trunk
  m.append(0, {{0, 3}});                  // forks at the trunk's last entry
  m.append(1, {{2, 2}, {2, 2}});          // duplicates at the trunk's end
  m.append(5, {{0, 1}, {1, 1}, {0, 2}, {2, 1}, {1, 2}, {2, 2}, {0, 3}});
  m.expect_exact();
  // Every node but node 1 has forked; node 1 goes on extending the trunk.
  m.append(1, {{1, 3}, {1, 4}});
  m.expect_exact();
  EXPECT_EQ(m.logs.entries_held(), 10u + 5);  // the trunk, five 1-entry tails
}

TEST(DeliveryLogsTest, SeededRandomStreamsReadBackExactly) {
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    rng r(seed);
    const auto nodes = static_cast<std::size_t>(r.uniform_int(2, 8));
    // One common sequence, as Delta-delivery would release it.
    entries common;
    std::vector<std::uint64_t> next_seq(4, 0);
    for (int i = 0; i < 60; ++i) {
      const auto origin = static_cast<node_id>(r.uniform_int(0, 3));
      common.emplace_back(origin, ++next_seq[origin]);
    }
    // Each node's stream: the common sequence with its own rate of gaps,
    // duplicates, swapped neighbours and foreign entries (0 for a clean
    // follower), and a crash gap on some nodes.
    std::vector<entries> streams(nodes);
    for (entries& st : streams) {
      const double fault = r.uniform_int(0, 2) == 0 ? 0.0 : r.uniform(0, 0.2);
      const auto down = static_cast<std::size_t>(r.uniform_int(0, 80));
      const auto up = down + static_cast<std::size_t>(r.uniform_int(0, 20));
      for (std::size_t i = 0; i < common.size(); ++i) {
        if (i >= down && i < up) continue;
        const double u = r.uniform01();
        if (u < fault / 4) continue;  // a gap
        if (u < fault / 2 && i + 1 < common.size()) {
          st.push_back(common[i + 1]);  // neighbours swapped
          st.push_back(common[i]);
          ++i;
          continue;
        }
        st.push_back(common[i]);
        if (u < 3 * fault / 4) {
          st.push_back(common[i]);  // a duplicate
        } else if (u < fault) {
          st.emplace_back(static_cast<node_id>(r.uniform_int(0, 3)),
                          static_cast<std::uint64_t>(r.uniform_int(1, 99)));
        }
      }
    }
    // Interleave the streams at random, as shards and dates would.
    mirrored_logs m(nodes);
    std::vector<std::size_t> at(nodes, 0);
    for (;;) {
      std::vector<node_id> open;
      for (node_id n = 0; n < nodes; ++n)
        if (at[n] < streams[n].size()) open.push_back(n);
      if (open.empty()) break;
      const node_id n = open[static_cast<std::size_t>(
          r.uniform_int(0, static_cast<std::int64_t>(open.size()) - 1))];
      m.append(n, streams[n][at[n]++]);
      if (m.appended % 97 == 0) m.expect_exact();
    }
    m.expect_exact();
  }
}

TEST(ReliableP2pTest, DeliversOnceDespiteRedundantCopies) {
  core::system sys(2, lan());
  reliable_p2p svc(sys, {2, 200_us});
  std::vector<int> got;
  svc.on_deliver(1, [&](node_id, const sim::wire_payload& p) {
    got.push_back(*p.get<int>());
  });
  svc.send(0, 1, 42);
  sys.run_for(10_ms);
  EXPECT_EQ(got, (std::vector<int>{42}));
  EXPECT_EQ(svc.duplicates_suppressed(), 2u);  // 3 copies, 1 delivery
}

TEST(ReliableP2pTest, MasksOmissionsUpToDegree) {
  core::system sys(2, lan());
  reliable_p2p svc(sys, {2, 200_us});  // k=2: 3 copies
  int got = 0;
  svc.on_deliver(1, [&](node_id, const sim::wire_payload&) { ++got; });
  sys.network().drop_next(0, 1, 2);  // kill the first two copies
  svc.send(0, 1, 7);
  sys.run_for(10_ms);
  EXPECT_EQ(got, 1);
}

TEST(ReliableP2pTest, DeliveryWithinBound) {
  core::system sys(2, lan());
  reliable_p2p svc(sys, {3, 150_us});
  std::vector<duration> latencies;
  time_point sent;
  svc.on_deliver(1, [&](node_id, const sim::wire_payload&) {
    latencies.push_back(sys.now() - sent);
  });
  rng r(5);
  sys.network().set_omission_rate(0.3);
  for (int i = 0; i < 200; ++i) {
    sent = sys.now();
    svc.send(0, 1, i);
    sys.run_for(2_ms);
  }
  EXPECT_GE(latencies.size(), 195u);  // P(4 omissions) ~ 0.8%
  for (auto l : latencies) EXPECT_LE(l, svc.p2p_bound(64));
}

TEST(ReliableBroadcastTest, AllNodesDeliver) {
  core::system sys(4, lan());
  reliable_broadcast svc(sys, {});
  std::vector<int> count(4, 0);
  for (node_id n = 0; n < 4; ++n)
    svc.on_deliver(n, [&, n](const reliable_broadcast::bcast_msg&) {
      ++count[n];
    });
  svc.broadcast(0, std::string("hello"));
  sys.run_for(10_ms);
  EXPECT_EQ(count, (std::vector<int>{1, 1, 1, 1}));
}

TEST(ReliableBroadcastTest, AgreementDespiteSenderOmissions) {
  // The sender's copies to nodes 2 and 3 are lost; the relay from node 1
  // must still deliver everywhere (agreement).
  core::system sys(4, lan());
  reliable_broadcast svc(sys, {});
  sys.network().drop_next(0, 2, 1);
  sys.network().drop_next(0, 3, 1);
  svc.broadcast(0, 1);
  sys.run_for(10_ms);
  for (node_id n = 0; n < 4; ++n)
    EXPECT_EQ(svc.delivery_log(n).size(), 1u) << "node " << n;
  EXPECT_GT(svc.relays(), 0u);
}

TEST(ReliableBroadcastTest, AgreementDespiteSenderCrashMidBroadcast) {
  // The network interleaves crash semantics: sender reaches one node, then
  // crashes. Flooding must still reach everyone alive.
  core::system sys(4, lan());
  reliable_broadcast svc(sys, {});
  sys.network().drop_next(0, 2, 1);
  sys.network().drop_next(0, 3, 1);
  svc.broadcast(0, 1);
  sys.engine().after(5_us, [&] { sys.crash_node(0); });  // before any arrival
  sys.run_for(10_ms);
  for (node_id n = 1; n < 4; ++n)
    EXPECT_EQ(svc.delivery_log(n).size(), 1u) << "node " << n;
}

TEST(ReliableBroadcastTest, TotalOrderAcrossConcurrentBroadcasts) {
  core::system sys(3, lan());
  reliable_broadcast::params p;
  p.total_order = true;
  p.stability_delay = 2_ms;  // > 2 * delta_max
  reliable_broadcast svc(sys, p);
  // Two broadcasts from different origins, microseconds apart.
  svc.broadcast(0, 1);
  sys.engine().after(5_us, [&] { svc.broadcast(2, 2); });
  sys.run_for(20_ms);
  const auto& l0 = svc.delivery_log(0);
  const auto& l1 = svc.delivery_log(1);
  const auto& l2 = svc.delivery_log(2);
  ASSERT_EQ(l0.size(), 2u);
  EXPECT_EQ(l0, l1);
  EXPECT_EQ(l1, l2);  // identical delivery order everywhere
}

TEST(ReliableBroadcastTest, ManyBroadcastsSameOrderEverywhere) {
  core::system sys(4, lan());
  reliable_broadcast::params p;
  p.total_order = true;
  p.stability_delay = 2_ms;
  reliable_broadcast svc(sys, p);
  rng r(3);
  for (int i = 0; i < 30; ++i) {
    const auto src = static_cast<node_id>(r.uniform_int(0, 3));
    sys.engine().after(duration::microseconds(r.uniform_int(0, 5000)),
                       [&svc, src, i] { svc.broadcast(src, i); });
  }
  sys.run_for(100_ms);
  for (node_id n = 1; n < 4; ++n) EXPECT_EQ(svc.delivery_log(0), svc.delivery_log(n));
  EXPECT_EQ(svc.delivery_log(0).size(), 30u);
}

// Delta-delivery releases one sequence on every node, so the logs hold it
// once: at most one entry per message sent, not one per delivery.
TEST(ReliableBroadcastTest, TotalOrderLogsShareOnePrefix) {
  constexpr std::size_t nodes = 64;
  constexpr std::size_t sent = 300;
  core::system sys(nodes, lan());
  reliable_broadcast::params p;
  p.total_order = true;
  p.stability_delay = 2_ms;
  p.diffusion = reliable_broadcast::diffusion_kind::tree;
  reliable_broadcast svc(sys, p);
  rng r(11);
  for (std::size_t i = 0; i < sent; ++i) {
    const auto src = static_cast<node_id>(r.uniform_int(0, nodes - 1));
    sys.engine().after(duration::microseconds(r.uniform_int(0, 50'000)),
                       [&svc, src, i] { svc.broadcast(src, i); });
  }
  sys.run_for(100_ms);
  ASSERT_EQ(svc.delivery_log(0).size(), sent);
  for (node_id n = 1; n < nodes; ++n)
    EXPECT_EQ(svc.delivery_log(n), svc.delivery_log(0)) << "node " << n;
  const std::size_t with_logs = svc.state_bytes();
  const delivery_logs logs = svc.take_delivery_logs();
  const std::size_t held = (with_logs - svc.state_bytes()) / sizeof(entry);
  EXPECT_LE(held, sent);
  EXPECT_EQ(held, logs.entries_held());
  EXPECT_EQ(svc.delivery_log(0).size(), 0u);
  EXPECT_EQ(logs[nodes - 1].size(), sent);
}

// Regression (ISSUE 2): a relay that arrives after sent_at + Delta used to
// be delivered at arrival, interleaving behind younger messages on that
// node while every other node delivered in timestamp order — agreement
// without total order. The hold-back queue releases strictly in
// (sent_at, origin, seq) order at sent_at + max(Delta, diffusion).
TEST(ReliableBroadcastTest, TotalOrderSurvivesRelayPastStabilityDeadline) {
  core::system::config cfg;
  cfg.costs = core::cost_model::zero();
  cfg.kernel_background = false;
  cfg.net.delta_min = 50_us;  // jitter-free: the scenario is deterministic
  cfg.net.delta_max = 50_us;
  cfg.net.per_byte = 0_ns;
  core::system sys(3, cfg);

  reliable_broadcast::params p;
  p.total_order = true;
  p.stability_delay = 60_us;  // < 2 hops: the relay path exceeds Delta
  reliable_broadcast svc(sys, p);

  // msg1 from node 0 at t=0 loses its direct copy to node 2; node 2 only
  // hears it via node 1's relay at t=100us — 40us past the stability
  // deadline. msg2 from node 1 at t=30us reaches node 2 directly at t=80us.
  sys.network().drop_next(0, 2, 1);
  svc.broadcast(0, 1);
  sys.engine().after(30_us, [&] { svc.broadcast(1, 2); });
  sys.run_for(10_ms);

  const std::vector<std::pair<node_id, std::uint64_t>> expected{{0, 1},
                                                                {1, 1}};
  for (node_id n = 0; n < 3; ++n)
    EXPECT_EQ(as_vector(svc.delivery_log(n)), expected) << "node " << n;
  EXPECT_EQ(svc.order_faults(), 0u);  // within the diffusion bound
  // The advertised bound covers the relay path that exceeded Delta.
  EXPECT_GE(svc.delivery_bound(64), 100_us);
}

// Regression (ISSUE 2): relays used to be re-sent with a hardcoded 64-byte
// size, so relayed copies of large messages undercut the per-byte latency
// model and the advertised delivery_bound. The relay must pay the true
// wire cost of the message it forwards.
TEST(ReliableBroadcastTest, RelayedLargePayloadPaysFullTransferCost) {
  core::system::config cfg;
  cfg.costs = core::cost_model::zero();
  cfg.kernel_background = false;
  cfg.net.delta_min = 50_us;
  cfg.net.delta_max = 50_us;
  cfg.net.per_byte = 8_ns;
  core::system sys(3, cfg);
  reliable_broadcast svc(sys, {});

  constexpr std::size_t size = 4096;
  std::vector<duration> node2_latency;
  svc.on_deliver(2, [&](const reliable_broadcast::bcast_msg& m) {
    node2_latency.push_back(sys.now() - m.sent_at);
    EXPECT_EQ(m.size_bytes, size);
  });
  // Node 2 only receives the 4KB message through node 1's relay.
  sys.network().drop_next(0, 2, 1);
  svc.broadcast(0, std::string(size, 'x'), size);
  sys.run_for(10_ms);

  ASSERT_EQ(node2_latency.size(), 1u);
  // Two full-size hops: within the advertised bound, but no faster than
  // the per-byte cost of the real payload allows (the pre-fix relay
  // arrived ~32us early because it shipped 64 bytes).
  const duration full_hop = cfg.net.delta_min + cfg.net.per_byte * size;
  EXPECT_GE(node2_latency[0], full_hop * 2);
  EXPECT_LE(node2_latency[0], svc.delivery_bound(size));
}

// Regression (ISSUE 2): both services' dedup state used to grow without
// bound under sustained traffic (a std::set per (receiver, source) holding
// every sequence number ever seen). The watermark + bounded-window design
// must stay flat across a 100k-message soak even with omission faults
// stalling the contiguous prefix.
TEST(ReliableP2pTest, DedupStateBoundedUnder100kMessageSoak) {
  core::system sys(2, lan());
  reliable_p2p svc(sys, {1, 10_us});
  sys.network().set_omission_rate(0.05);  // some seqs lose both copies

  std::size_t mid_soak_bytes = 0;
  for (int i = 0; i < 100'000; ++i) {
    svc.send(0, 1, i);
    if (i % 64 == 63) sys.run_for(200_us);
    if (i == 50'000) mid_soak_bytes = svc.state_bytes();
  }
  sys.run_for(10_ms);

  EXPECT_GT(svc.delivered(), 99'000u);  // P(both copies lost) = 0.25%
  EXPECT_GT(svc.duplicates_suppressed(), 88'000u);  // ~90% both copies arrive
  // Bounded: on the order of one window, not one entry per message.
  EXPECT_LT(svc.state_bytes(), 128u * 1024u);
  EXPECT_LT(mid_soak_bytes, 128u * 1024u);
}

TEST(ReliableBroadcastTest, DedupStateBoundedUnderSoak) {
  core::system sys(4, lan());
  reliable_broadcast::params p;
  p.record_deliveries = false;  // the logs are per-delivery by design
  reliable_broadcast svc(sys, p);
  for (int i = 0; i < 3000; ++i) {
    const auto src = static_cast<node_id>(i % 4);
    svc.broadcast(src, i);
    sys.run_for(500_us);
  }
  sys.run_for(10_ms);
  EXPECT_EQ(svc.delivered(), 12'000u);  // 3000 broadcasts x 4 nodes
  // 16 (node, origin) windows, all fully contiguous — no per-message state.
  EXPECT_LT(svc.state_bytes(), 16u * 1024u);
}

// A later SMALL message must not be released while an earlier LARGE one is
// still legitimately in flight: the hold-back horizon is computed from the
// largest admitted payload, not the message's own size.
TEST(ReliableBroadcastTest, TotalOrderSurvivesMixedPayloadSizes) {
  core::system::config cfg;
  cfg.costs = core::cost_model::zero();
  cfg.kernel_background = false;
  cfg.net.delta_min = 50_us;
  cfg.net.delta_max = 50_us;
  cfg.net.per_byte = 8_ns;
  core::system sys(3, cfg);

  reliable_broadcast::params p;
  p.total_order = true;
  p.stability_delay = 60_us;
  p.max_message_bytes = 4096;
  reliable_broadcast svc(sys, p);

  // 4KB msg A from node 0 at t=0 reaches node 2 only via node 1's relay
  // (~165us, within A's fault-free bound); 64B msg B from node 1 at t=10us
  // reaches node 2 directly at ~60us.
  sys.network().drop_next(0, 2, 1);
  svc.broadcast(0, std::string(4096, 'a'), 4096);
  sys.engine().after(10_us, [&] { svc.broadcast(1, 2); });
  sys.run_for(10_ms);

  const std::vector<std::pair<node_id, std::uint64_t>> expected{{0, 1},
                                                                {1, 1}};
  for (node_id n = 0; n < 3; ++n)
    EXPECT_EQ(as_vector(svc.delivery_log(n)), expected) << "node " << n;
  EXPECT_EQ(svc.order_faults(), 0u);
  // Oversized total-order payloads are rejected outright.
  EXPECT_THROW(svc.broadcast(0, 1, 8192), hades::invariant_violation);
}

TEST(ReliableBroadcastTest, DeliveryBoundIsRespected) {
  core::system sys(4, lan());
  reliable_broadcast svc(sys, {});
  std::vector<duration> lat;
  for (node_id n = 0; n < 4; ++n)
    svc.on_deliver(n, [&](const reliable_broadcast::bcast_msg& m) {
      lat.push_back(sys.now() - m.sent_at);
    });
  for (int i = 0; i < 50; ++i) {
    svc.broadcast(static_cast<node_id>(i % 4), i);
    sys.run_for(1_ms);
  }
  for (auto l : lat) EXPECT_LE(l, svc.delivery_bound(64));
}

// --- spanning-tree diffusion -------------------------------------------------
//
// Tree mode replaces the O(N^2) flood with origin-rotated k-ary relay; with
// origin 0 the labels equal the node ids (fanout 4: node 1's children are
// 5-8, node 5's are 21-24), which the crash placements below exploit.

TEST(ReliableBroadcastTest, TreeDiffusionDeliversEverywhereWithLinearSends) {
  core::system sys(64, lan());
  reliable_broadcast::params p;
  p.diffusion = reliable_broadcast::diffusion_kind::tree;
  reliable_broadcast svc(sys, p);
  svc.broadcast(5, 1);
  sys.run_for(20_ms);
  for (node_id n = 0; n < 64; ++n)
    EXPECT_EQ(svc.delivery_log(n).size(), 1u) << "node " << n;
  // Child + grandchild forwarding costs ~2N sends, not the flood's N^2.
  EXPECT_LE(sys.network().stats().sent, 64u * 3);
}

TEST(ReliableBroadcastTest, TreeReParentsAroundCrashedInteriorChain) {
  // Crash an interior node AND its child before the broadcast: the orphaned
  // subtree at 21-24 can hear from neither its parent (5) nor its
  // grandparent (1), so only suspicion-driven re-parenting — the origin
  // adopting the suspects' children transitively — reaches it.
  core::system sys(64, lan());
  reliable_broadcast::params p;
  p.diffusion = reliable_broadcast::diffusion_kind::tree;
  reliable_broadcast svc(sys, p);
  sys.crash_node(1);
  sys.crash_node(5);
  svc.set_suspicion_oracle(
      [](node_id, node_id s) { return s == 1 || s == 5; });
  svc.broadcast(0, 7);
  sys.run_for(20_ms);
  for (node_id n = 0; n < 64; ++n) {
    if (n == 1 || n == 5) continue;
    EXPECT_EQ(svc.delivery_log(n).size(), 1u) << "node " << n;
  }
}

TEST(ReliableBroadcastTest, TreeGrandchildRedundancyMasksUnsuspectedCrash) {
  // No suspicion oracle at all: a single crashed interior node is masked
  // purely by the deterministic grandchild forwarding (no detector latency
  // in the delivery path).
  core::system sys(64, lan());
  reliable_broadcast::params p;
  p.diffusion = reliable_broadcast::diffusion_kind::tree;
  reliable_broadcast svc(sys, p);
  sys.crash_node(2);
  svc.broadcast(0, 7);
  sys.run_for(20_ms);
  for (node_id n = 0; n < 64; ++n) {
    if (n == 2) continue;
    EXPECT_EQ(svc.delivery_log(n).size(), 1u) << "node " << n;
  }
}

TEST(ReliableBroadcastTest, TreeFalselySuspectedNodeStillDelivers) {
  // Validity under false suspicion: the suspect is skipped as a relay but
  // still receives its copy from its grandparent.
  core::system sys(64, lan());
  reliable_broadcast::params p;
  p.diffusion = reliable_broadcast::diffusion_kind::tree;
  reliable_broadcast svc(sys, p);
  svc.set_suspicion_oracle([](node_id, node_id s) { return s == 3; });
  svc.broadcast(0, 9);
  sys.run_for(20_ms);
  for (node_id n = 0; n < 64; ++n)
    EXPECT_EQ(svc.delivery_log(n).size(), 1u) << "node " << n;
}

TEST(ReliableBroadcastTest, TreeTotalOrderAcrossOrigins) {
  core::system sys(64, lan());
  reliable_broadcast::params p;
  p.total_order = true;
  p.stability_delay = 2_ms;
  p.diffusion = reliable_broadcast::diffusion_kind::tree;
  reliable_broadcast svc(sys, p);
  svc.broadcast(0, 1);
  sys.engine().after(5_us, [&] { svc.broadcast(40, 2); });
  sys.run_for(50_ms);
  const auto& ref = svc.delivery_log(0);
  ASSERT_EQ(ref.size(), 2u);
  for (node_id n = 1; n < 64; ++n)
    EXPECT_EQ(svc.delivery_log(n), ref) << "node " << n;
}

}  // namespace
}  // namespace hades::svc
