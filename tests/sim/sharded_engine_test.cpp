// The sharded multi-engine backend (DESIGN.md, "Sharded backend"):
// conservative-horizon rounds, deterministic cross-shard merge order, and —
// the load-bearing property — a merged trace bit-identical to the
// single-engine backend from the same workload.
#include "sim/sharded_engine.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "core/system.hpp"
#include "services/reliable_comm.hpp"
#include "util/error.hpp"

namespace hades {
namespace {

using namespace hades::literals;

constexpr std::size_t kNodes = 32;
constexpr std::size_t kGroups = 8;
constexpr duration kLookahead = duration::microseconds(10);

sim::sharded_params make_params(std::size_t shards) {
  sim::sharded_params p;
  p.shards = shards;
  p.lookahead = kLookahead;
  p.node_shard.resize(kNodes);
  for (std::size_t n = 0; n < kNodes; ++n)
    p.node_shard[n] = static_cast<std::uint32_t>(n * shards / kNodes);
  return p;
}

// --- the 8-group reference workload -----------------------------------------
//
// Every node runs a self-rescheduling local chain; every fourth firing sends
// a cross-group event whose delay honours the lookahead. Local events sit on
// the whole-microsecond grid and cross arrivals half a microsecond off it
// (as continuously-sampled network latencies are in practice), so no node
// ever sees a cross arrival collide with a local event at the same instant
// — the one tie the single engine breaks with global scheduling order,
// which a sharded run cannot observe (DESIGN.md, "Sharded backend").

struct wl_trace {
  // Per node: (nanosecond date, marker). The merged trace of the run.
  std::vector<std::vector<std::pair<std::int64_t, std::uint64_t>>> log;
};

struct node_driver {
  runtime* rt = nullptr;
  wl_trace* out = nullptr;
  node_id n = 0;
  int iter = 0;
  int max_iter = 0;

  void fire() {
    out->log[n].emplace_back(rt->now().since_epoch().count(), iter);
    if (iter % 4 == 3) {
      const auto dst = static_cast<node_id>((n + 5) % kNodes);
      const duration delay = kLookahead +
                             duration::microseconds(1 + (n * 11 + iter * 3) % 17) +
                             duration::nanoseconds(500);
      const std::uint64_t marker = 1000000u + n * 1000u + iter;
      rt->at_node(dst, rt->now() + delay, [rt = rt, out = out, dst, marker] {
        out->log[dst].emplace_back(rt->now().since_epoch().count(), marker);
      });
    }
    if (++iter < max_iter) {
      const duration next =
          duration::microseconds(1 + (n * 7 + iter * 13) % 23);
      rt->at_node(n, rt->now() + next, [this] { fire(); });
    }
  }
};

wl_trace run_workload(runtime& rt, int iters) {
  wl_trace out;
  out.log.resize(kNodes);
  std::vector<node_driver> drivers(kNodes);
  for (node_id n = 0; n < kNodes; ++n) {
    drivers[n] = node_driver{&rt, &out, n, 0, iters};
    rt.at_node(n, time_point::at(duration::microseconds(3 * (n + 1))),
               [d = &drivers[n]] { d->fire(); });
  }
  rt.run();
  return out;
}

TEST(ShardedEngineTest, MergedTraceIdenticalToSingleEngine) {
  auto single = sim::make_engine();
  const wl_trace reference = run_workload(*single, 64);

  auto sharded = sim::make_sharded_engine(make_params(kGroups));
  const wl_trace sharded_trace = run_workload(*sharded, 64);

  ASSERT_EQ(reference.log.size(), sharded_trace.log.size());
  for (node_id n = 0; n < kNodes; ++n)
    EXPECT_EQ(reference.log[n], sharded_trace.log[n]) << "node " << n;
}

// Serial rounds are the only execution mode: a worker count is a
// configuration error on the direct factory and through the registry.
TEST(ShardedEngineTest, WorkerThreadsAreRejected) {
  sim::sharded_params p = make_params(kGroups);
  p.workers = 2;
  EXPECT_THROW((void)sim::make_sharded_engine(p), hades::error);

  runtime::options o;
  o.backend = "sharded";
  o.node_count = kNodes;
  o.shards = 2;
  o.workers = 2;
  EXPECT_THROW((void)runtime::make(o), hades::error);
}

TEST(ShardedEngineTest, ShardMappingAndAccounting) {
  auto eng = std::make_unique<sim::sharded_engine>(make_params(kGroups));
  EXPECT_EQ(eng->shard_count(), kGroups);
  EXPECT_EQ(eng->shard_of(0), 0u);
  EXPECT_EQ(eng->shard_of(kNodes - 1), kGroups - 1);
  // Nodes beyond the map fall back to modulo.
  EXPECT_EQ(eng->shard_of(kNodes), (kNodes % kGroups));

  const wl_trace t = run_workload(*eng, 16);
  std::size_t logged = 0;
  for (const auto& l : t.log) logged += l.size();
  EXPECT_EQ(eng->executed(), logged);
  EXPECT_TRUE(eng->empty());
  EXPECT_EQ(eng->pending(), 0u);

  const auto st = eng->stats();
  EXPECT_GT(st.rounds, 0u);
  EXPECT_GT(st.cross_events, 0u);  // the workload genuinely crossed shards
  std::uint64_t per_shard_total = 0;
  for (std::uint64_t e : st.executed_per_shard) per_shard_total += e;
  EXPECT_EQ(per_shard_total, eng->executed());
}

TEST(ShardedEngineTest, RuntimeContractBasics) {
  auto rt = sim::make_sharded_engine(make_params(4));
  EXPECT_EQ(rt->now(), time_point::zero());
  EXPECT_TRUE(rt->empty());

  std::vector<int> order;
  rt->at(time_point::at(2_us), [&] { order.push_back(2); });
  rt->after(1_us, [&] { order.push_back(1); });
  auto dropped = rt->after(3_us, [&] { order.push_back(3); });
  rt->cancel(dropped);
  rt->cancel(sim::invalid_event);
  rt->run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(rt->executed(), 2u);
}

TEST(ShardedEngineTest, RunUntilAdvancesEveryShardClock) {
  auto rt = sim::make_sharded_engine(make_params(4));
  rt->run_until(time_point::at(5_ms));
  EXPECT_EQ(rt->now(), time_point::at(5_ms));
  // A fresh event scheduled "now" on any node is legal afterwards.
  int fired = 0;
  rt->at_node(3, rt->now() + 1_us, [&] { ++fired; });
  rt->run_until(rt->now() + 2_us);
  EXPECT_EQ(fired, 1);
}

TEST(ShardedEngineTest, CancelTargetsTheOwningShard) {
  auto eng = std::make_unique<sim::sharded_engine>(make_params(8));
  int fired = 0;
  // Schedule on a node owned by shard 5, from outside any callback.
  const auto id =
      eng->at_node(22, time_point::at(1_ms), [&] { ++fired; });
  ASSERT_NE(id, sim::invalid_event);
  eng->cancel(id);
  eng->cancel(id);  // idempotent
  eng->run();
  EXPECT_EQ(fired, 0);
}

TEST(ShardedEngineTest, CrossShardBelowLookaheadIsRejected) {
  auto eng = std::make_unique<sim::sharded_engine>(make_params(8));
  bool threw = false;
  // From inside a callback on node 0 (shard 0), target node 31 (shard 7)
  // with a delay below the lookahead: the conservative horizon would be
  // unsound, so the backend must refuse.
  eng->at_node(0, time_point::at(1_us), [&] {
    try {
      eng->at_node(31, eng->now() + kLookahead / 2, [] {});
    } catch (const hades::invariant_violation&) {
      threw = true;
    }
  });
  eng->run();
  EXPECT_TRUE(threw);
}

// --- full-system equivalence -------------------------------------------------
//
// The same HADES deployment (8 nodes, reliable broadcast under load) run on
// the single-engine backend and on the sharded backend (4 groups, serial
// rounds) must produce bit-identical per-node delivery traces: the network
// draws per-source streams and schedules deliveries with at_node, so no
// observable depends on the backend's internal event interleaving.

core::system::config system_cfg(std::size_t shards) {
  core::system::config cfg;
  cfg.costs = core::cost_model::zero();
  cfg.kernel_background = false;
  cfg.net.delta_min = 20_us;
  cfg.net.delta_max = 60_us;
  cfg.net.per_byte = 8_ns;
  if (shards > 0) {
    cfg.runtime.backend = "sharded";
    cfg.runtime.shards = shards;
  }
  return cfg;
}

std::vector<std::vector<std::pair<node_id, std::uint64_t>>> broadcast_storm(
    std::size_t shards, bool total_order) {
  constexpr std::size_t n_nodes = 8;
  core::system sys(n_nodes, system_cfg(shards));
  svc::reliable_broadcast::params p;
  p.total_order = total_order;
  p.stability_delay = 500_us;
  svc::reliable_broadcast bcast(sys, p);
  for (int i = 0; i < 24; ++i) {
    const auto origin = static_cast<node_id>((i * 5) % n_nodes);
    sys.engine().at_node(origin,
                         time_point::at(duration::microseconds(40 * i + 7)),
                         [&bcast, origin, i] { bcast.broadcast(origin, i); });
  }
  sys.run_for(50_ms);
  std::vector<std::vector<std::pair<node_id, std::uint64_t>>> logs;
  for (node_id n = 0; n < n_nodes; ++n) {
    const auto l = bcast.delivery_log(n);
    logs.emplace_back(l.begin(), l.end());
  }
  return logs;
}

TEST(ShardedSystemTest, BroadcastStormIdenticalAcrossBackends) {
  const auto single = broadcast_storm(0, /*total_order=*/false);
  const auto sharded = broadcast_storm(4, /*total_order=*/false);
  EXPECT_EQ(single, sharded);
  // And reproducible: a second sharded run is bit-identical too.
  EXPECT_EQ(sharded, broadcast_storm(4, /*total_order=*/false));
}

TEST(ShardedSystemTest, TotalOrderStormIdenticalAcrossBackends) {
  const auto single = broadcast_storm(0, /*total_order=*/true);
  const auto sharded = broadcast_storm(4, /*total_order=*/true);
  EXPECT_EQ(single, sharded);
  for (std::size_t n = 1; n < sharded.size(); ++n)
    EXPECT_EQ(sharded[0], sharded[n]) << "total order broken at node " << n;
}

}  // namespace
}  // namespace hades
