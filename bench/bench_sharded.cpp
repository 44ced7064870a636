// Sharded multi-engine backend throughput: 1/2/4/8 shards on a
// low-coupling multi-group workload (DESIGN.md, "Sharded backend").
//
// Workload: 64 nodes in `shards` groups. Every node runs a self-
// rescheduling handler that burns a few hundred nanoseconds of CPU (the
// stand-in for dispatcher/service work) and re-arms 2-25us out; every 32nd
// firing sends a cross-group event at lookahead-plus-jitter delay (~3%
// cross traffic). Handlers touch only their own node's state.
//
// Shards advance in serial rounds on one thread, so the numbers measure
// what partitioning costs: wall-clock events/sec and throughput relative
// to the 1-shard run, per-shard load balance, and the cross-shard outbox
// traffic. The workload checksum must be identical across every
// configuration — the determinism guarantee, checked on every run.
//
// A second, *full-system* workload checks the shard-confinement story end
// to end (DESIGN.md, "Shard confinement"): a real `core::system`
// deployment — fault detector heartbeats, Delta-ordered reliable broadcast
// with flood relays, per-delivery application burn — run on the single
// engine and on 1/2/4/8/16 shards. Every point's observable checksum must
// equal the single-engine reference; each reports events/sec relative to
// the single engine and its cross-shard traffic.
//
// A third, *scale-curve* workload measures how the full system scales in
// node count (DESIGN.md, "Scalable topology layer"): hierarchical fault
// detection (clusters of 50), clustered clock sync, and spanning-tree
// Delta-ordered broadcast from 8 spread origins, run at 256/1k/4k/10k
// nodes on 4 shards. Peak live heap comes from the counting allocator
// (bench/alloc_count.hpp), and the per-point bytes/node is the number the
// CI scaling gate holds: `--require-scaling` fails unless bytes/node at 1k
// stays under a fixed ceiling, bytes/node at 10k stays within 2x of the 1k
// point, and the 10k point still clears a throughput floor.
//
// Usage: bench_sharded [--smoke] [--json PATH] [--scale-curve] [--nodes N]
//                      [--require-scaling]
//   --smoke           ~20x fewer events (CI compile/perf-path check)
//   --json PATH       write machine-readable BENCH_sharded results to PATH
//   --scale-curve     run ONLY the node-count scaling curve (256/1k/4k/10k;
//                     256/1k under --smoke)
//   --nodes N         run ONLY one ad-hoc scale point at N nodes
//   --require-scaling run the full curve and exit non-zero unless
//                     bytes/node(1k) <= kMaxBytesPerNode1k,
//                     bytes/node(10k) <= 2x bytes/node(1k) and the 10k
//                     point sustains >= 50k events/s
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench/alloc_count.hpp"
#include "bench/json_out.hpp"
#include "core/system.hpp"
#include "services/clock_sync.hpp"
#include "services/fault_detector.hpp"
#include "services/reliable_comm.hpp"
#include "sim/sharded_engine.hpp"

using namespace hades;
using namespace hades::literals;

namespace {

// A generous lookahead keeps the conservative rounds coarse: ~60 events
// per shard per round at 8 shards, so the per-round bookkeeping stays well
// below the handler work it fences.
constexpr std::size_t kNodes = 64;
constexpr duration kLookahead = duration::microseconds(100);

struct alignas(64) node_state {
  std::uint64_t fired = 0;
  std::uint64_t hash = 0x9E3779B97F4A7C15ull;
};

struct bench_result {
  double wall_s = 0;
  std::uint64_t events = 0;
  std::uint64_t checksum = 0;
  double balance = 1.0;     // max/mean per-shard events
  std::uint64_t cross = 0;  // events routed through a cross-shard outbox
};

// Roughly a microsecond of real work, the handler-cost stand-in.
inline std::uint64_t spin(std::uint64_t h) {
  for (int i = 0; i < 400; ++i) h = (h ^ (h >> 29)) * 0xBF58476D1CE4E5B9ull;
  return h;
}

struct node_driver {
  runtime* rt = nullptr;
  node_state* st = nullptr;
  std::vector<node_state>* all = nullptr;
  node_id n = 0;

  void fire() {
    ++st->fired;
    st->hash = spin(st->hash + rt->now().since_epoch().count());
    if (st->fired % 32 == 0) {
      // Cross-group hop: the destination's handler mixes into the
      // destination's own state, on the destination's shard.
      const auto dst = static_cast<node_id>((n + kNodes / 2 + 1) % kNodes);
      const duration delay =
          kLookahead + duration::nanoseconds(
                           static_cast<std::int64_t>(st->hash % 5000));
      node_state* ds = &(*all)[dst];
      rt->at_node(dst, rt->now() + delay, [rt = rt, ds] {
        ++ds->fired;
        ds->hash = spin(ds->hash ^ rt->now().since_epoch().count());
      });
    }
    const duration next = duration::nanoseconds(
        2000 + static_cast<std::int64_t>(st->hash % 23000));
    rt->at_node(n, rt->now() + next, [this] { fire(); });
  }
};

bench_result run_config(std::size_t shards, duration horizon) {
  sim::sharded_params p;
  p.shards = shards;
  p.lookahead = kLookahead;
  p.node_shard.resize(kNodes);
  for (std::size_t n = 0; n < kNodes; ++n)
    p.node_shard[n] = static_cast<std::uint32_t>(n * shards / kNodes);
  sim::sharded_engine eng(p);

  std::vector<node_state> state(kNodes);
  std::vector<node_driver> drivers(kNodes);
  for (node_id n = 0; n < kNodes; ++n) {
    drivers[n] = node_driver{&eng, &state[n], &state, n};
    eng.at_node(n, time_point::at(duration::nanoseconds(137 * (n + 1))),
                [d = &drivers[n]] { d->fire(); });
  }

  const auto t0 = std::chrono::steady_clock::now();
  eng.run_until(time_point::at(horizon));
  const std::chrono::duration<double> dt =
      std::chrono::steady_clock::now() - t0;

  bench_result r;
  r.wall_s = dt.count();
  r.events = eng.executed();
  for (const node_state& s : state) r.checksum ^= s.hash + s.fired;
  const auto st = eng.stats();
  std::uint64_t mx = 0, total = 0;
  for (std::uint64_t e : st.executed_per_shard) {
    mx = std::max(mx, e);
    total += e;
  }
  if (mx > 0)
    r.balance = static_cast<double>(mx) * static_cast<double>(shards) /
                static_cast<double>(total);
  r.cross = st.cross_events;
  return r;
}

// --- full-system workload ----------------------------------------------------

constexpr std::size_t kSysNodes = 32;

struct alignas(64) app_state {
  std::uint64_t delivered = 0;
  std::uint64_t hash = 0x9E3779B97F4A7C15ull;
};

/// `shards == 0` runs the single engine.
bench_result run_full_system(std::size_t shards, duration horizon) {
  using namespace hades::literals;
  core::system::config cfg;
  cfg.costs = core::cost_model::zero();
  cfg.kernel_background = false;
  cfg.tracing = false;
  cfg.seed = 7;
  cfg.net.delta_min = 50_us;  // generous lookahead keeps rounds coarse
  cfg.net.delta_max = 150_us;
  cfg.net.per_byte = 0_ns;
  if (shards > 0) {
    cfg.runtime.backend = "sharded";
    cfg.runtime.shards = shards;
  }
  core::system sys(kSysNodes, cfg);

  svc::fault_detector fd(sys, {5_ms, 18_ms});
  svc::reliable_broadcast::params bp;
  bp.total_order = true;
  bp.stability_delay = 2_ms;
  svc::reliable_broadcast bcast(sys, bp);

  // Per-delivery application burn on the delivering node's shard: the
  // handler-cost stand-in.
  std::vector<app_state> state(kSysNodes);
  for (node_id n = 0; n < kSysNodes; ++n)
    bcast.on_deliver(n, [&sys, st = &state[n]](
                            const svc::reliable_broadcast::bcast_msg& m) {
      ++st->delivered;
      st->hash = spin(st->hash ^ (static_cast<std::uint64_t>(m.origin) << 32) ^
                      m.seq ^
                      static_cast<std::uint64_t>(sys.now().nanoseconds()));
    });

  // Node-anchored broadcast drivers at coprime-ish periods (the campaign's
  // traffic shape, scaled up).
  for (node_id n = 0; n < kSysNodes; ++n)
    sys.engine().periodic_at_node(
        n, time_point::at(3_ms + 311_us * n + 7_us),
        9500_us + 379_us * static_cast<std::int64_t>(n), [&sys, &bcast, n] {
          if (!sys.crashed(n)) bcast.broadcast(n, static_cast<int>(n));
        });
  fd.start();

  const auto t0 = std::chrono::steady_clock::now();
  sys.run_until(time_point::at(horizon));
  const std::chrono::duration<double> dt =
      std::chrono::steady_clock::now() - t0;

  bench_result r;
  r.wall_s = dt.count();
  r.events = sys.engine().executed();
  for (const app_state& s : state) r.checksum ^= s.hash + s.delivered;
  for (node_id n = 0; n < kSysNodes; ++n) {
    r.checksum ^= 0x9E3779B97F4A7C15ull * (bcast.delivery_log(n).size() + 1);
    r.checksum ^= std::hash<std::uint64_t>{}(
        (static_cast<std::uint64_t>(n) << 32) + fd.suspects(n, (n + 1) % kSysNodes));
  }
  const auto ns = sys.network().stats();
  r.checksum ^= ns.sent * 3 + ns.delivered * 5 + ns.dropped * 7 + ns.late * 11;
  if (const auto* se =
          dynamic_cast<const sim::sharded_engine*>(&sys.engine()))
    r.cross = se->stats().cross_events;
  return r;
}

// --- scale-curve workload ----------------------------------------------------

// Ceiling on the 1k point's peak heap per node. The counting allocator
// makes the figure exact for a build: 7,171 bytes/node with GCC 12 and
// libstdc++ (one channel table and one cost model per system, FIFO-floor-
// only link state, 24-byte dedup windows), plus 10%.
constexpr double kMaxBytesPerNode1k = 7888;

struct scale_result {
  double wall_s = 0;
  std::uint64_t events = 0;
  std::uint64_t peak_bytes = 0;  // peak live heap above the pre-run baseline
  std::uint64_t checksum = 0;
};

// One full-system point of the node-count scaling curve: hierarchical
// detector + clustered clock sync (clusters of 50) + tree-diffusion
// Delta-ordered broadcast from 8 spread origins, on 4 shards.
// Delivery logs are off (unbounded by design, they would dominate the
// memory number); the suspicion oracle is wired so re-parenting is on the
// path even though no faults are injected here.
scale_result run_scale_point(std::size_t nodes, duration horizon) {
  const std::uint64_t baseline = alloc_count::live_bytes();
  alloc_count::reset_peak();

  scale_result r;
  {
    core::system::config cfg;
    cfg.costs = core::cost_model::zero();
    cfg.kernel_background = false;
    cfg.tracing = false;
    cfg.seed = 11;
    cfg.net.delta_min = 20_us;
    cfg.net.delta_max = 60_us;
    cfg.net.per_byte = 0_ns;
    cfg.runtime.backend = "sharded";
    cfg.runtime.shards = 4;
    core::system sys(nodes, cfg);

    svc::fault_detector fd(sys, {10_ms, 35_ms, 50});
    svc::reliable_broadcast::params bp;
    bp.total_order = true;
    bp.stability_delay = 2_ms;
    bp.record_deliveries = false;
    bp.diffusion = svc::reliable_broadcast::diffusion_kind::tree;
    svc::reliable_broadcast bcast(sys, bp);
    bcast.set_suspicion_oracle(
        [&fd](node_id o, node_id s) { return fd.suspects(o, s); });
    svc::clock_sync_service::params sp;
    sp.cluster_size = 50;
    sp.max_faulty = 1;
    svc::clock_sync_service clocks(sys, sp);

    std::vector<app_state> state(nodes);
    for (node_id n = 0; n < nodes; ++n)
      bcast.on_deliver(n, [st = &state[n]](
                              const svc::reliable_broadcast::bcast_msg& m) {
        ++st->delivered;
        st->hash = (st->hash ^ (static_cast<std::uint64_t>(m.origin) << 32) ^
                    m.seq) *
                   0xBF58476D1CE4E5B9ull;
      });

    constexpr std::size_t kOrigins = 8;
    for (std::size_t i = 0; i < kOrigins && i < nodes; ++i) {
      const node_id n = static_cast<node_id>(i * nodes / kOrigins);
      sys.engine().periodic_at_node(
          n, time_point::at(20_ms + 413_us * i + 7_us),
          9500_us + 613_us * static_cast<std::int64_t>(i),
          [&sys, &bcast, n] {
            if (!sys.crashed(n)) bcast.broadcast(n, static_cast<int>(n));
          });
    }
    fd.start();
    clocks.start();

    const auto t0 = std::chrono::steady_clock::now();
    sys.run_until(time_point::at(horizon));
    const std::chrono::duration<double> dt =
        std::chrono::steady_clock::now() - t0;

    r.wall_s = dt.count();
    r.events = sys.engine().executed();
    for (const app_state& s : state) r.checksum ^= s.hash + s.delivered;
    r.checksum ^= fd.heartbeats_sent() * 3 + bcast.delivered() * 5 +
                  clocks.rounds_completed() * 7;
    const auto ns = sys.network().stats();
    r.checksum ^= ns.sent * 13 + ns.delivered * 17;
    // Read the peak while the system is still alive: it is the high-water
    // mark of system + services + in-flight events over the whole run.
    const std::uint64_t peak = alloc_count::peak_bytes();
    r.peak_bytes = peak > baseline ? peak - baseline : 0;
  }
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  duration horizon = duration::milliseconds(400);
  bool smoke = false;
  bool scale_curve = false;
  bool require_scaling = false;
  std::size_t scale_nodes = 0;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
      horizon = duration::milliseconds(20);
    }
    if (std::strcmp(argv[i], "--scale-curve") == 0) scale_curve = true;
    if (std::strcmp(argv[i], "--require-scaling") == 0) require_scaling = true;
    if (std::strcmp(argv[i], "--nodes") == 0 && i + 1 < argc) {
      scale_nodes = static_cast<std::size_t>(std::strtoull(argv[++i], nullptr, 10));
      if (scale_nodes == 0) {
        std::fprintf(stderr, "bench_sharded: --nodes needs a count >= 1\n");
        return 2;
      }
    }
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc)
      json_path = argv[++i];
  }
  json::doc json;
  json.str("bench", "sharded");

  if (scale_curve || require_scaling || scale_nodes > 0) {
    std::vector<std::size_t> points;
    if (scale_nodes > 0)
      points.push_back(scale_nodes);
    else if (smoke && !require_scaling)
      points = {256, 1000};
    else
      points = {256, 1000, 4000, 10000};
    const duration sc_horizon = smoke && !require_scaling
                                    ? duration::milliseconds(120)
                                    : duration::milliseconds(300);
    hades::bench::stamp(json, points.back(), 4);
    std::printf(
        "node-count scale curve: hierarchical detector (clusters of 50) + "
        "clustered clock sync + tree broadcast, 4 shards, %lld ms horizon\n",
        static_cast<long long>(sc_horizon.count() / 1000000));
    double bpn_1k = 0, bpn_10k = 0, evs_10k = 0;
    for (std::size_t n : points) {
      const scale_result r = run_scale_point(n, sc_horizon);
      const double bpn =
          n > 0 ? static_cast<double>(r.peak_bytes) / static_cast<double>(n)
                : 0.0;
      const double evs =
          r.wall_s > 0 ? static_cast<double>(r.events) / r.wall_s : 0.0;
      std::printf(
          "  %6zu nodes: %9.0f ev/s  (%9llu events, %6.3fs)  peak heap "
          "%7.1f MiB  %8.0f bytes/node\n",
          n, evs, static_cast<unsigned long long>(r.events), r.wall_s,
          static_cast<double>(r.peak_bytes) / (1024.0 * 1024.0), bpn);
      const std::string suffix = std::to_string(n);
      json.num("scale_events_per_sec_" + suffix, evs);
      json.num("scale_bytes_per_node_" + suffix, bpn);
      json.num("scale_peak_heap_bytes_" + suffix, r.peak_bytes);
      if (n == 1000) bpn_1k = bpn;
      if (n == 10000) {
        bpn_10k = bpn;
        evs_10k = evs;
      }
    }
    if (!json_path.empty() && !json.write(json_path)) return 1;
    if (require_scaling) {
      if (bpn_1k <= 0 || bpn_10k <= 0) {
        std::printf("FAIL: scaling gate needs both the 1k and 10k points\n");
        return 1;
      }
      if (bpn_1k > kMaxBytesPerNode1k) {
        std::printf("FAIL: %.0f bytes/node at 1k exceeds the %.0f ceiling\n",
                    bpn_1k, kMaxBytesPerNode1k);
        return 1;
      }
      if (bpn_10k > 2.0 * bpn_1k) {
        std::printf(
            "FAIL: memory per node grew superlinearly: %.0f bytes/node at "
            "10k vs %.0f at 1k (> 2x)\n",
            bpn_10k, bpn_1k);
        return 1;
      }
      if (evs_10k < 50000.0) {
        std::printf("FAIL: 10k-node throughput %.0f ev/s below the 50k "
                    "floor\n",
                    evs_10k);
        return 1;
      }
      std::printf(
          "scaling gate OK: %.0f bytes/node at 1k (<= %.0f), %.2fx "
          "bytes/node 1k->10k (<= 2x), %.0f ev/s at 10k (>= 50k)\n",
          bpn_1k, kMaxBytesPerNode1k, bpn_10k / bpn_1k, evs_10k);
    }
    return 0;
  }
  constexpr std::size_t kMaxSysShards = 16;
  hades::bench::stamp(json, kSysNodes, kMaxSysShards);

  std::printf(
      "sharded-engine throughput, %zu nodes, ~3%% cross-shard traffic, "
      "serial rounds\n",
      kNodes);

  const std::size_t configs[] = {1, 2, 4, 8};
  bench_result base;
  for (std::size_t shards : configs) {
    const bench_result r = run_config(shards, horizon);
    if (shards == 1) base = r;
    const double evs = static_cast<double>(r.events) / r.wall_s;
    const double relative =
        evs / (static_cast<double>(base.events) / base.wall_s);
    json.num("events_per_sec_" + std::to_string(shards) + "shard", evs);
    std::printf(
        "  %zu shard(s): %9.0f ev/s  (%7llu events, %.3fs)  %.2fx of 1 "
        "shard  balance %.2f  cross %llu\n",
        shards, evs, static_cast<unsigned long long>(r.events), r.wall_s,
        relative, r.balance, static_cast<unsigned long long>(r.cross));
    if (r.checksum != base.checksum) {
      std::printf("FAIL: checksum mismatch at %zu shards — determinism "
                  "broken (%llx vs %llx)\n",
                  shards, static_cast<unsigned long long>(r.checksum),
                  static_cast<unsigned long long>(base.checksum));
      return 1;
    }
  }
  std::printf("  checksums identical across all configurations\n");

  // --- full-system cross-shard checksum gate --------------------------------
  // The same core::system deployment on the single engine (the reference)
  // and on 1..16 shards: every point's checksum must equal the reference.
  const duration sys_horizon = horizon == duration::milliseconds(400)
                                   ? duration::milliseconds(400)
                                   : duration::milliseconds(60);
  std::printf(
      "\nfull system: %zu-node core::system, heartbeats + Delta-ordered "
      "broadcast + per-delivery burn\n",
      kSysNodes);
  const std::size_t sys_shards[] = {0, 1, 2, 4, 8, kMaxSysShards};
  bench_result sys_base;
  for (const std::size_t shards : sys_shards) {
    const bench_result r = run_full_system(shards, sys_horizon);
    if (shards == 0) sys_base = r;
    const double evs = static_cast<double>(r.events) / r.wall_s;
    const double relative =
        evs / (static_cast<double>(sys_base.events) / sys_base.wall_s);
    const std::string label =
        shards == 0 ? "single engine" : std::to_string(shards) + " shards";
    if (shards == 0) {
      json.num("full_system_events_per_sec_single_engine", evs);
    } else {
      json.num("full_system_events_per_sec_" + std::to_string(shards) +
                   "shards",
               evs);
      json.num("full_system_relative_" + std::to_string(shards) + "shards",
               relative);
    }
    std::printf("  %-14s %9.0f ev/s  (%7llu events, %.3fs)", label.c_str(),
                evs, static_cast<unsigned long long>(r.events), r.wall_s);
    if (shards > 0)
      std::printf("  %.2fx of single engine  cross %llu", relative,
                  static_cast<unsigned long long>(r.cross));
    std::printf("\n");
    if (r.checksum != sys_base.checksum) {
      std::printf("FAIL: full-system checksum mismatch at %s — shard "
                  "confinement broken (%llx vs %llx)\n",
                  label.c_str(), static_cast<unsigned long long>(r.checksum),
                  static_cast<unsigned long long>(sys_base.checksum));
      return 1;
    }
  }
  std::printf("  full-system checksums identical across all configurations\n");

  if (!json_path.empty() && !json.write(json_path)) return 1;
  return 0;
}
