// Wire fast-path cost of the shipped `sim::network` (DESIGN.md, "Wire fast
// path"): slab-pooled refcounted payloads, dense destination-indexed
// vectors, a flat handler table, and fault state kept as date-keyed
// timelines that each send binary-searches at its own date.
//
// Workloads, interleaved best of 3:
//   * broadcast churn — 8 nodes, fault-free, every node fans one 64-byte
//     envelope out to the other 7 each round. The steady-state phase runs
//     under a global operator-new counter and must perform ZERO heap
//     allocations per message, and the payload pool must not grow (hard
//     assertions, any mode).
//   * long plan — the same churn with 1000 pre-registered omission-rate
//     edges. Every send reads the rate at its date; the binary search keeps
//     that O(log plan), so the per-message cost may be at most
//     kMaxLongPlanRatio times the no-plan cost (a linear scan reads ~3.5x).
//
// Usage: bench_wire [--smoke] [--json PATH]
//   --smoke       ~10x fewer rounds (CI compile/perf-path check)
//   --json PATH   write machine-readable BENCH_wire results to PATH
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench/alloc_count.hpp"
#include "bench/json_out.hpp"
#include "bench/table.hpp"
#include "sim/engine.hpp"
#include "sim/network.hpp"

using namespace hades;
using namespace hades::literals;

namespace {

constexpr std::size_t kNodes = 8;

// Modeled on what the services broadcast per message: a reliable-broadcast
// envelope (origin, seq, sent_at, size, payload words) is ~64 bytes.
struct churn_payload {
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  std::uint64_t c = 0;
  std::uint64_t body[5] = {};
};

sim::network::params wire_params() {
  sim::network::params p;
  p.delta_min = 10_us;
  p.delta_max = 50_us;
  p.per_byte = 0_ns;
  return p;
}

struct run_result {
  double wall_s = 0;
  std::uint64_t messages = 0;
  std::uint64_t allocs = 0;
  std::uint64_t checksum = 0;
};

/// Broadcast churn. One round = every node fans a pooled 64-byte payload out
/// to the other 7; the engine drains between rounds. `toggles` no-op
/// omission-rate edges are registered first, all dated before the sends.
run_result run_broadcast(std::size_t rounds, std::size_t toggles) {
  sim::engine e;
  sim::network net(e, wire_params(), 42);
  net.reserve_nodes(kNodes);
  std::uint64_t checksum = 0;
  for (node_id n = 0; n < kNodes; ++n)
    net.attach(n, [&checksum, n](const sim::message& m) {
      checksum += n ^ m.payload.get<churn_payload>()->a;
    });
  for (std::size_t i = 0; i < toggles; ++i)
    net.set_omission_rate_at(
        time_point::at(1_ns * static_cast<std::int64_t>(i)), 0.0);
  auto round = [&](std::uint64_t i) {
    for (node_id src = 0; src < kNodes; ++src)
      net.fan_out(src, 1, churn_payload{i, i ^ 7, i * 3, {}}, 64);
    e.run();
  };
  for (std::uint64_t i = 0; i < 64; ++i) round(i);  // warm pools and slabs
  const std::uint64_t allocs_before = alloc_count::calls();
  const auto stats_before = sim::wire_payload::stats();
  const auto t0 = std::chrono::steady_clock::now();
  for (std::uint64_t i = 0; i < rounds; ++i) round(i);
  const std::chrono::duration<double> dt =
      std::chrono::steady_clock::now() - t0;
  run_result r;
  r.wall_s = dt.count();
  r.messages = rounds * kNodes * (kNodes - 1);
  r.allocs = alloc_count::calls() - allocs_before;
  r.checksum = checksum;
  const auto stats_after = sim::wire_payload::stats();
  if (stats_after.chunk_allocs != stats_before.chunk_allocs ||
      stats_after.oversize_allocs != stats_before.oversize_allocs) {
    std::printf("FAIL: payload pool grew during steady state\n");
    std::exit(1);
  }
  return r;
}

constexpr int kReps = 3;

// Bound on ns/msg under the 1000-edge plan over ns/msg with no plan.
// Measured 1.09–1.12 at full length and 1.09–1.11 under --smoke on an idle
// host (RelWithDebInfo, GCC 12.2, 4 vCPUs), and 0.80–1.09 and 1.07–1.17
// beside one busy loop per vCPU. A linear timeline scan reads 3.4–3.7.
constexpr double kMaxLongPlanRatio = 1.5;

/// Keep the fastest rep's timing and the WORST rep's allocation count (the
/// zero-allocation gate must hold in every rep, not just the kept one).
void keep_best(run_result& best, const run_result& r) {
  const std::uint64_t allocs = std::max(best.allocs, r.allocs);
  if (best.messages == 0 || r.wall_s < best.wall_s) best = r;
  best.allocs = allocs;
}

double mps(const run_result& r) {
  return r.wall_s > 0 ? static_cast<double>(r.messages) / r.wall_s : 0;
}
double ns_per_msg(const run_result& r) {
  return r.messages > 0 ? r.wall_s * 1e9 / static_cast<double>(r.messages) : 0;
}
double allocs_per_msg(const run_result& r) {
  return r.messages > 0
             ? static_cast<double>(r.allocs) / static_cast<double>(r.messages)
             : 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t rounds = 20'000;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) rounds = 2'000;
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc)
      json_path = argv[++i];
  }

  std::printf("wire fast path: %zu-node fault-free 64-byte broadcast churn, "
              "%zu rounds (%zu messages), best of %d interleaved reps\n",
              kNodes, rounds, rounds * kNodes * (kNodes - 1), kReps);

  // Interleaved best-of-N: wall time on a shared machine is noisy in one
  // direction only, so each workload keeps its fastest rep; the allocation
  // count is accumulated across every rep (the zero gate must hold in all
  // of them). Alternating the workloads, each as long as the other, spreads
  // transient noise over both.
  run_result churn, plan;
  for (int rep = 0; rep < kReps; ++rep) {
    keep_best(churn, run_broadcast(rounds, 0));
    keep_best(plan, run_broadcast(rounds, 1'000));
  }

  bench::table t({"workload", "msgs/s", "ns/msg", "allocs/msg"});
  t.row({"broadcast churn", bench::fmt(mps(churn), 0),
         bench::fmt(ns_per_msg(churn), 1),
         bench::fmt(allocs_per_msg(churn), 3)});
  t.row({"1000-edge plan", bench::fmt(mps(plan), 0),
         bench::fmt(ns_per_msg(plan), 1), bench::fmt(allocs_per_msg(plan), 3)});
  t.print("wire fast path");

  const double long_plan_ratio = ns_per_msg(plan) / ns_per_msg(churn);
  std::printf("\n  long-plan ns/msg ratio %.2fx (bound %.1fx)\n",
              long_plan_ratio, kMaxLongPlanRatio);

  if (!json_path.empty()) {
    json::doc j;
    j.str("bench", "wire");
    bench::stamp(j, kNodes, 1);
    j.num("messages", churn.messages);
    j.num("msgs_per_sec", mps(churn));
    j.num("ns_per_msg", ns_per_msg(churn));
    j.num("allocs_per_msg", allocs_per_msg(churn));
    j.num("long_plan_ns_per_msg", ns_per_msg(plan));
    j.num("long_plan_ratio", long_plan_ratio);
    if (!j.write(json_path)) return 1;
  }

  // Hard gate, any mode: the steady state must allocate nothing at all.
  if (churn.allocs != 0) {
    std::printf("FAIL: the wire performed %llu heap allocations in the "
                "steady-state phase (expected 0)\n",
                static_cast<unsigned long long>(churn.allocs));
    return 1;
  }
  std::printf("  steady-state heap allocations: 0\n");
  if (long_plan_ratio > kMaxLongPlanRatio) {
    std::printf("FAIL: ns/msg under the 1000-edge plan is %.2fx the no-plan "
                "cost (bound %.1fx)\n",
                long_plan_ratio, kMaxLongPlanRatio);
    return 1;
  }
  return 0;
}
