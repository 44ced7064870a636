// Event-core throughput and scaling of the pooled `sim::engine`: slab slots,
// a 4-ary heap of 24-byte records, generation-counted ids and a
// same-instant lane (see DESIGN.md, "Event pool").
//
// Workloads:
//   * churn — a standing population of armed timeout timers, each op
//     cancelling and re-arming one while simulated time creeps forward so a
//     slice of timers genuinely fires. This is the fingerprint of the
//     dispatcher (latest-start and completion timers torn down on every
//     preemption) and of reliable_comm's retransmission timers. It runs at
//     16,384 and at 1,024 standing timers, interleaved, best of 3; the gate
//     is the ratio of their per-op costs. A heap op grows with log n, and
//     the stale-record purge is paid once per standing population, so 16x
//     the timers costs each op well under 3x.
//   * same-instant — zero-delay chains over a heap of far-future timers,
//     each link scheduling its successor at now(): the shape of a frame
//     under a zero-cost model, whose net_mngt step and NIC interrupt are
//     both dated now(). The engine runs these from its same-instant lane,
//     so its ready heap must not grow while they run; that count is the
//     gate, the rate is printed beside it.
//
// Usage: bench_engine [--smoke] [--json PATH]
//   --smoke       100k churn ops and events instead of 1M (CI compile check)
//   --json PATH   write machine-readable BENCH_engine results to PATH
// Exits non-zero when churn's ns/op at 16,384 standing timers exceeds
// kMaxChurnScaling times its ns/op at 1,024, or whenever a same-instant link
// entered the heap.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/json_out.hpp"
#include "sim/engine.hpp"

using namespace hades;
using namespace hades::literals;

namespace {

constexpr std::size_t kStanding = 16 * 1024;
constexpr std::size_t kSmallStanding = 1024;
constexpr int kReps = 3;

// Bound on churn's ns/op at kStanding over its ns/op at kSmallStanding.
// Measured 1.29–1.49 at 1M ops and 1.75–1.80 under --smoke on an idle host
// (RelWithDebInfo, GCC 12.2, 4 vCPUs), and 1.14–1.67 and 1.73–2.20 beside
// one busy loop per vCPU. A purge after every 65 cancels, not once per
// standing population, reads 6.5–7.2 and 9.1–9.5; a linear search of the
// heap in every cancel reads 9.8–10.6 and 12.9–13.3.
constexpr double kMaxChurnScaling = 3.0;

/// Arms `standing` timers, then times `total` re-arm ops: cancel one at
/// random, schedule its replacement 100–1000us out, advance time a little
/// every 512 ops so untouched timers expire. Only the cancel/re-arm loop
/// is on the clock. Returns ops/sec.
double churn_rate(sim::engine& e, std::size_t standing, std::size_t total) {
  std::uint64_t fired = 0;
  std::uint32_t rng = 0x9e3779b9u;
  const auto next_deadline = [&rng] {
    rng = rng * 1664525u + 1013904223u;
    return duration::microseconds(100 + (rng >> 8) % 900);
  };
  std::vector<sim::event_id> timers;
  timers.reserve(standing);
  for (std::size_t s = 0; s < standing; ++s)
    timers.push_back(e.after(next_deadline(), [&fired] { ++fired; }));
  const auto t0 = std::chrono::steady_clock::now();
  std::size_t ops = 0;
  while (ops < total) {
    for (int k = 0; k < 512 && ops < total; ++k, ++ops) {
      rng = rng * 1664525u + 1013904223u;
      auto& t = timers[rng % standing];
      e.cancel(t);
      t = e.after(next_deadline(), [&fired] { ++fired; });
    }
    e.run_until(e.now() + 5_us);  // a slice of surviving timers expires
  }
  const std::chrono::duration<double> dt =
      std::chrono::steady_clock::now() - t0;
  e.run();  // drain the tail
  if (fired == 0) std::puts("?");  // keep the callbacks observable
  return static_cast<double>(ops) / dt.count();
}

/// One link of a zero-delay chain: counts itself, schedules its successor
/// at now() and records the ready heap's size once it has.
struct chain_link {
  sim::engine* e;
  std::uint64_t* fired;
  std::size_t* heap_peak;
  int left;
  void operator()() {
    ++*fired;
    if (left > 1) e->at(e->now(), chain_link{e, fired, heap_peak, left - 1});
    *heap_peak = std::max(*heap_peak, e->pool().heap_records);
  }
};

/// `total` events in 8-link zero-delay chains, one chain started every
/// microsecond, over 16k armed timers dated far beyond the run. Returns
/// events/sec; `heap_peak` receives the heap's largest size seen inside a
/// link.
double same_instant_rate(sim::engine& e, std::size_t total,
                         std::size_t& heap_peak) {
  constexpr int links = 8;
  for (std::size_t s = 0; s < kStanding; ++s)
    e.after(duration::seconds(1000) +
                duration::nanoseconds(static_cast<std::int64_t>(s)),
            [] {});
  std::uint64_t fired = 0;
  const auto t0 = std::chrono::steady_clock::now();
  while (fired < total) {
    e.after(1_us, chain_link{&e, &fired, &heap_peak, links});
    e.run_until(e.now() + 1_us);
  }
  const std::chrono::duration<double> dt =
      std::chrono::steady_clock::now() - t0;
  return static_cast<double>(fired) / dt.count();
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t total = 1'000'000;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) total = 100'000;
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc)
      json_path = argv[++i];
  }

  std::printf("event-core throughput, %zu-op schedule/cancel churn, best of "
              "%d interleaved reps\n",
              total, kReps);

  // Interleaved best-of-N: wall time on a shared machine is noisy in one
  // direction only, so each population keeps its fastest rep, and
  // alternating them spreads transient noise over both.
  double churn = 0;
  double churn_small = 0;
  sim::engine::pool_stats pool;
  for (int rep = 0; rep < kReps; ++rep) {
    sim::engine big;
    churn = std::max(churn, churn_rate(big, kStanding, total));
    pool = big.pool();
    sim::engine small;
    churn_small =
        std::max(churn_small, churn_rate(small, kSmallStanding, total));
  }
  const double churn_scaling = churn_small / churn;  // ns/op big over small
  std::printf("  churn     %5zu standing %12.0f ops/s\n", kStanding, churn);
  std::printf("  churn     %5zu standing %12.0f ops/s\n", kSmallStanding,
              churn_small);
  std::printf("  churn ns/op scaling %zu/%zu standing: %.2fx (bound %.1fx)\n",
              kStanding, kSmallStanding, churn_scaling, kMaxChurnScaling);
  std::printf(
      "  engine footprint at %zu standing: %zu slab(s), %zu slots, %zu heap "
      "records, %zu compactions\n",
      kStanding, pool.slabs, pool.slots, pool.heap_records, pool.compactions);

  sim::engine chains;
  std::size_t heap_peak = 0;
  const double same = same_instant_rate(chains, total, heap_peak);
  const std::size_t standing = chains.pool().heap_records;
  const std::size_t heap_growth = heap_peak > standing ? heap_peak - standing : 0;
  std::printf("  same-inst %12.0f ev/s\n", same);
  std::printf("  heap during chains: %zu standing, peak %zu\n", standing,
              heap_peak);

  if (!json_path.empty()) {
    json::doc json;
    json.str("bench", "engine");
    hades::bench::stamp(json, 0, 1);  // engine-level: no node workload
    json.num("events", static_cast<std::uint64_t>(total));
    json.num("churn_events_per_sec", churn);
    json.num("churn_scaling", churn_scaling);
    json.num("same_instant_events_per_sec", same);
    json.num("same_instant_heap_growth",
             static_cast<std::uint64_t>(heap_growth));
    if (!json.write(json_path)) return 1;
  }
  if (heap_growth > 0) {
    std::printf("FAIL: same-instant links grew the ready heap by %zu\n",
                heap_growth);
    return 1;
  }
  if (churn_scaling > kMaxChurnScaling) {
    std::printf("FAIL: churn ns/op at %zu standing is %.2fx its cost at %zu "
                "(bound %.1fx)\n",
                kStanding, churn_scaling, kSmallStanding, kMaxChurnScaling);
    return 1;
  }
  return 0;
}
