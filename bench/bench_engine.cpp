// Event-core throughput: pooled engine vs the seed design.
//
// `legacy_engine` below reproduces the pre-refactor `sim::engine` exactly:
// a heap-allocating std::function per event, a std::priority_queue of fat
// entries, and two unordered_sets tracking pending and cancelled ids. The
// pooled engine replaces all of that with slab slots, a 4-ary heap of
// 24-byte records, and generation-counted ids (see DESIGN.md).
//
// Workloads:
//   * churn — a standing population of armed timeout timers, each op
//     cancelling and re-arming one while simulated time creeps forward so a
//     slice of timers genuinely fires. This is the fingerprint of the
//     dispatcher (latest-start and completion timers torn down on every
//     preemption) and of reliable_comm's retransmission timers.
//   * same-instant — zero-delay chains over a heap of far-future timers,
//     each link scheduling its successor at now(): the shape of a frame
//     under a zero-cost model, whose net_mngt step and NIC interrupt are
//     both dated now(). The pooled engine runs these from its same-instant
//     lane, so its ready heap must not grow while they run; that count is
//     the gate, the rates are printed beside it.
//
// Usage: bench_engine [--smoke] [--require-2x] [--json PATH]
//   --smoke       100k events instead of 1M (CI compile/perf-path check)
//   --require-2x  exit non-zero unless pooled >= 2x legacy on churn
//   --json PATH   write machine-readable BENCH_engine results to PATH
// Exits non-zero whenever a same-instant link entered the pooled heap.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <queue>
#include <string>
#include <unordered_set>
#include <vector>

#include "bench/json_out.hpp"
#include "sim/engine.hpp"

using namespace hades;
using namespace hades::literals;

namespace {

// --- the seed engine, verbatim semantics ------------------------------------

class legacy_engine {
 public:
  using event_fn = std::function<void()>;
  struct event_id {
    std::uint64_t value = 0;
  };

  [[nodiscard]] time_point now() const { return now_; }

  event_id at(time_point t, event_fn fn) {
    const std::uint64_t seq = next_seq_++;
    queue_.push(entry{t, seq, std::move(fn)});
    pending_ids_.insert(seq);
    return event_id{seq};
  }

  event_id after(duration d, event_fn fn) {
    if (d.is_infinite()) return event_id{0};
    return at(now_ + d, std::move(fn));
  }

  void cancel(event_id id) {
    if (id.value == 0) return;
    if (pending_ids_.erase(id.value) > 0) cancelled_.insert(id.value);
  }

  bool step() {
    while (!queue_.empty()) {
      entry e = queue_.top();
      queue_.pop();
      if (cancelled_.erase(e.seq) > 0) continue;
      pending_ids_.erase(e.seq);
      now_ = e.t;
      ++executed_;
      e.fn();
      return true;
    }
    return false;
  }

  std::size_t run() {
    std::size_t n = 0;
    while (step()) ++n;
    return n;
  }

  std::size_t run_until(time_point t) {
    std::size_t n = 0;
    for (;;) {
      if (queue_.empty()) break;
      const entry& top = queue_.top();
      if (cancelled_.contains(top.seq)) {
        cancelled_.erase(top.seq);
        queue_.pop();
        continue;
      }
      if (top.t > t) break;
      step();
      ++n;
    }
    if (!t.is_infinite() && t > now_) now_ = t;
    return n;
  }

  [[nodiscard]] std::uint64_t executed() const { return executed_; }

 private:
  struct entry {
    time_point t;
    std::uint64_t seq;
    event_fn fn;
  };
  struct later {
    bool operator()(const entry& a, const entry& b) const {
      if (a.t != b.t) return a.t > b.t;
      return a.seq > b.seq;
    }
  };

  std::priority_queue<entry, std::vector<entry>, later> queue_;
  std::unordered_set<std::uint64_t> pending_ids_;
  std::unordered_set<std::uint64_t> cancelled_;
  time_point now_ = time_point::zero();
  std::uint64_t next_seq_ = 1;
  std::uint64_t executed_ = 0;
};

// --- workloads ---------------------------------------------------------------

/// `total` re-arm ops against a standing population of 16k armed timers:
/// cancel one at random, schedule its replacement 100–1000us out, advance
/// time a little every 512 ops so untouched timers expire. Returns ops/sec.
template <typename Engine>
double churn_rate(Engine& e, std::size_t total) {
  constexpr std::size_t sessions = 16 * 1024;
  std::uint64_t fired = 0;
  std::uint32_t rng = 0x9e3779b9u;
  const auto next_deadline = [&rng] {
    rng = rng * 1664525u + 1013904223u;
    return duration::microseconds(100 + (rng >> 8) % 900);
  };
  std::vector<decltype(e.after(1_us, [] {}))> timers;
  timers.reserve(sessions);
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t s = 0; s < sessions; ++s)
    timers.push_back(e.after(next_deadline(), [&fired] { ++fired; }));
  std::size_t ops = sessions;
  while (ops < total) {
    for (int k = 0; k < 512 && ops < total; ++k, ++ops) {
      rng = rng * 1664525u + 1013904223u;
      auto& t = timers[rng % sessions];
      e.cancel(t);
      t = e.after(next_deadline(), [&fired] { ++fired; });
    }
    e.run_until(e.now() + 5_us);  // a slice of surviving timers expires
  }
  e.run();  // drain the tail
  const std::chrono::duration<double> dt =
      std::chrono::steady_clock::now() - t0;
  if (fired == 0) std::puts("?");  // keep the callbacks observable
  return static_cast<double>(ops) / dt.count();
}

/// One link of a zero-delay chain: counts itself and schedules its
/// successor at now(). On the pooled engine it also records the ready
/// heap's size once the successor is scheduled.
template <typename Engine>
struct chain_link {
  Engine* e;
  std::uint64_t* fired;
  std::size_t* heap_peak;
  int left;
  void operator()() {
    ++*fired;
    if (left > 1) e->at(e->now(), chain_link{e, fired, heap_peak, left - 1});
    if constexpr (requires(Engine& x) { x.pool(); })
      *heap_peak = std::max(*heap_peak, e->pool().heap_records);
  }
};

/// `total` events in 8-link zero-delay chains, one chain started every
/// microsecond, over 16k armed timers dated far beyond the run. Returns
/// events/sec; `heap_peak` receives the pooled heap's largest size seen
/// inside a link (untouched for an engine without pool stats).
template <typename Engine>
double same_instant_rate(Engine& e, std::size_t total,
                         std::size_t& heap_peak) {
  constexpr std::size_t standing = 16 * 1024;
  constexpr int links = 8;
  for (std::size_t s = 0; s < standing; ++s)
    e.after(duration::seconds(1000) +
                duration::nanoseconds(static_cast<std::int64_t>(s)),
            [] {});
  std::uint64_t fired = 0;
  const auto t0 = std::chrono::steady_clock::now();
  while (fired < total) {
    e.after(1_us, chain_link<Engine>{&e, &fired, &heap_peak, links});
    e.run_until(e.now() + 1_us);
  }
  const std::chrono::duration<double> dt =
      std::chrono::steady_clock::now() - t0;
  return static_cast<double>(fired) / dt.count();
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t total = 1'000'000;
  bool require_2x = false;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) total = 100'000;
    if (std::strcmp(argv[i], "--require-2x") == 0) require_2x = true;
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc)
      json_path = argv[++i];
  }

  std::printf("event-core throughput, %zu-event schedule/cancel churn\n",
              total);

  legacy_engine legacy;
  const double legacy_churn = churn_rate(legacy, total);
  sim::engine pooled;
  const double pooled_churn = churn_rate(pooled, total);
  const double churn_speedup = pooled_churn / legacy_churn;
  std::printf("  churn     legacy %12.0f ev/s   pooled %12.0f ev/s   %.2fx\n",
              legacy_churn, pooled_churn, churn_speedup);

  const auto pool = pooled.pool();
  std::printf(
      "  pooled engine footprint: %zu slab(s), %zu slots, %zu heap records, "
      "%zu compactions\n",
      pool.slabs, pool.slots, pool.heap_records, pool.compactions);

  std::size_t unused = 0;
  legacy_engine legacy_chains;
  const double legacy_same = same_instant_rate(legacy_chains, total, unused);
  sim::engine pooled_chains;
  std::size_t heap_peak = 0;
  const double pooled_same = same_instant_rate(pooled_chains, total, heap_peak);
  const std::size_t standing = pooled_chains.pool().heap_records;
  const std::size_t heap_growth = heap_peak > standing ? heap_peak - standing : 0;
  std::printf("  same-inst legacy %12.0f ev/s   pooled %12.0f ev/s   %.2fx\n",
              legacy_same, pooled_same, pooled_same / legacy_same);
  std::printf("  pooled heap during chains: %zu standing, peak %zu\n",
              standing, heap_peak);

  if (!json_path.empty()) {
    json::doc json;
    json.str("bench", "engine");
    hades::bench::stamp(json, 0, 1);  // engine-level: no node workload
    json.num("events", static_cast<std::uint64_t>(total));
    json.num("churn_events_per_sec_legacy", legacy_churn);
    json.num("churn_events_per_sec_pooled", pooled_churn);
    json.num("churn_speedup", churn_speedup);
    json.num("same_instant_events_per_sec_legacy", legacy_same);
    json.num("same_instant_events_per_sec_pooled", pooled_same);
    json.num("same_instant_heap_growth",
             static_cast<std::uint64_t>(heap_growth));
    if (!json.write(json_path)) return 1;
  }
  if (heap_growth > 0) {
    std::printf("FAIL: same-instant links grew the ready heap by %zu\n",
                heap_growth);
    return 1;
  }
  if (require_2x && churn_speedup < 2.0) {
    std::printf("FAIL: churn speedup %.2fx < 2x\n", churn_speedup);
    return 1;
  }
  return 0;
}
