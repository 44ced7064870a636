// Wire fast-path throughput: the pooled zero-allocation network vs the
// pre-PR wire implementation (DESIGN.md, "Wire fast path").
//
// `legacy_wire` below reproduces the old `sim::network` send/deliver path
// exactly: a `std::any` payload heap-boxed per frame and deep-copied once
// per broadcast destination, per-source state in `std::map`s (FIFO floors,
// link omission, scripted drops), a handler `unordered_map` looked up per
// delivery, globally-read fault state behind a `shared_mutex` taken twice
// per send, time-indexed toggles scanned linearly, and the seed's
// latency-jitter draw (a 64-bit modulo guarded by a `require` that built a
// heap std::string per call — both replaced repo-wide by this PR, so the
// baseline carries its own copies). The new wire
// replaces all of that with slab-pooled refcounted payloads, dense
// destination-indexed vectors, a flat handler table, and fault state kept
// as date-keyed timelines that each send binary-searches at its own date.
//
// Workloads:
//   * broadcast churn — 8 nodes, fault-free, every node fans one 64-byte
//     envelope out to the other 7 each round; the acceptance workload. The
//     steady-state phase runs under a global operator-new counter and must
//     perform ZERO heap allocations per message (hard assertion, any mode).
//   * long-plan unicast — same sends with 1000 pre-registered omission-rate
//     toggle edges: the timeline-lookup regression (linear scan made every
//     send O(plan size); upper_bound makes it O(log)).
//
// Usage: bench_wire [--smoke] [--require-2x] [--json PATH]
//   --smoke       ~10x fewer rounds (CI compile/perf-path check)
//   --require-2x  exit non-zero unless new/legacy broadcast-churn
//                 throughput >= 2x
//   --json PATH   write machine-readable BENCH_wire results to PATH
#include <atomic>
#include <any>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <algorithm>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "bench/alloc_count.hpp"
#include "bench/json_out.hpp"
#include "bench/table.hpp"
#include "sim/engine.hpp"
#include "sim/network.hpp"
#include "util/rng.hpp"

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

// --- the pre-PR wire, verbatim semantics ------------------------------------
// Every structural cost of the old `sim::network` send/deliver path is
// reproduced: the two shared_mutex acquisitions per send (deterministic
// drop causes, then the omission rate) plus one more in sample_latency and
// one at delivery, the std::map-keyed per-source state, the linear
// timeline scans, the per-destination std::any deep copy, and the handler
// unordered_map lookup per delivery.

class legacy_wire {
 public:
  struct message {
    node_id src = invalid_node;
    node_id dst = invalid_node;
    int channel = 0;
    std::any payload;
    std::size_t size_bytes = 0;
    std::uint64_t id = 0;
    time_point sent_at;
  };
  using handler = std::function<void(const message&)>;
  static constexpr int any_channel = -1;

  legacy_wire(sim::engine& e, sim::network::params p, std::uint64_t seed)
      : e_(&e), params_(p), seed_(seed) {}

  void attach(node_id n, handler h) {
    ensure_source(n);
    handlers_[n] = std::move(h);
  }

  void set_omission_rate_at(time_point t, double p) {
    std::unique_lock lk(mu_);
    omission_rate_.set(t, p);
  }

  std::uint64_t unicast(node_id src, node_id dst, int channel,
                        std::any payload, std::size_t size_bytes) {
    source_state& s = source(src);
    message m;
    m.src = src;
    m.dst = dst;
    m.channel = channel;
    m.payload = std::move(payload);
    m.size_bytes = size_bytes;
    m.id = ((static_cast<std::uint64_t>(src) + 1) << 40) | ++s.next_seq;
    m.sent_at = e_->now();
    sent_.fetch_add(1, std::memory_order_relaxed);
    if (should_drop(s, src, dst, channel)) {
      dropped_.fetch_add(1, std::memory_order_relaxed);
      return m.id;
    }
    bool late = false;
    const duration lat = sample_latency(s, size_bytes, late);
    if (late) late_.fetch_add(1, std::memory_order_relaxed);
    time_point deliver_at = e_->now() + lat;
    auto& last = s.last_delivery[dst];
    if (deliver_at < last) deliver_at = last;
    last = deliver_at;
    const std::uint64_t id = m.id;
    e_->at(deliver_at, [this, m = std::move(m)]() {
      bool dst_down;
      {
        std::shared_lock lk(mu_);
        dst_down = node_down_at(m.dst, e_->now());
      }
      auto it = handlers_.find(m.dst);
      if (it == handlers_.end() || !it->second || dst_down) {
        dropped_.fetch_add(1, std::memory_order_relaxed);
        return;
      }
      delivered_.fetch_add(1, std::memory_order_relaxed);
      it->second(m);
    });
    return id;
  }

  std::size_t broadcast(node_id src, int channel, const std::any& payload,
                        std::size_t size_bytes) {
    std::size_t n = 0;
    for (node_id dst : attached_nodes()) {
      if (dst == src) continue;
      unicast(src, dst, channel, payload, size_bytes);  // deep any copy
      ++n;
    }
    return n;
  }

  [[nodiscard]] std::uint64_t delivered() const { return delivered_.load(); }

 private:
  template <typename T>
  class timeline {  // the old linear-scan piecewise-constant container
   public:
    void set(time_point t, T v) {
      auto it = entries_.end();
      while (it != entries_.begin() && std::prev(it)->first > t) --it;
      entries_.insert(it, {t, std::move(v)});
    }
    [[nodiscard]] const T* at(time_point t) const {
      const T* best = nullptr;
      for (const auto& [when, v] : entries_) {
        if (when > t) break;
        best = &v;
      }
      return best;
    }

   private:
    std::vector<std::pair<time_point, T>> entries_;
  };

  struct perf_fault {
    double rate = 0.0;
    duration extra = duration::zero();
  };

  struct source_state {
    explicit source_state(rng r) : stream(std::move(r)) {}
    rng stream;
    std::uint64_t next_seq = 0;
    std::map<node_id, time_point> last_delivery;
    std::map<node_id, double> link_omission;
    std::map<std::pair<node_id, int>, int> scripted_drops;
    std::map<node_id, timeline<bool>> link_down;
  };

  bool node_down_at(node_id n, time_point t) const {
    auto it = node_down_.find(n);
    if (it == node_down_.end()) return false;
    const bool* v = it->second.at(t);
    return v != nullptr && *v;
  }

  bool partitioned_at(node_id a, node_id b, time_point t) const {
    const std::vector<std::uint32_t>* groups = partition_.at(t);
    if (groups == nullptr || groups->empty()) return false;
    constexpr std::uint32_t no_group = 0xFFFFFFFFu;
    const std::uint32_t ga = a < groups->size() ? (*groups)[a] : no_group;
    const std::uint32_t gb = b < groups->size() ? (*groups)[b] : no_group;
    return ga != no_group && gb != no_group && ga != gb;
  }

  // The seed's require() took const std::string&, so every hot-path
  // invariant check constructed (and heap-allocated) its message even when
  // the condition held; the seed's uniform_int reduced with a 64-bit
  // modulo. Both costs belong to the pre-PR baseline.
  static void legacy_require(bool condition, const std::string& message) {
    if (!condition) throw invariant_violation(message);
  }
  static std::int64_t legacy_uniform_int(rng& r, std::int64_t lo,
                                         std::int64_t hi) {
    legacy_require(lo <= hi, "rng::uniform_int: empty range");
    const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
    if (span == 0) return static_cast<std::int64_t>(r.next_u64());
    return lo + static_cast<std::int64_t>(r.next_u64() % span);
  }

  bool should_drop(source_state& s, node_id src, node_id dst, int channel) {
    const time_point t = e_->now();
    {
      std::shared_lock lk(mu_);
      if (node_down_at(src, t) || node_down_at(dst, t)) return true;
      if (partitioned_at(src, dst, t)) return true;
    }
    if (auto it = s.link_down.find(dst); it != s.link_down.end()) {
      const bool* down = it->second.at(t);
      if (down != nullptr && *down) return true;
    }
    for (const int key : {channel, any_channel}) {
      if (auto it = s.scripted_drops.find({dst, key});
          it != s.scripted_drops.end() && it->second > 0) {
        --it->second;
        return true;
      }
    }
    double p;
    {
      std::shared_lock lk(mu_);
      const double* global = omission_rate_.at(t);
      p = global != nullptr ? *global : 0.0;
    }
    if (auto it = s.link_omission.find(dst); it != s.link_omission.end())
      p = it->second;
    return p > 0.0 && s.stream.chance(p);
  }

  duration sample_latency(source_state& s, std::size_t size_bytes, bool& late) {
    const std::int64_t jitter_span =
        (params_.delta_max - params_.delta_min).count();
    duration lat =
        params_.delta_min +
        duration::nanoseconds(jitter_span > 0
                                  ? legacy_uniform_int(s.stream, 0, jitter_span)
                                  : 0) +
        params_.per_byte * static_cast<std::int64_t>(size_bytes);
    perf_fault pf;
    {
      std::shared_lock lk(mu_);
      const perf_fault* p = perf_fault_.at(e_->now());
      if (p != nullptr) pf = *p;
    }
    late = pf.rate > 0.0 && s.stream.chance(pf.rate);
    if (late) lat += pf.extra;
    return lat;
  }

  std::vector<node_id> attached_nodes() const {
    std::vector<node_id> out;
    out.reserve(handlers_.size());
    for (const auto& [n, h] : handlers_) out.push_back(n);
    std::sort(out.begin(), out.end());
    return out;
  }
  void ensure_source(node_id n) {
    while (sources_.size() <= n)
      sources_.push_back(std::make_unique<source_state>(rng(
          seed_ ^ (0x9E3779B97F4A7C15ull * (sources_.size() + 1)))));
  }
  source_state& source(node_id n) {
    ensure_source(n);
    return *sources_[n];
  }

  sim::engine* e_;
  sim::network::params params_;
  std::uint64_t seed_;
  std::vector<std::unique_ptr<source_state>> sources_;
  std::unordered_map<node_id, handler> handlers_;
  mutable std::shared_mutex mu_;
  std::map<node_id, timeline<bool>> node_down_;
  timeline<std::vector<std::uint32_t>> partition_;
  timeline<double> omission_rate_;
  timeline<perf_fault> perf_fault_;
  std::atomic<std::uint64_t> sent_{0};
  std::atomic<std::uint64_t> delivered_{0};
  std::atomic<std::uint64_t> dropped_{0};
  std::atomic<std::uint64_t> late_{0};
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

/// Broadcast churn on the new wire. One round = every node fans a pooled
/// 32-byte payload out to the other 7; the engine drains between rounds.
run_result run_new_broadcast(std::size_t rounds, std::size_t toggles) {
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

/// The same churn on the reproduced pre-PR wire.
run_result run_legacy_broadcast(std::size_t rounds, std::size_t toggles) {
  sim::engine e;
  legacy_wire net(e, wire_params(), 42);
  std::uint64_t checksum = 0;
  for (node_id n = 0; n < kNodes; ++n)
    net.attach(n, [&checksum, n](const legacy_wire::message& m) {
      checksum += n ^ std::any_cast<churn_payload>(&m.payload)->a;
    });
  for (std::size_t i = 0; i < toggles; ++i)
    net.set_omission_rate_at(
        time_point::at(1_ns * static_cast<std::int64_t>(i)), 0.0);
  auto round = [&](std::uint64_t i) {
    for (node_id src = 0; src < kNodes; ++src)
      net.broadcast(src, 1, churn_payload{i, i ^ 7, i * 3, {}}, 64);
    e.run();
  };
  for (std::uint64_t i = 0; i < 64; ++i) round(i);
  const std::uint64_t allocs_before = alloc_count::calls();
  const auto t0 = std::chrono::steady_clock::now();
  for (std::uint64_t i = 0; i < rounds; ++i) round(i);
  const std::chrono::duration<double> dt =
      std::chrono::steady_clock::now() - t0;
  run_result r;
  r.wall_s = dt.count();
  r.messages = rounds * kNodes * (kNodes - 1);
  r.allocs = alloc_count::calls() - allocs_before;
  r.checksum = checksum;
  return r;
}

constexpr int kReps = 3;

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
  bool require_2x = false;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) rounds = 2'000;
    if (std::strcmp(argv[i], "--require-2x") == 0) require_2x = true;
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc)
      json_path = argv[++i];
  }

  std::printf("wire fast path: %zu-node fault-free 64-byte broadcast churn, "
              "%zu rounds (%zu messages), best of %d interleaved reps\n",
              kNodes, rounds, rounds * kNodes * (kNodes - 1), kReps);

  // Interleaved best-of-N: wall time on a shared machine is noisy in one
  // direction only, so each path keeps its fastest rep; the allocation
  // count is accumulated across every rep (the zero gate must hold in all
  // of them). Alternating the paths spreads transient noise fairly.
  run_result nw, lg, nw_plan, lg_plan;
  const std::size_t plan_rounds = rounds / 4;
  for (int rep = 0; rep < kReps; ++rep) {
    // Fault-free broadcast churn: the acceptance workload.
    keep_best(nw, run_new_broadcast(rounds, 0));
    keep_best(lg, run_legacy_broadcast(rounds, 0));
    // Long-plan sends: 1000 pre-registered (no-op) omission toggle edges
    // tax the old linear timeline scan on every send, the binary search
    // barely.
    keep_best(nw_plan, run_new_broadcast(plan_rounds, 1'000));
    keep_best(lg_plan, run_legacy_broadcast(plan_rounds, 1'000));
  }

  bench::table t({"workload", "wire", "msgs/s", "ns/msg", "allocs/msg"});
  t.row({"broadcast churn", "new", bench::fmt(mps(nw), 0),
         bench::fmt(ns_per_msg(nw), 1), bench::fmt(allocs_per_msg(nw), 3)});
  t.row({"broadcast churn", "legacy", bench::fmt(mps(lg), 0),
         bench::fmt(ns_per_msg(lg), 1), bench::fmt(allocs_per_msg(lg), 3)});
  t.row({"1000-edge plan", "new", bench::fmt(mps(nw_plan), 0),
         bench::fmt(ns_per_msg(nw_plan), 1),
         bench::fmt(allocs_per_msg(nw_plan), 3)});
  t.row({"1000-edge plan", "legacy", bench::fmt(mps(lg_plan), 0),
         bench::fmt(ns_per_msg(lg_plan), 1),
         bench::fmt(allocs_per_msg(lg_plan), 3)});
  t.print("wire fast path (new vs pre-PR legacy)");

  const double speedup = ns_per_msg(lg) > 0 && ns_per_msg(nw) > 0
                             ? ns_per_msg(lg) / ns_per_msg(nw)
                             : 0;
  const double plan_speedup =
      ns_per_msg(lg_plan) > 0 && ns_per_msg(nw_plan) > 0
          ? ns_per_msg(lg_plan) / ns_per_msg(nw_plan)
          : 0;
  std::printf("\n  broadcast-churn speedup %.2fx, long-plan speedup %.2fx\n",
              speedup, plan_speedup);

  if (!json_path.empty()) {
    json::doc j;
    j.str("bench", "wire");
    bench::stamp(j, kNodes, 1);
    j.num("messages", nw.messages);
    j.num("msgs_per_sec_new", mps(nw));
    j.num("msgs_per_sec_legacy", mps(lg));
    j.num("ns_per_msg_new", ns_per_msg(nw));
    j.num("ns_per_msg_legacy", ns_per_msg(lg));
    j.num("allocs_per_msg_new", allocs_per_msg(nw));
    j.num("allocs_per_msg_legacy", allocs_per_msg(lg));
    j.num("speedup", speedup);
    j.num("long_plan_speedup", plan_speedup);
    if (!j.write(json_path)) return 1;
  }

  // Hard gate, any mode: the steady state must allocate nothing at all.
  if (nw.allocs != 0) {
    std::printf("FAIL: new wire performed %llu heap allocations in the "
                "steady-state phase (expected 0)\n",
                static_cast<unsigned long long>(nw.allocs));
    return 1;
  }
  std::printf("  steady-state heap allocations: 0 (legacy: %.2f/msg)\n",
              allocs_per_msg(lg));
  if (require_2x && speedup < 2.0) {
    std::printf("FAIL: broadcast-churn speedup %.2fx < 2x\n", speedup);
    return 1;
  }
  return 0;
}
