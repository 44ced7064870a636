// bench_gateway — open-loop admission hot path (ISSUE 9, ROADMAP item 3).
//
// Drives the traffic edge's decision path raw — arrival_process straight
// into admission_controller, no simulator in between — in virtual time,
// with a single-server completion model (finish = max(arrival, busy) +
// cost) so admits, completes, value-density sheds and rejections all occur
// at steady-state rates. Three overloaded arrival mixes (poisson / bursty
// / diurnal) sweep the rate shapes the scenario layer runs; a fourth,
// `quiet` (poisson at 20,000/s), never overloads, so it runs admit and
// complete without the shed path — storage that only the shed path drains
// would grow there unchecked. Each mix reports the most requests it held
// at once (`max_outstanding`), which is the controller pool's high-water.
//
// Two hard promises, both CI-gated via --require-throughput:
//   * throughput: >= 1M admission decisions per second, single thread,
//     on every mix (loud SKIP on starved runners with < 4 hardware
//     threads);
//   * zero allocation: the global operator-new counter must not move at
//     all across the measured phase — admit, complete, shed, histogram
//     record and the completion heap all run in preallocated storage.
//
// End-to-end virtual latency (arrival -> completion) per mix lands in the
// HDR histogram; p50/p99/p99.9 go to BENCH_gateway.json.
//
// Usage: bench_gateway [--smoke] [--require-throughput] [--json PATH]
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "bench/alloc_count.hpp"
#include "bench/json_out.hpp"
#include "traffic/admission.hpp"
#include "traffic/arrival.hpp"
#include "util/hdr_histogram.hpp"

using namespace hades;
using namespace hades::traffic;

namespace {

struct mix_outcome {
  const char* name;
  std::uint64_t decisions = 0;
  double wall_s = 0.0;
  double per_s = 0.0;
  std::uint64_t admitted = 0;
  std::uint64_t rejected = 0;
  std::uint64_t shed = 0;
  std::uint64_t completed = 0;
  std::uint32_t max_outstanding = 0;
  std::uint64_t steady_allocs = 0;
  std::int64_t p50 = 0, p99 = 0, p999 = 0;
};

struct comp_entry {
  std::int64_t finish;
  std::int64_t arrival;
  admission_controller::handle h;
  std::uint32_t gen;
  // Min-heap on finish date via std::push_heap's max-heap ordering.
  [[nodiscard]] bool operator<(const comp_entry& o) const {
    return finish > o.finish;
  }
};

mix_outcome run_mix(arrival_mix mix, double rate_per_s, const char* name,
                    std::uint64_t warmup, std::uint64_t measured,
                    hdr_histogram& hist) {
  // Cost/deadline taxonomy compressed ~100x versus the scenario classes so
  // one virtual second holds ~10^5 arrivals: the decision path's work per
  // offer is identical, only the dates shrink.
  static const request_class classes[3] = {
      {duration::microseconds(2), duration::microseconds(60), 4, 5},
      {duration::microseconds(5), duration::microseconds(200), 3, 3},
      {duration::microseconds(15), duration::microseconds(800), 1, 2},
  };
  arrival_params ap;
  ap.mix = mix;
  ap.rate_per_s = rate_per_s;
  ap.population = 10'000'000;
  ap.burst_period = duration::milliseconds(2);
  ap.burst_factor = 8.0;
  ap.diurnal_period = duration::milliseconds(40);
  ap.classes = classes;
  ap.class_count = 3;
  arrival_process arr(ap, 42, 0);

  admission_controller::config cc;
  cc.feas.slot_width = duration::microseconds(20);  // 1.28ms wheel window
  cc.feas.available = 0.6;
  cc.max_outstanding = 4096;
  admission_controller ctrl(cc);

  hist.reset();
  std::vector<comp_entry> done;
  done.reserve(8 * static_cast<std::size_t>(cc.max_outstanding));
  std::vector<std::uint32_t> gen(cc.max_outstanding, 0);
  std::int64_t busy_until = 0;
  std::uint32_t max_outstanding = 0;
  ctrl.on_shed([&gen](admission_controller::handle h) {
    ++gen[h];  // invalidate the victim's pending completion
  });

  const auto step = [&] {
    const std::int64_t now = arr.peek().nanoseconds();
    while (!done.empty() && done.front().finish <= now) {
      const comp_entry e = done.front();
      std::pop_heap(done.begin(), done.end());
      done.pop_back();
      if (gen[e.h] != e.gen) continue;  // shed before service
      ++gen[e.h];
      ctrl.complete(e.h);
      hist.record(e.finish - e.arrival);
    }
    const request r = arr.take();
    const auto d = ctrl.offer(r, time_point::zero() +
                                     duration::nanoseconds(now));
    if (d.admitted) {
      const std::int64_t start = std::max(now, busy_until);
      busy_until = start + r.cost.count();
      done.push_back({busy_until, now, d.h, gen[d.h]});
      std::push_heap(done.begin(), done.end());
    }
    max_outstanding = std::max(max_outstanding, ctrl.outstanding());
  };

  for (std::uint64_t i = 0; i < warmup; ++i) step();

  const std::uint64_t allocs_before = alloc_count::calls();
  const auto t0 = std::chrono::steady_clock::now();
  for (std::uint64_t i = 0; i < measured; ++i) step();
  const auto t1 = std::chrono::steady_clock::now();

  mix_outcome out;
  out.name = name;
  out.decisions = measured;
  out.steady_allocs = alloc_count::calls() - allocs_before;
  out.wall_s = std::chrono::duration<double>(t1 - t0).count();
  out.per_s = static_cast<double>(measured) / out.wall_s;
  const auto& s = ctrl.stats();
  out.admitted = s.admitted;
  out.rejected = s.rejected;
  out.shed = s.shed;
  out.completed = s.completed;
  out.max_outstanding = max_outstanding;
  out.p50 = hist.value_at_quantile(0.50);
  out.p99 = hist.value_at_quantile(0.99);
  out.p999 = hist.value_at_quantile(0.999);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  bool require_throughput = false;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    else if (std::strcmp(argv[i], "--require-throughput") == 0)
      require_throughput = true;
    else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc)
      json_path = argv[++i];
    else {
      std::fprintf(stderr, "unknown argument: %s\n", argv[i]);
      return 2;
    }
  }

  const std::uint64_t warmup = smoke ? 50'000 : 200'000;
  const std::uint64_t measured = smoke ? 500'000 : 4'000'000;
  const unsigned hw = std::thread::hardware_concurrency();

  // One histogram, reset per mix. Every row is reserved, so the measured
  // phase allocates nothing whichever ranges the warm-up reached.
  hdr_histogram hist;
  hist.reserve(std::numeric_limits<std::int64_t>::max());

  // 150,000/s is ~0.7 mean load, and bursts push far past 1.0; 20,000/s
  // is ~0.1 and admits everything.
  struct {
    arrival_mix mix;
    double rate_per_s;
    const char* name;
  } mixes[] = {{arrival_mix::poisson, 150'000.0, "poisson"},
               {arrival_mix::bursty, 150'000.0, "bursty"},
               {arrival_mix::diurnal, 150'000.0, "diurnal"},
               {arrival_mix::poisson, 20'000.0, "quiet"}};

  json::doc json;
  bench::stamp(json, 1, 1);
  json.num("decisions_per_mix", measured);

  std::printf("bench_gateway: %llu decisions/mix (+%llu warmup), "
              "single thread\n\n",
              static_cast<unsigned long long>(measured),
              static_cast<unsigned long long>(warmup));
  std::printf("%-8s %12s %10s %10s %10s %10s %9s %9s %9s %9s %7s\n", "mix",
              "decisions/s", "admitted", "rejected", "shed", "completed",
              "max_outst", "p50_ns", "p99_ns", "p999_ns", "allocs");

  double min_per_s = 1e18;
  std::uint64_t total_allocs = 0;
  for (const auto& m : mixes) {
    const mix_outcome r =
        run_mix(m.mix, m.rate_per_s, m.name, warmup, measured, hist);
    min_per_s = std::min(min_per_s, r.per_s);
    total_allocs += r.steady_allocs;
    std::printf("%-8s %12.0f %10llu %10llu %10llu %10llu %9u %9lld %9lld "
                "%9lld %7llu\n",
                r.name, r.per_s,
                static_cast<unsigned long long>(r.admitted),
                static_cast<unsigned long long>(r.rejected),
                static_cast<unsigned long long>(r.shed),
                static_cast<unsigned long long>(r.completed),
                r.max_outstanding, static_cast<long long>(r.p50),
                static_cast<long long>(r.p99), static_cast<long long>(r.p999),
                static_cast<unsigned long long>(r.steady_allocs));
    const std::string p = r.name;
    json.num(p + "_decisions_per_s", r.per_s);
    json.num(p + "_admitted", r.admitted);
    json.num(p + "_rejected", r.rejected);
    json.num(p + "_shed", r.shed);
    json.num(p + "_completed", r.completed);
    json.num(p + "_max_outstanding",
             static_cast<std::uint64_t>(r.max_outstanding));
    json.num(p + "_latency_p50_ns", static_cast<std::uint64_t>(r.p50));
    json.num(p + "_latency_p99_ns", static_cast<std::uint64_t>(r.p99));
    json.num(p + "_latency_p999_ns", static_cast<std::uint64_t>(r.p999));
    json.num(p + "_steady_allocs", r.steady_allocs);
  }
  json.num("min_decisions_per_s", min_per_s);
  json.num("steady_allocs_total", total_allocs);
  if (!json_path.empty() && !json.write(json_path)) return 1;

  // The zero-allocation contract is absolute — no SKIP, no threshold: any
  // steady-state allocation on the admit/complete/shed path is a defect on
  // every machine.
  if (total_allocs != 0) {
    std::printf("\nFAIL: %llu steady-state allocations on the admission "
                "path (contract: 0)\n",
                static_cast<unsigned long long>(total_allocs));
    return 1;
  }
  std::printf("\nsteady-state allocations: 0 (contract held)\n");

  if (require_throughput) {
    if (hw < 4) {
      std::printf("SKIP: --require-throughput needs >= 4 hardware threads "
                  "(have %u) — starved runner, numbers not meaningful\n",
                  hw);
    } else if (min_per_s < 1e6) {
      std::printf("FAIL: slowest mix %.0f decisions/s < 1M/s gate "
                  "(hw threads: %u)\n",
                  min_per_s, hw);
      return 1;
    } else {
      std::printf("PASS: slowest mix %.2fM decisions/s >= 1M/s gate\n",
                  min_per_s / 1e6);
    }
  }
  return 0;
}
