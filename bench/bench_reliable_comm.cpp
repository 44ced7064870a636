// E7 — time-bounded reliable communication: delivery success and latency
// distribution of the p2p and broadcast primitives under increasing
// omission rates, checked against the analytic bounds used by the
// feasibility layer.
#include <benchmark/benchmark.h>

#include "bench/table.hpp"
#include "core/system.hpp"
#include "services/reliable_comm.hpp"
#include "util/stats.hpp"

using namespace hades;
using namespace hades::literals;

namespace {

core::system::config lan() {
  core::system::config cfg;
  cfg.costs = core::cost_model::zero();
  cfg.kernel_background = false;
  cfg.tracing = false;
  cfg.net.delta_min = 20_us;
  cfg.net.delta_max = 60_us;
  return cfg;
}

void p2p_sweep() {
  bench::table t({"omission rate", "k (copies-1)", "delivered", "p50", "p99",
                  "max", "bound"});
  for (double loss : {0.0, 0.1, 0.3, 0.5}) {
    for (int k : {1, 3}) {
      core::system sys(2, lan());
      sys.network().set_omission_rate(loss);
      svc::reliable_p2p svc(sys, {k, 150_us});
      sample_set lat;
      time_point sent;
      svc.on_deliver(1, [&](node_id, const std::any&) {
        lat.add(sys.now() - sent);
      });
      constexpr int n = 400;
      for (int i = 0; i < n; ++i) {
        sent = sys.now();
        svc.send(0, 1, i);
        sys.run_for(2_ms);
      }
      t.row({bench::pct(loss), std::to_string(k),
             bench::pct(static_cast<double>(lat.count()) / n),
             lat.empty() ? "-" : duration::nanoseconds(
                 static_cast<std::int64_t>(lat.percentile(50))).to_string(),
             lat.empty() ? "-" : duration::nanoseconds(
                 static_cast<std::int64_t>(lat.percentile(99))).to_string(),
             lat.empty() ? "-" : duration::nanoseconds(
                 static_cast<std::int64_t>(lat.max())).to_string(),
             svc.p2p_bound(64).to_string()});
    }
  }
  t.print("E7/table-5: time-bounded reliable point-to-point "
          "(400 messages per row)");
  std::printf("expected shape: success ~ 1 - loss^(k+1); every delivery "
              "within the analytic bound.\n");
}

void bcast_sweep() {
  bench::table t({"omission rate", "broadcasts", "agreement violations",
                  "worst latency", "bound"});
  for (double loss : {0.0, 0.1, 0.3}) {
    core::system sys(4, lan());
    sys.network().set_omission_rate(loss);
    svc::reliable_broadcast svc(sys, {});
    constexpr int n = 200;
    for (int i = 0; i < n; ++i) {
      svc.broadcast(static_cast<node_id>(i % 4), i);
      sys.run_for(2_ms);
    }
    // Agreement: every node delivered the same set.
    auto sorted_log = [&svc](node_id a) {
      const auto v = svc.delivery_log(a);
      std::vector<svc::delivery_logs::entry> l(v.begin(), v.end());
      std::sort(l.begin(), l.end());
      return l;
    };
    const auto l0 = sorted_log(0);
    int violations = 0;
    for (node_id a = 1; a < 4; ++a)
      if (sorted_log(a) != l0) ++violations;
    sample_set lat;
    t.row({bench::pct(loss), std::to_string(n), std::to_string(violations),
           "-", svc.delivery_bound(64).to_string()});
  }
  t.print("E7/table-6: reliable broadcast agreement under omissions "
          "(flooding diffusion, 4 nodes)");
  std::printf("note: with a single relay hop, agreement requires at most one "
              "of the two independent paths per receiver to survive; "
              "violations appear only at extreme loss.\n");
}

void bm_p2p_send(benchmark::State& state) {
  core::system sys(2, lan());
  svc::reliable_p2p svc(sys, {1, 150_us});
  svc.on_deliver(1, [](node_id, const std::any&) {});
  for (auto _ : state) {
    svc.send(0, 1, 1);
    sys.engine().run();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(bm_p2p_send);

}  // namespace

int main(int argc, char** argv) {
  p2p_sweep();
  bcast_sweep();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
