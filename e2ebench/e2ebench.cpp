// One process = one measurement of one workload under one deployment seed.
//
//   e2ebench --workload fleet_1k|edge_16|sweep_8 --seed N [--traced]
//
// Untraced (default): for each cell of the workload, one untimed warm-up
// construction, then `setup_reps` timed constructions + start() (the median
// is the cell's setup time), then run + collect + grade timed as the cell
// time.
// Prints one JSON object: host timings, the modelled metrics, the per-layer
// counters read from public accessors, the observables the traced run must
// reproduce, and every checker verdict.
//
// --traced installs the outside-in layer trace (layer_trace.hpp) before the
// first deployment exists, times construct / start / run / collect and each
// checker separately, and prints the layer split with the same observables.
//
// The process never starts a thread; run.py drives the processes, applies
// the gates and aggregates the medians.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "layer_trace.hpp"
#include "scenario/json_min.hpp"
#include "sim/sharded_engine.hpp"
#include "sim/wire_payload.hpp"
#include "workloads.hpp"

namespace {

using namespace hades;
using clk = std::chrono::steady_clock;
using scenario::check_result;
using scenario::jmin::escape;
using scenario::deployment;
using scenario::observation;
using scenario::scenario_spec;

double since(clk::time_point t0) {
  return std::chrono::duration<double>(clk::now() - t0).count();
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank quantile of an ascending sample.
double quantile(const std::vector<double>& sorted, double q) {
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(sorted.size())));
  return sorted[std::max<std::size_t>(rank, 1) - 1];
}

/// Flat JSON object writer: numbers print with every digit they carry.
class json_obj {
 public:
  json_obj& num(const std::string& k, double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return raw(k, buf);
  }
  json_obj& u64(const std::string& k, std::uint64_t v) {
    return raw(k, std::to_string(v));
  }
  json_obj& str(const std::string& k, const std::string& v) {
    return raw(k, "\"" + escape(v) + "\"");
  }
  json_obj& raw(const std::string& k, const std::string& v) {
    os_ << (first_ ? "" : ", ") << '"' << k << "\": " << v;
    first_ = false;
    return *this;
  }
  [[nodiscard]] std::string done() const { return "{" + os_.str() + "}"; }

 private:
  std::ostringstream os_;
  bool first_ = true;
};

// --- what one cell leaves behind --------------------------------------------

/// Observables the traced run must reproduce bit for bit.
struct observables {
  std::uint64_t events = 0;
  sim::network::counters frames;
  std::uint64_t bcast_delivered = 0;
  std::uint64_t bcast_relays = 0;
  std::uint64_t heartbeats = 0;
  std::vector<std::uint64_t> gateway_digests;
  std::vector<check_result> verdicts;
};

void record_observables(deployment& d, const std::vector<check_result>& v,
                        observables& o) {
  o.events += d.sys().engine().executed();
  const auto f = d.sys().network().stats();
  o.frames.sent += f.sent;
  o.frames.delivered += f.delivered;
  o.frames.dropped += f.dropped;
  o.frames.late += f.late;
  o.bcast_delivered += d.bcast().delivered();
  o.bcast_relays += d.bcast().relays();
  o.heartbeats += d.fd().heartbeats_sent();
  for (const auto& gw : d.gateways()) o.gateway_digests.push_back(gw->digest());
  o.verdicts.insert(o.verdicts.end(), v.begin(), v.end());
}

std::string observables_json(const observables& o) {
  std::string digests = "[";
  for (std::size_t i = 0; i < o.gateway_digests.size(); ++i)
    digests += (i ? ", \"" : "\"") + std::to_string(o.gateway_digests[i]) + "\"";
  digests += "]";
  std::string verdicts = "[";
  for (std::size_t i = 0; i < o.verdicts.size(); ++i) {
    const auto& c = o.verdicts[i];
    verdicts += (i ? ", " : "") +
                json_obj()
                    .str("name", c.name)
                    .raw("passed", c.passed ? "true" : "false")
                    .str("detail", c.detail)
                    .done();
  }
  verdicts += "]";
  return json_obj()
      .u64("events", o.events)
      .u64("frames_sent", o.frames.sent)
      .u64("frames_delivered", o.frames.delivered)
      .u64("frames_dropped", o.frames.dropped)
      .u64("frames_late", o.frames.late)
      .u64("bcast_delivered", o.bcast_delivered)
      .u64("bcast_relays", o.bcast_relays)
      .u64("heartbeats", o.heartbeats)
      .raw("gateway_digests", digests)
      .raw("verdicts", verdicts)
      .done();
}

/// Crash-to-suspicion latencies (ms) over every (observer, crashed subject)
/// pair: the first suspicion of the subject by the observer while it is down.
void detection_samples(const scenario_spec& spec, const observation& obs,
                       std::vector<double>& out) {
  const time_point horizon = time_point::at(spec.horizon);
  for (const auto& a : spec.p.actions) {
    if (a.kind != scenario::action_kind::crash_node) continue;
    time_point up = horizon;
    for (const auto& r : spec.p.actions)
      if (r.kind == scenario::action_kind::recover_node && r.a == a.a &&
          r.at > a.at && r.at < up)
        up = r.at;
    // Observers down at the crash instant have nothing to detect with.
    std::vector<bool> seen(spec.nodes, false);
    for (node_id n = 0; n < spec.nodes; ++n) seen[n] = spec.p.down_at(n, a.at);
    for (const auto& s : obs.suspicions) {
      if (s.subject != a.a || s.at < a.at || s.at >= up || seen[s.observer])
        continue;
      seen[s.observer] = true;
      out.push_back(static_cast<double>((s.at - a.at).count()) / 1e6);
    }
  }
}

/// Per-layer counters read from public accessors after an untraced cell,
/// other than those already in `observables`.
using counters = std::map<std::string, double>;

void add_counters(deployment& d, const observation& obs,
                  const std::vector<check_result>& verdicts, counters& c) {
  core::system& sys = d.sys();
  if (auto* sh = dynamic_cast<sim::sharded_engine*>(&sys.engine())) {
    const auto st = sh->stats();
    c["sim.shard_rounds"] += static_cast<double>(st.rounds);
    c["sim.cross_shard_events"] += static_cast<double>(st.cross_events);
    c["sim.outbox_spills"] += static_cast<double>(st.spilled);
    double max = 0.0, sum = 0.0;
    for (auto e : st.executed_per_shard) {
      max = std::max(max, static_cast<double>(e));
      sum += static_cast<double>(e);
    }
    const double mean = sum / static_cast<double>(st.executed_per_shard.size());
    c["sim.shard_balance_max"] = std::max(c["sim.shard_balance_max"],
                                          mean > 0 ? max / mean : 1.0);
  }
  c["services.bcast_state_bytes"] += static_cast<double>(d.bcast().state_bytes());
  c["services.sync_rounds"] +=
      d.sync() ? static_cast<double>(d.sync()->rounds_completed()) : 0.0;
  c["services.mode_switches"] += static_cast<double>(d.modes().switches());

  for (node_id n = 0; n < sys.node_count(); ++n) {
    const auto& ds = sys.disp(n).stats();
    const auto& ps = sys.cpu(n).stats();
    c["core.eus_completed"] += static_cast<double>(ds.eus_completed);
    c["core.scheduler_runs"] += static_cast<double>(ds.scheduler_runs);
    c["core.context_switches"] += static_cast<double>(ps.context_switches);
    c["core.preemptions"] += static_cast<double>(ps.preemptions);
  }
  c["core.monitor_events"] += static_cast<double>(sys.mon().events().size());
  double busy_ns = 0.0;
  for (const auto& gw : d.gateways())
    busy_ns += static_cast<double>(sys.cpu(gw->node()).stats().busy.count());
  c["core.gateway_busy_ns"] += busy_ns;
  c["core.gateway_horizon_ns"] +=
      static_cast<double>(d.gateways().size()) *
      static_cast<double>(d.spec().horizon.count());

  c["traffic.offered"] += static_cast<double>(obs.traffic_offered);
  c["traffic.admitted"] += static_cast<double>(obs.traffic_admitted);
  c["traffic.rejected"] += static_cast<double>(obs.traffic_rejected);
  c["traffic.shed"] += static_cast<double>(obs.traffic_shed);
  c["traffic.completed"] += static_cast<double>(obs.traffic_completed);
  c["traffic.missed"] += static_cast<double>(obs.traffic_missed);
  c["traffic.renegotiations"] += static_cast<double>(obs.traffic_renegotiations);
  c["traffic.revalidation_failures"] +=
      static_cast<double>(obs.traffic_revalidation_failures);

  c["scenario.checks"] += static_cast<double>(verdicts.size());
  for (const auto& v : verdicts)
    if (!v.passed) c["scenario.checks_failed"] += 1.0;
}

std::string counters_json(const counters& c) {
  json_obj o;
  for (const auto& [k, v] : c) o.num(k, v);
  return o.done();
}

/// A field of /proc/self/status ("VmHWM:", "Threads:"), as an integer.
long proc_status(const std::string& field) {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line))
    if (line.rfind(field, 0) == 0) return std::atol(line.c_str() + field.size());
  return -1;
}

/// Peak resident set of this process image. VmHWM, not getrusage: Linux
/// carries ru_maxrss across fork and exec, so it would report the launching
/// interpreter's footprint whenever that is larger.
double peak_rss_mb() {
  return static_cast<double>(proc_status("VmHWM:")) / 1024.0;  // kB
}

int thread_count() { return static_cast<int>(proc_status("Threads:")); }

std::vector<node_id> gateway_nodes(deployment& d) {
  std::vector<node_id> out;
  for (const auto& gw : d.gateways()) out.push_back(gw->node());
  return out;
}

/// Build and start one deployment: the unit `setup_s` times.
std::unique_ptr<deployment> set_up(const scenario_spec& spec,
                                   const e2ebench::workload& w,
                                   std::uint64_t seed) {
  auto d = std::make_unique<deployment>(spec, e2ebench::cell_options(w, seed));
  d->start();
  return d;
}

// --- untraced ---------------------------------------------------------------

// Timed set-ups per cell; their median keeps one slow construction from
// setting the cell's setup time.
constexpr int setup_reps = 15;

int run_untraced(const e2ebench::workload& w, std::uint64_t seed) {
  std::vector<double> setup_s, cell_s, run_s, collect_s, grade_s;
  std::vector<double> detect;
  double skew_us = 0.0;
  bool skew_seen = false;
  bool traffic_seen = false;
  double latency_p50_us = 0.0, latency_p999_us = 0.0;
  observables o;
  counters c;

  for (const auto& spec : w.cells) {
    // Warm-up: one untimed construction pays the process's first-use costs.
    set_up(spec, w, seed).reset();
    std::vector<double> reps;
    std::unique_ptr<deployment> d;
    std::uint64_t closures0 = 0;
    sim::wire_payload::stats_t pool0;
    for (int r = 0; r < setup_reps; ++r) {
      d.reset();  // destruction is not set-up: untimed
      // Allocation counts cover the last deployment, the one that runs.
      closures0 = sim::event_callback::heap_allocations();
      pool0 = sim::wire_payload::stats();
      const auto t0 = clk::now();
      d = set_up(spec, w, seed);
      reps.push_back(since(t0));
    }
    setup_s.push_back(median(reps));

    const auto t0 = clk::now();
    d->run();
    const double t_run = since(t0);
    const observation obs = d->collect();
    const double t_collect = since(t0);
    const auto verdicts = d->grade(obs);
    const double t_total = since(t0);
    cell_s.push_back(t_total);
    run_s.push_back(t_run);
    collect_s.push_back(t_collect - t_run);
    grade_s.push_back(t_total - t_collect);

    detection_samples(spec, obs, detect);
    if (obs.skew_checked) {
      skew_seen = true;
      skew_us = std::max(
          skew_us, static_cast<double>(obs.max_skew.count()) / 1e3);
    }
    if (obs.traffic_checked) {
      // collect() has merged the cell's gateways; percentiles of separate
      // cells would not combine, so a workload has one traffic cell at most.
      if (traffic_seen) throw std::runtime_error("more than one traffic cell");
      traffic_seen = true;
      latency_p50_us = static_cast<double>(obs.latency_p50) / 1e3;
      latency_p999_us = static_cast<double>(obs.latency_p999) / 1e3;
    }
    record_observables(*d, verdicts, o);
    add_counters(*d, obs, verdicts, c);
    const auto pool1 = sim::wire_payload::stats();
    c["sim.closure_heap_allocs"] += static_cast<double>(
        sim::event_callback::heap_allocations() - closures0);
    c["sim.payload_chunk_allocs"] +=
        static_cast<double>(pool1.chunk_allocs - pool0.chunk_allocs);
    c["sim.payload_oversize_allocs"] +=
        static_cast<double>(pool1.oversize_allocs - pool0.oversize_allocs);
  }

  auto mean = [](const std::vector<double>& v) {
    double s = 0.0;
    for (double x : v) s += x;
    return s / static_cast<double>(v.size());
  };
  std::sort(detect.begin(), detect.end());
  json_obj modelled;
  modelled.u64("detect_samples", detect.size());
  if (!detect.empty())
    modelled.num("detect_ms_p50", quantile(detect, 0.50))
        .num("detect_ms_p99", quantile(detect, 0.99));
  if (skew_seen) modelled.num("skew_us", skew_us);
  if (traffic_seen)
    modelled.num("latency_p50_us", latency_p50_us)
        .num("latency_p999_us", latency_p999_us);

  std::printf("%s\n",
              json_obj()
                  .str("mode", "untraced")
                  .str("workload", w.name)
                  .u64("seed", seed)
                  .u64("cells", w.cells.size())
                  .num("setup_s", mean(setup_s))
                  .num("cell_s", mean(cell_s))
                  .num("run_s", mean(run_s))
                  .num("collect_s", mean(collect_s))
                  .num("grade_s", mean(grade_s))
                  .num("peak_rss_mb", peak_rss_mb())
                  .u64("threads", static_cast<std::uint64_t>(thread_count()))
                  .raw("modelled", modelled.done())
                  .raw("counters", counters_json(c))
                  .raw("observables", observables_json(o))
                  .done()
                  .c_str());
  return 0;
}

// --- traced -----------------------------------------------------------------

bool same_verdicts(const std::vector<check_result>& a,
                   const std::vector<check_result>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (a[i].name != b[i].name || a[i].passed != b[i].passed ||
        a[i].detail != b[i].detail)
      return false;
  return true;
}

int run_traced(const e2ebench::workload& w, std::uint64_t seed) {
  e2ebench::install_timing_backends();
  double construct_s = 0, start_s = 0, run_s = 0, collect_s = 0;
  double chk_detector_s = 0, chk_broadcast_s = 0, chk_other_s = 0;
  double total_s = 0, cell_s = 0;
  bool grade_match = true;
  observables o;
  // Callbacks only execute inside run(), so the trace's accumulators sum the
  // cells' run phases and nothing else.
  e2ebench::reset_layer_times();

  for (const auto& spec : w.cells) {
    set_up(spec, w, seed).reset();  // the same untimed warm-up

    const auto t0 = clk::now();
    auto d = std::make_unique<deployment>(spec, e2ebench::cell_options(w, seed));
    const double t_construct = since(t0);
    e2ebench::label_deliveries(d->sys());
    e2ebench::time_gateway_hooks(d->sys(), gateway_nodes(*d));
    const auto t1 = clk::now();
    d->start();
    const double t_start = since(t1);

    const auto t2 = clk::now();
    d->run();
    const double t_run = since(t2);
    const auto t3 = clk::now();
    const observation obs = d->collect();
    const double t_collect = since(t3);

    // grade() called one checker at a time, with grade()'s arguments.
    std::vector<check_result> v;
    const auto t4 = clk::now();
    for (auto& r : scenario::check_detector(spec.p, obs)) v.push_back(r);
    const double t_det = since(t4);
    const auto t5 = clk::now();
    for (auto& r :
         scenario::check_broadcast(spec.p, obs, spec.expect_order_faults))
      v.push_back(r);
    const double t_bc = since(t5);
    const auto t6 = clk::now();
    for (auto& r : scenario::check_modes(spec.p, obs, spec.modes.final_mode,
                                         spec.modes.switch_latency))
      v.push_back(r);
    for (auto& r : scenario::check_clocks(obs)) v.push_back(r);
    for (auto& r : scenario::check_miss_budget(obs)) v.push_back(r);
    const double t_other = since(t6);
    total_s += since(t0);

    grade_match = grade_match && same_verdicts(v, d->grade(obs));  // untimed
    record_observables(*d, v, o);

    construct_s += t_construct;
    start_s += t_start;
    run_s += t_run;
    collect_s += t_collect;
    chk_detector_s += t_det;
    chk_broadcast_s += t_bc;
    chk_other_s += t_other;
    cell_s += t_run + t_collect + t_det + t_bc + t_other;
  }
  const e2ebench::layer_times& lt = e2ebench::traced();

  static const char* names[e2ebench::label_count] = {
      "local", "token", "fd", "bcast", "sync", "capture", "other"};
  json_obj cb_s, cb_n;
  for (std::size_t i = 0; i < e2ebench::label_count; ++i) {
    cb_s.num(names[i], lt.cb_s[i]);
    cb_n.u64(names[i], lt.cb_n[i]);
  }
  const std::size_t n_cells = w.cells.size();
  std::printf("%s\n",
              json_obj()
                  .str("mode", "traced")
                  .str("workload", w.name)
                  .u64("seed", seed)
                  .u64("cells", n_cells)
                  .num("cell_s", cell_s / static_cast<double>(n_cells))
                  .num("total_s", total_s)
                  .num("construct_s", construct_s)
                  .num("start_s", start_s)
                  .num("run_s", run_s)
                  .num("engine_run_s", lt.run_s)
                  .num("collect_s", collect_s)
                  .num("check_detector_s", chk_detector_s)
                  .num("check_broadcast_s", chk_broadcast_s)
                  .num("check_other_s", chk_other_s)
                  .raw("callback_s", cb_s.done())
                  .raw("callbacks", cb_n.done())
                  .num("admit_s", lt.admit_s)
                  .num("retire_s", lt.retire_s)
                  .u64("admit_calls", lt.admit_n)
                  .u64("retire_calls", lt.retire_n)
                  .raw("grade_match", grade_match ? "true" : "false")
                  .u64("threads", static_cast<std::uint64_t>(thread_count()))
                  .raw("observables", observables_json(o))
                  .done()
                  .c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload_name;
  std::uint64_t seed = 1;
  bool traced = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--workload" && i + 1 < argc) {
      workload_name = argv[++i];
    } else if (a == "--seed" && i + 1 < argc) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--traced") {
      traced = true;
    } else {
      std::fprintf(stderr,
                   "usage: e2ebench --workload NAME --seed N [--traced]\n");
      return 2;
    }
  }
  try {
    const e2ebench::workload w = e2ebench::make_workload(workload_name);
    return traced ? run_traced(w, seed) : run_untraced(w, seed);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2ebench: %s\n", e.what());
    return 1;
  }
}
