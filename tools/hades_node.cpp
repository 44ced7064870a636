// hades_node — realtime node-group launcher + multi-process loopback
// harness (DESIGN.md, "Runtime factory & injector API").
//
// Worker mode runs one OS process owning a contiguous block of a
// scenario's nodes on the realtime backend: the same scenario::deployment
// the simulation campaign builds, driven by steady_clock timers, with
// cross-process frames — judged by the same network fault model as local
// ones — riding UDP datagrams on 127.0.0.1 through the socket transport.
// After the horizon the worker writes its partial observation (owned nodes
// only) for the parent to merge, with its transport counters and its
// engine's wake lateness (p50, p99, p99.9 and maximum, real nanoseconds).
//
// Harness mode is the sim-vs-real gate CI runs: for each (scenario, seed)
// it runs an in-process simulation reference with identical
// real-clock-friendly timing, then forks N worker processes, at the time
// scale the host's measured wake lateness calls for, against a shared
// future epoch, merges their partials, grades the same property checkers,
// and diffs the verdicts check-by-check. Any verdict diff, any worker
// failure, any Δ-bound violation measured on the real wire, or a host too
// late for every scale exits non-zero.
//
// Usage:
//   hades_node --harness [--procs N] [--scenarios CSV] [--seeds CSV]
//              [--base-port P] [--out DIR]
//   hades_node --worker --scenario NAME --seed S --proc I --procs N
//              --base-port P --epoch-ns E [--time-scale X] --out FILE
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "rt/codecs.hpp"
#include "rt/realtime_engine.hpp"
#include "rt/socket_transport.hpp"
#include "scenario/deployment.hpp"
#include "scenario/observation_io.hpp"
#include "scenario/plan.hpp"

using namespace hades;
using namespace hades::literals;

namespace {

// Real-clock-friendly wire timing shared by the sim reference and the real
// run: the verdicts can only be compared when both runs were graded
// against bounds the wall clock can honor (loopback UDP plus scheduling
// jitter fits comfortably under 5ms; the simulated 60us LAN does not).
constexpr duration rt_delta_min = duration::microseconds(100);
constexpr duration rt_delta_max = duration::milliseconds(5);
constexpr duration rt_switch_latency = duration::milliseconds(25);
constexpr duration rt_bound_margin = duration::milliseconds(2);

// The host calibration before each case: one realtime engine per worker,
// each on its own thread, runs a periodic timer chain for the span.
constexpr duration calibration_period = duration::microseconds(500);
constexpr duration calibration_span = duration::milliseconds(500);

scenario::deployment_options harness_options(std::uint64_t seed) {
  scenario::deployment_options o;
  o.seed = seed;
  o.net.delta_min = rt_delta_min;
  o.net.delta_max = rt_delta_max;
  o.net.per_byte = duration::zero();
  o.bound_margin = rt_bound_margin;
  o.switch_latency = rt_switch_latency;
  return o;
}

std::vector<std::string> split_csv(const std::string& s) {
  std::vector<std::string> out;
  std::stringstream ss(s);
  std::string item;
  while (std::getline(ss, item, ','))
    if (!item.empty()) out.push_back(item);
  return out;
}

struct verdict {
  std::map<std::string, bool> by_check;  // name -> passed
};

verdict to_verdict(const std::vector<scenario::check_result>& checks) {
  verdict v;
  for (const auto& c : checks) v.by_check[c.name] = c.passed;
  return v;
}

/// " events=N p50_ns=.. p99_ns=.. p999_ns=.. max_ns=..", real nanoseconds.
std::string lateness_fields(const hdr_histogram& late) {
  std::ostringstream os;
  os << " events=" << late.total() << " p50_ns=" << late.value_at_quantile(0.5)
     << " p99_ns=" << late.value_at_quantile(0.99) << " p999_ns="
     << late.value_at_quantile(0.999) << " max_ns=" << late.max();
  return os.str();
}

std::int64_t steady_now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ------------------------------------------------------------- worker --

int run_worker(const std::string& scenario_name, std::uint64_t seed,
               std::uint32_t proc, std::size_t procs, std::uint16_t base_port,
               std::int64_t epoch_ns, double time_scale,
               const std::string& out_path) {
  const scenario::scenario_spec spec = scenario::find_scenario(scenario_name);
  rt::register_hades_codecs();

  scenario::deployment_options dopt = harness_options(seed);
  dopt.backend.backend = "realtime";
  dopt.backend.process_index = proc;
  dopt.backend.process_count = procs;
  dopt.backend.epoch_ns = epoch_ns;
  dopt.backend.time_scale = time_scale;
  scenario::deployment d(spec, dopt);

  rt::socket_transport tx(d.sys().engine(), d.sys().network(), d.sys().mon(),
                          base_port);

  // start() applies the plan to the network; the transport reads its fault
  // program, so it starts second. Neither sends before run().
  d.start();
  tx.start();
  d.run();
  tx.stop();

  const scenario::observation obs = d.collect();
  const hades::runtime& engine = d.sys().engine();
  std::vector<bool> owned(spec.nodes, false);
  for (node_id n = 0; n < spec.nodes; ++n)
    owned[n] = engine.shard_of(n) == proc;
  const bool has_mode = engine.shard_of(d.modes().home()) == proc;

  const auto st = tx.stats();
  const auto net = d.sys().network().stats();
  std::vector<std::string> extra;
  {
    std::ostringstream os;
    os << "transport proc=" << proc << " sent=" << st.sent
       << " received=" << st.received << " net_dropped=" << net.dropped
       << " net_late=" << net.late
       << " delayed=" << st.delayed << " dup=" << st.dup_dropped
       << " gaps=" << st.gaps_declared << " late=" << st.late_delivered
       << " delta_violations=" << st.delta_violations
       << " max_latency_ns=" << st.max_latency_ns;
    extra.push_back(os.str());
  }
  {
    std::ostringstream os;
    os << "delta_violations " << st.delta_violations;
    extra.push_back(os.str());
  }
  {
    std::ostringstream os;
    os << "wake_lateness proc=" << proc << " time_scale=" << time_scale
       << lateness_fields(rt::wake_lateness(engine));
    extra.push_back(os.str());
  }
  scenario::write_partial_observation(out_path, obs, owned, has_mode, extra);
  return 0;
}

// ------------------------------------------------------------ harness --

/// Run `threads` calibration chains at once; merge their wake lateness.
void calibrate(std::size_t threads, hdr_histogram& lateness) {
  std::vector<std::unique_ptr<hades::runtime>> engines;
  for (std::size_t t = 0; t < threads; ++t)
    engines.push_back(rt::make_realtime_engine(hades::runtime::options{}));
  {
    std::vector<std::jthread> chains;  // joined on leaving, on every path
    for (const auto& e : engines)
      chains.emplace_back([&engine = *e] {
        engine.periodic_at_node(0, engine.now() + calibration_period,
                                calibration_period, [] {},
                                time_point::at(calibration_span));
        engine.run();
      });
  }
  for (const auto& e : engines) lateness.merge(rt::wake_lateness(*e));
}

struct case_result {
  std::string name;
  bool passed = true;
  bool refused = false;  // the host needs a time scale above the cap
  std::vector<std::string> notes;
};

case_result run_case(const std::string& scenario_name, std::uint64_t seed,
                     std::size_t procs, std::uint16_t base_port,
                     const std::string& exe,
                     const std::filesystem::path& work_dir) {
  case_result res;
  res.name = scenario_name + "/seed" + std::to_string(seed);
  const scenario::scenario_spec spec = scenario::find_scenario(scenario_name);

  // In-process simulation reference, identical timing.
  verdict sim_v;
  {
    scenario::deployment d(spec, harness_options(seed));
    d.start();
    d.run();
    sim_v = to_verdict(d.grade(d.collect()));
  }

  // Measure the host just before the workers meet it. A host too late for
  // every time scale fails here, before any fork.
  hdr_histogram lateness;
  calibrate(procs, lateness);
  const std::optional<std::uint32_t> time_scale =
      rt::time_scale_for(lateness, rt_delta_max);
  res.notes.push_back("calibration threads=" + std::to_string(procs) +
                      lateness_fields(lateness) + " time_scale=" +
                      (time_scale ? std::to_string(*time_scale) : "refused"));
  if (!time_scale) {
    res.passed = false;
    res.refused = true;
    return res;
  }

  // Real run: N worker processes against a shared epoch far enough out
  // that every child finishes fork/exec/construction before virtual time
  // starts — a late starter sees virtual time already advanced and fires
  // its early timers clamped in a burst, producing spurious diffs. The
  // headroom scales with the fork fan-out and scenario size rather than
  // assuming a fixed cost on an otherwise-idle box.
  const std::int64_t epoch_headroom_ns =
      400'000'000 +
      200'000'000 * static_cast<std::int64_t>(procs) +
      1'000'000 * static_cast<std::int64_t>(spec.nodes);
  const std::int64_t epoch_ns = steady_now_ns() + epoch_headroom_ns;
  std::vector<pid_t> pids;
  std::vector<std::string> partials;
  for (std::uint32_t p = 0; p < procs; ++p) {
    const std::string out =
        (work_dir / (res.name + "_proc" + std::to_string(p) + ".obs"))
            .string();
    std::filesystem::create_directories(
        std::filesystem::path(out).parent_path());
    partials.push_back(out);
    const pid_t pid = ::fork();
    if (pid == 0) {
      std::vector<std::string> args = {
          exe,          "--worker",
          "--scenario", scenario_name,
          "--seed",     std::to_string(seed),
          "--proc",     std::to_string(p),
          "--procs",    std::to_string(procs),
          "--base-port", std::to_string(base_port),
          "--epoch-ns", std::to_string(epoch_ns),
          "--time-scale", std::to_string(*time_scale),
          "--out",      out};
      std::vector<char*> argv;
      argv.reserve(args.size() + 1);
      for (auto& a : args) argv.push_back(a.data());
      argv.push_back(nullptr);
      ::execv(exe.c_str(), argv.data());
      std::perror("execv");
      std::_Exit(127);
    }
    pids.push_back(pid);
  }
  for (std::size_t p = 0; p < pids.size(); ++p) {
    int status = 0;
    ::waitpid(pids[p], &status, 0);
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
      res.passed = false;
      res.notes.push_back("worker " + std::to_string(p) +
                          " failed (status " + std::to_string(status) + ")");
    }
  }
  if (!res.passed) return res;

  scenario::merged_observation merged;
  try {
    merged = scenario::merge_partial_observations(partials);
  } catch (const std::exception& e) {
    res.passed = false;
    res.notes.push_back(std::string("merge failed: ") + e.what());
    return res;
  }

  // The real run must have honored the Δ bound the checkers assume — a
  // violated bound means the verdicts below grade a run outside the model.
  std::uint64_t delta_violations = 0;
  for (const auto& line : merged.extra) {
    std::istringstream is(line);
    std::string key;
    is >> key;
    if (key == "delta_violations") {
      std::uint64_t v = 0;
      is >> v;
      delta_violations += v;
    } else if (key == "transport" || key == "wake_lateness") {
      res.notes.push_back(line);
    }
  }
  if (delta_violations > 0) {
    res.passed = false;
    res.notes.push_back("real run violated delta_max " +
                        std::to_string(delta_violations) + " time(s)");
  }

  const std::vector<scenario::check_result> real_checks =
      scenario::grade(spec, merged.obs, rt_switch_latency);
  const verdict real_v = to_verdict(real_checks);

  // The gate: identical checker verdicts, check by check.
  for (const auto& [name, sim_pass] : sim_v.by_check) {
    auto it = real_v.by_check.find(name);
    if (it == real_v.by_check.end()) {
      res.passed = false;
      res.notes.push_back("check \"" + name + "\" missing from real run");
    } else if (it->second != sim_pass) {
      res.passed = false;
      res.notes.push_back("verdict diff on \"" + name + "\": sim " +
                          (sim_pass ? "PASS" : "FAIL") + " vs real " +
                          (it->second ? "PASS" : "FAIL"));
      for (const auto& c : real_checks)
        if (c.name == name && !c.detail.empty())
          res.notes.push_back("  real detail: " + c.detail);
    }
  }
  for (const auto& [name, real_pass] : real_v.by_check)
    if (sim_v.by_check.find(name) == sim_v.by_check.end()) {
      res.passed = false;
      res.notes.push_back("check \"" + name + "\" missing from sim run");
    }
  return res;
}

int run_harness(std::size_t procs, const std::vector<std::string>& scenarios,
                const std::vector<std::uint64_t>& seeds,
                std::uint16_t base_port, const std::string& out_dir,
                const std::string& exe) {
  const std::filesystem::path work =
      out_dir.empty() ? std::filesystem::temp_directory_path() /
                            ("hades_rt_" + std::to_string(::getpid()))
                      : std::filesystem::path(out_dir);
  std::filesystem::create_directories(work);

  bool all_passed = true;
  std::ostringstream summary;
  for (const auto& name : scenarios) {
    for (std::uint64_t seed : seeds) {
      const case_result r = run_case(name, seed, procs, base_port, exe, work);
      all_passed = all_passed && r.passed;
      const char* verdict = r.passed ? "MATCH" : r.refused ? "REFUSED" : "DIFF";
      std::printf("%-28s %s\n", r.name.c_str(), verdict);
      summary << r.name << ' ' << verdict << '\n';
      for (const auto& n : r.notes) {
        std::printf("    %s\n", n.c_str());
        summary << "    " << n << '\n';
      }
    }
  }
  std::ofstream(work / "summary.txt") << summary.str()
                                      << (all_passed ? "PASS\n" : "FAIL\n");
  std::printf("realtime harness: %s\n", all_passed ? "PASS" : "FAIL");
  return all_passed ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  bool worker = false, harness = false;
  std::string scenario_name, out;
  std::uint64_t seed = 1;
  std::uint32_t proc = 0;
  std::size_t procs = 4;
  std::uint16_t base_port = 0;
  std::int64_t epoch_ns = 0;
  double time_scale = 1.0;  // worker only: the harness measures the host
  std::vector<std::string> scenarios = {"clean", "single_crash",
                                        "crash_recover", "partition_heal"};
  std::vector<std::uint64_t> seeds = {1, 2};

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--worker") {
      worker = true;
    } else if (arg == "--harness") {
      harness = true;
    } else if (arg == "--scenario") {
      scenario_name = next();
    } else if (arg == "--scenarios") {
      scenarios = split_csv(next());
    } else if (arg == "--seed") {
      seed = std::strtoull(next().c_str(), nullptr, 10);
    } else if (arg == "--seeds") {
      seeds.clear();
      for (const auto& s : split_csv(next()))
        seeds.push_back(std::strtoull(s.c_str(), nullptr, 10));
    } else if (arg == "--proc") {
      proc = static_cast<std::uint32_t>(std::strtoul(next().c_str(), nullptr, 10));
    } else if (arg == "--procs") {
      procs = std::strtoul(next().c_str(), nullptr, 10);
    } else if (arg == "--base-port") {
      base_port = static_cast<std::uint16_t>(std::strtoul(next().c_str(), nullptr, 10));
    } else if (arg == "--epoch-ns") {
      epoch_ns = std::strtoll(next().c_str(), nullptr, 10);
    } else if (arg == "--time-scale") {
      time_scale = std::strtod(next().c_str(), nullptr);
    } else if (arg == "--out") {
      out = next();
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      return 2;
    }
  }

  if (base_port == 0)
    base_port = static_cast<std::uint16_t>(
        40000 + (::getpid() * 131) % 20000);  // avoid collisions between runs

  try {
    if (worker) {
      if (scenario_name.empty() || out.empty()) {
        std::fprintf(stderr,
                     "--worker needs --scenario, --out (plus --proc/--procs/"
                     "--base-port/--epoch-ns)\n");
        return 2;
      }
      return run_worker(scenario_name, seed, proc, procs, base_port, epoch_ns,
                        time_scale, out);
    }
    if (harness)
      return run_harness(procs, scenarios, seeds, base_port, out,
                         "/proc/self/exe");
  } catch (const std::exception& e) {
    std::fprintf(stderr, "hades_node: %s\n", e.what());
    return 1;
  }
  std::fprintf(stderr, "pick a mode: --harness or --worker\n");
  return 2;
}
