// Avionics scenario (the application domain the paper targets: its planned
// validation was "a large real-time application from the avionics
// application domain", section 7).
//
// Three nodes: a sensor node samples the air-data state, a compute node
// runs the control law, an actuator node applies surface commands. The
// pipeline is one distributed HEUG (remote precedence constraints carry the
// data across the LAN through the net_mngt task). Robustness services are
// layered on: clock synchronization across the drifting node clocks, a
// heartbeat fault detector, and a mode manager that degrades the flight
// mode on deadline misses and goes SAFE when a node crashes — which this
// demo triggers at t = 600ms.
#include <cstdio>

#include "core/system.hpp"
#include "sched/edf.hpp"
#include "services/clock_sync.hpp"
#include "services/fault_detector.hpp"
#include "services/mode_manager.hpp"

using namespace hades;
using namespace hades::literals;

int main() {
  core::system::config cfg;
  cfg.costs = core::cost_model::chorus_like();
  cfg.clock_drift = {4e-5, -3e-5, 1e-5};
  cfg.net.delta_min = 20_us;
  cfg.net.delta_max = 80_us;
  core::system sys(3, cfg);

  // --- the control pipeline: sample -> control -> actuate ----------------
  core::task_builder pipe("fcs");
  pipe.deadline(8_ms).law(core::arrival_law::periodic(10_ms));
  core::code_eu sample;
  sample.name = "sample";
  sample.processor = 0;
  sample.wcet = 900_us;
  core::code_eu control;
  control.name = "control";
  control.processor = 1;
  control.wcet = 2_ms;
  control.attrs.latest_offset = 5_ms;  // omission monitoring hook
  core::code_eu actuate;
  actuate.name = "actuate";
  actuate.processor = 2;
  actuate.wcet = 600_us;
  const auto i_sample = pipe.add_code_eu(std::move(sample));
  const auto i_control = pipe.add_code_eu(std::move(control));
  const auto i_actuate = pipe.add_code_eu(std::move(actuate));
  pipe.precede(i_sample, i_control, 128).precede(i_control, i_actuate, 64);
  const auto fcs = sys.register_task(pipe.build());

  // A slower navigation task sharing the compute node.
  core::task_builder navb("nav");
  navb.deadline(50_ms).law(core::arrival_law::periodic(50_ms));
  navb.add_code_eu("nav", 1, 6_ms);
  const auto nav = sys.register_task(navb.build());

  for (node_id n = 0; n < 3; ++n)
    sys.attach_policy(n, std::make_shared<sched::edf_policy>());

  // --- robustness services -------------------------------------------------
  svc::clock_sync_service::params cs;
  cs.resync_period = 100_ms;
  cs.collect_window = 1_ms;
  svc::clock_sync_service clocks(sys, cs);
  clocks.start();

  svc::fault_detector fd(sys, {10_ms, 25_ms});
  fd.start();

  svc::mode_manager modes(sys, {3, 10, 1});
  modes.on_switch([&](svc::op_mode from, svc::op_mode to, time_point at) {
    std::printf("%-10s MODE SWITCH %s -> %s\n", at.to_string().c_str(),
                svc::to_string(from), svc::to_string(to));
  });

  // Crash the sensor node mid-flight.
  sys.engine().at(time_point::at(600_ms), [&] {
    std::printf("t=600ms    injecting crash of node 0 (sensor)\n");
    sys.crash_node(0);
  });

  sys.run_for(1_s);

  std::printf("\nFlight-control demo — 1s simulated on 3 nodes\n");
  std::printf("fcs: activations=%llu completions=%llu misses=%zu\n",
              static_cast<unsigned long long>(sys.stats_for(fcs).activations),
              static_cast<unsigned long long>(sys.stats_for(fcs).completions),
              sys.mon().count_for_task(core::monitor_event_kind::deadline_miss,
                                       fcs));
  std::printf("nav: completions=%llu\n",
              static_cast<unsigned long long>(sys.stats_for(nav).completions));
  std::printf("clock skew at end: %s (drift would give ~70us/s unsynced)\n",
              clocks.max_skew({1, 2}).to_string().c_str());
  std::printf("node 0 suspected by node 1: %s\n",
              fd.suspects(1, 0) ? "yes" : "no");
  std::printf("final mode: %s\n", svc::to_string(modes.mode()));
  std::printf("monitor events after the crash (first 5):\n");
  int shown = 0;
  for (const auto& e : sys.mon().events()) {
    if (e.at < time_point::at(600_ms) ||
        !core::monitored_kinds.contains(e.kind))
      continue;
    if (++shown > 5) break;
    std::printf("  %s [%s] %s\n", e.at.to_string().c_str(),
                core::to_string(e.kind), sys.mon().subject_text(e).c_str());
  }
  return 0;
}
