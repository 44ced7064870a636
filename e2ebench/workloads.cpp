#include "workloads.hpp"

#include <stdexcept>
#include <utility>

#include "services/channels.hpp"

namespace e2ebench {

using namespace hades;
using namespace hades::literals;
using scenario::scenario_spec;

namespace {

// Action dates sit at odd sub-millisecond offsets, never on a service tick
// and never within the 20us lookahead of one (the registry's rule).

scenario_spec base(std::string name) {
  scenario_spec s;
  s.name = std::move(name);
  s.p.name = s.name;
  s.bcast.total_order = true;
  s.bcast.stability_delay = 2_ms;
  s.thresholds.misses_for_degraded = 1000;
  s.thresholds.misses_for_safe = 1000;
  s.thresholds.crashes_for_degraded = 1;
  s.thresholds.crashes_for_safe = 3;
  return s;
}

// --- fleet_1k: the registry's cluster_crash_1k ------------------------------

scenario_spec fleet_1k() {
  scenario_spec s = base("cluster_crash_1k");
  s.nodes = 1000;
  s.horizon = 1300_ms;
  s.fd.cluster_size = 50;
  s.bcast.diffusion = svc::reliable_broadcast::diffusion_kind::tree;
  s.bcast_nodes = 4;
  s.with_clock_sync = true;
  s.clock_sync_cluster = 50;
  s.p.crash(time_point::at(250_ms + 131_us), 137)
      .recover(time_point::at(500_ms + 151_us), 137)
      .crash(time_point::at(600_ms + 137_us), 300)  // aggregator of cluster 6
      .recover(time_point::at(850_ms + 173_us), 300);
  s.modes.final_mode = svc::op_mode::degraded;
  return s;
}

// --- edge_16: edge_burst_storm's traffic widened to 14 gateways -------------

scenario_spec edge_16() {
  scenario_spec s = base("edge_16");
  s.nodes = 16;
  s.bcast_nodes = 2;
  s.traffic.gateway_nodes = 14;  // nodes 1..14
  s.traffic.mix = traffic::arrival_mix::bursty;
  s.traffic.rate_per_s = 900.0;
  // Node 15 is the one node that is neither node 0 (mode manager) nor a
  // gateway; its crash forces the degraded-mode renegotiation.
  s.p.crash(time_point::at(700_ms + 151_us), 15);
  s.modes.final_mode = svc::op_mode::degraded;
  return s;
}

// --- sweep_8: the fourteen curated non-traffic 8-node cells -----------------

std::vector<scenario_spec> sweep_8() {
  std::vector<scenario_spec> out;
  out.push_back(base("clean"));
  {
    scenario_spec s = base("single_crash");
    s.p.crash(time_point::at(500_ms + 137_us), 5);
    s.modes.final_mode = svc::op_mode::degraded;
    out.push_back(std::move(s));
  }
  {
    scenario_spec s = base("crash_recover");
    s.p.crash(time_point::at(400_ms + 137_us), 2)
        .recover(time_point::at(900_ms + 251_us), 2);
    s.modes.final_mode = svc::op_mode::degraded;
    out.push_back(std::move(s));
  }
  {
    scenario_spec s = base("rolling_crashes");
    s.p.crash(time_point::at(300_ms + 137_us), 1)
        .crash(time_point::at(650_ms + 173_us), 4)
        .crash(time_point::at(1000_ms + 211_us), 6);
    s.modes.final_mode = svc::op_mode::safe;
    out.push_back(std::move(s));
  }
  {
    scenario_spec s = base("partition_heal");
    s.p.split(time_point::at(400_ms + 137_us), {{0, 1, 2, 3}, {4, 5, 6, 7}})
        .heal(time_point::at(900_ms + 157_us));
    out.push_back(std::move(s));
  }
  {
    scenario_spec s = base("partition_degrades_mode");
    s.p.split(time_point::at(450_ms + 139_us), {{0, 1, 2, 3}, {4, 5, 6, 7}})
        .heal(time_point::at(950_ms + 163_us));
    s.thresholds.suspicions_for_degraded = 2;
    s.modes.final_mode = svc::op_mode::degraded;
    out.push_back(std::move(s));
  }
  {
    scenario_spec s = base("asymmetric_partition");
    const time_point down_at = time_point::at(400_ms + 141_us);
    const time_point up_at = time_point::at(900_ms + 167_us);
    for (node_id src = 4; src < 8; ++src)
      for (node_id dst = 0; dst < 4; ++dst)
        s.p.link_down(down_at, src, dst).link_up(up_at, src, dst);
    out.push_back(std::move(s));
  }
  {
    scenario_spec s = base("omission_storm");
    s.fd.timeout = 31_ms;
    s.p.omission_burst(time_point::at(350_ms + 137_us), 1, 0, 2,
                       svc::ch_heartbeat)
        .omission_burst(time_point::at(350_ms + 139_us), 3, 2, 2,
                        svc::ch_heartbeat)
        .omission_burst(time_point::at(700_ms + 149_us), 6, 7, 2,
                        svc::ch_heartbeat)
        .omission_burst(time_point::at(700_ms + 151_us), 0, 4, 2,
                        svc::ch_heartbeat)
        .omission_burst(time_point::at(1050_ms + 167_us), 5, 3, 2,
                        svc::ch_heartbeat)
        .omission_burst(time_point::at(500_ms + 171_us), 2, 5, 3,
                        svc::ch_reliable_bcast)
        .omission_burst(time_point::at(800_ms + 181_us), 7, 1, 3,
                        svc::ch_reliable_bcast);
    out.push_back(std::move(s));
  }
  {
    scenario_spec s = base("perf_fault_burst");
    s.p.perf_fault(time_point::at(400_ms + 97_us), 0.3, 2500_us)
        .perf_fault(time_point::at(800_ms + 113_us), 0.0, duration::zero());
    s.expect_order_faults = true;
    out.push_back(std::move(s));
  }
  {
    scenario_spec s = base("drifting_clocks");
    s.with_clock_sync = true;
    s.p.clock_drift(time_point::at(200_ms + 101_us), 1, 350e-6)
        .clock_drift(time_point::at(200_ms + 103_us), 6, -250e-6)
        .clock_step(time_point::at(700_ms + 131_us), 3, 1500_us);
    out.push_back(std::move(s));
  }
  {
    scenario_spec s = base("byzantine_clocks");
    s.with_clock_sync = true;
    s.clock_sync_max_faulty = 2;
    s.p.clock_byzantine(time_point::at(250_ms + 107_us), 2, 2.2,
                        duration::microseconds(900))
        .clock_byzantine(time_point::at(250_ms + 109_us), 5, 0.4,
                         duration::microseconds(-700))
        .clock_drift(time_point::at(200_ms + 113_us), 1, 120e-6)
        .clock_drift(time_point::at(200_ms + 127_us), 6, -90e-6);
    out.push_back(std::move(s));
  }
  auto overload = [](std::string name, bool spanning) {
    scenario_spec s = base(std::move(name));
    s.with_task_load = true;
    s.spanning_task_load = spanning;
    s.thresholds.misses_for_degraded = 1;
    s.thresholds.misses_for_safe = 4;
    s.modes.final_mode = svc::op_mode::safe;
    return s;
  };
  out.push_back(overload("degraded_overload", false));
  out.push_back(overload("degraded_overload_spanning", true));
  {
    scenario_spec s = base("replication_failover_rolling_crashes");
    s.p.crash(time_point::at(380_ms + 137_us), 1)
        .crash(time_point::at(560_ms + 149_us), 2)
        .crash(time_point::at(740_ms + 211_us), 3)
        .recover(time_point::at(980_ms + 173_us), 1)
        .recover(time_point::at(1160_ms + 251_us), 2)
        .recover(time_point::at(1320_ms + 191_us), 3);
    s.modes.final_mode = svc::op_mode::safe;
    out.push_back(std::move(s));
  }
  return out;
}

}  // namespace

workload make_workload(const std::string& name) {
  workload w;
  w.name = name;
  if (name == "fleet_1k") {
    w.cells.push_back(fleet_1k());
    w.backend.backend = "sharded";
    w.backend.shards = 4;
    w.backend.workers = 0;  // serial rounds: no worker threads
  } else if (name == "edge_16") {
    w.cells.push_back(edge_16());
    w.backend.backend = "sim";
  } else if (name == "sweep_8") {
    w.cells = sweep_8();
    w.backend.backend = "sim";
  } else {
    throw std::invalid_argument("unknown workload: " + name);
  }
  return w;
}

scenario::deployment_options cell_options(const workload& w,
                                          std::uint64_t seed) {
  scenario::deployment_options o;
  o.backend = w.backend;
  o.seed = seed;
  return o;
}

}  // namespace e2ebench
