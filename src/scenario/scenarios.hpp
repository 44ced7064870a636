// The named scenario registry (DESIGN.md, "Scenario layer").
//
// A `scenario_spec` bundles a fault plan with the workload and service
// parameters it runs against and the expectations the checkers grade. The
// registry ships the campaign's standing family: clean, single-crash,
// crash-recover, rolling crashes, partition-heal, a suspicion-degraded
// partition, an asymmetric (one-directional) partition, an omission storm
// at the detector's omission-degree boundary, a performance-fault burst,
// drifting clocks, Byzantine clocks against clock_sync's trimming, and a
// degraded-mode overload. `hades_campaign` sweeps every registered
// scenario across seeds and shard counts {1, 2, 4}.
#pragma once

#include <string>
#include <vector>

#include "scenario/plan.hpp"
#include "services/fault_detector.hpp"
#include "services/mode_manager.hpp"
#include "services/reliable_comm.hpp"
#include "traffic/arrival.hpp"

namespace hades::scenario {

struct mode_expectation {
  svc::op_mode final_mode = svc::op_mode::normal;
  /// Every observed switch must have a monitor trigger within this bound.
  duration switch_latency = duration::milliseconds(1);
};

struct scenario_spec {
  std::string name;
  std::string description;
  std::size_t nodes = 8;
  duration horizon = duration::milliseconds(1500);

  svc::fault_detector::params fd{duration::milliseconds(10),
                                 duration::milliseconds(35)};
  svc::reliable_broadcast::params bcast;  // total_order set per scenario
  svc::mode_manager::thresholds thresholds;
  mode_expectation modes;

  bool with_clock_sync = false;
  /// f for clock_sync's trimmed average (n >= 3f+1): the byzantine_clocks
  /// scenario injects up to f Byzantine crystals and the skew checker
  /// grades only the correct-clock nodes.
  int clock_sync_max_faulty = 0;
  /// 0 = flat clock-sync rounds; C > 0 = clustered two-phase rounds.
  std::size_t clock_sync_cluster = 0;
  /// 0 = every node runs the broadcast workload; k > 0 = only k origins,
  /// spread evenly over [0, nodes) — at 1k nodes an all-origins workload
  /// would swamp the run without grading anything extra.
  std::size_t bcast_nodes = 0;
  bool with_task_load = false;     // overloaded EDF task on node 0
  /// Adds a shard-spanning task pair on top of the overload: a periodic
  /// graph whose EUs alternate between node 0 and the last node (remote
  /// precedences both directions) and a condition-coupled watcher on a
  /// middle node — exercising creation/activation tokens, cross-shard
  /// condition wakeups and mode-switch capture across shards.
  bool spanning_task_load = false;
  bool expect_order_faults = false;  // performance faults may breach Delta
  duration skew_bound = duration::microseconds(300);

  /// Traffic edge (the open-loop gateway family). gateway_nodes == 0 means
  /// no gateways; k > 0 places gateways on nodes [1, 1 + k) — node 0 keeps
  /// the mode manager and the overload task, and edge plans must never
  /// crash a gateway node (a crashed gateway's admitted instances can no
  /// longer retire their charges).
  struct traffic_params {
    std::size_t gateway_nodes = 0;
    traffic::arrival_mix mix = traffic::arrival_mix::poisson;
    double rate_per_s = 2500.0;
    /// CPU fraction the admission accumulator may book per mode; the
    /// deployment's mode hook renegotiates every gateway on a switch.
    double available = 0.6;
    double degraded_available = 0.35;
    double safe_available = 0.15;
    /// check_miss_budget: deadline-aborted admissions / admitted.
    double miss_budget = 0.02;
  };
  traffic_params traffic;

  plan p;
};

/// All registered scenarios, in campaign order.
std::vector<scenario_spec> all_scenarios();

/// The 1k-node scale family (hierarchical detector, tree diffusion,
/// clustered clock sync). Registered separately so the default campaign,
/// the smoke gate and the tier-1 scenario tests keep their 8-node runtime;
/// `hades_campaign --scale` (or naming them with --scenario) sweeps them.
std::vector<scenario_spec> scale_scenarios();

/// Look up one scenario by name (standing or scale family); throws
/// hades::invariant_violation if absent.
scenario_spec find_scenario(const std::string& name);

}  // namespace hades::scenario
