// Property checkers for scenario runs (DESIGN.md, "Scenario layer").
//
// Each checker grades one of the paper's guarantees against the observed
// run, using the plan as ground truth for when faults were in force:
//
//  * perfect detector — no correct node is ever suspected outside an
//    unreachability window, every sufficiently long unreachability window
//    is detected within timeout + period + delta_max, and reachability
//    restored is noticed within period + delta_max;
//  * reliable broadcast — validity (a message broadcast by a correct node
//    in quiet time reaches every correct node), agreement (all-or-nothing
//    among correct nodes for quiet messages), and Delta-delivery total
//    order (pairwise-consistent delivery order over common messages);
//  * mode management — the manager lands in the expected final mode and
//    every switch is explained by a monitor trigger (deadline miss, crash,
//    recovery) within a bounded latency;
//  * clock synchronization — the maximum pairwise logical-clock skew over
//    correct nodes stays under the configured bound despite drift/step
//    faults.
//
// Checkers are pure functions over (plan, observation) so the campaign can
// evaluate identical semantics on every backend and compare the verdicts.
// Beyond the observation, check_broadcast holds O(nodes + messages) and
// check_detector O(nodes + suspicions), with no allocation per delivery or
// per suspicion (DESIGN.md, "Property checkers").
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "scenario/plan.hpp"
#include "services/mode_manager.hpp"
#include "services/reliable_comm.hpp"

namespace hades::scenario {

struct check_result {
  std::string name;
  bool passed = true;
  std::string detail;  // human-readable; empty when passed with nothing to say
};

/// Everything the checkers need from one finished run, collected by the
/// campaign driver. All containers are in deterministic order.
struct observation {
  std::size_t nodes = 0;
  time_point horizon;

  // Fault detector.
  struct suspicion {
    node_id observer = invalid_node;
    node_id subject = invalid_node;
    time_point at;
  };
  std::vector<suspicion> suspicions;   // sorted by (at, observer, subject)
  std::vector<suspicion> recoveries;   // sorted by (at, observer, subject)
  duration detect_bound = duration::zero();   // timeout + period + delta_max (+slack)
  duration recover_bound = duration::zero();  // period + delta_max (+slack)

  // Reliable broadcast. sent_at[origin][i] is the send date of the
  // (i+1)-th broadcast from `origin` (service seq numbers start at 1).
  svc::delivery_logs delivery_logs;
  std::vector<std::vector<time_point>> sent_at;
  duration delivery_bound = duration::zero();  // worst-case Delta-delivery
  std::uint64_t order_faults = 0;

  // Mode manager + monitor.
  svc::op_mode final_mode = svc::op_mode::normal;
  struct mode_switch {
    svc::op_mode from = svc::op_mode::normal;
    svc::op_mode to = svc::op_mode::normal;
    time_point at;
  };
  std::vector<mode_switch> mode_switches;
  std::vector<time_point> trigger_events;  // misses, crashes, recoveries
  std::size_t deadline_misses = 0;
  /// Bitmask over core::monitor_event_kind of every event kind the run
  /// recorded — one axis of the fuzzer's coverage map (scenario/coverage.hpp)
  /// and free to collect. Order-independent, so shard-count invariant.
  std::uint32_t event_kinds = 0;

  // Clocks (only when the scenario runs clock_sync).
  bool skew_checked = false;
  duration max_skew = duration::zero();
  duration skew_bound = duration::zero();

  // Traffic edge (only when the scenario runs gateways). Counters are the
  // node-order sum over gateways; digests stay per-gateway in node order.
  bool traffic_checked = false;
  std::uint64_t traffic_offered = 0;
  std::uint64_t traffic_admitted = 0;
  std::uint64_t traffic_rejected = 0;
  std::uint64_t traffic_shed = 0;
  std::uint64_t traffic_completed = 0;
  std::uint64_t traffic_missed = 0;       // admitted but deadline-aborted
  std::uint64_t traffic_outstanding = 0;  // still in flight at the horizon
  std::uint64_t traffic_revalidations = 0;
  std::uint64_t traffic_revalidation_failures = 0;
  std::uint64_t traffic_renegotiations = 0;
  double miss_budget = 0.0;
  std::vector<std::uint64_t> gateway_digests;
  // Merged end-to-end latency quantiles (ns).
  std::int64_t latency_p50 = 0;
  std::int64_t latency_p99 = 0;
  std::int64_t latency_p999 = 0;
};

/// Sort suspicion or recovery events into the observation's canonical
/// (at, observer, subject) order.
void sort_suspicions(std::vector<observation::suspicion>& v);

std::vector<check_result> check_detector(const plan& p, const observation& o);
std::vector<check_result> check_broadcast(const plan& p, const observation& o,
                                          bool expect_order_faults);
std::vector<check_result> check_modes(const plan& p, const observation& o,
                                      svc::op_mode expected_final,
                                      duration switch_latency);
std::vector<check_result> check_clocks(const observation& o);
/// Deadline-miss budget for the traffic edge: the admission accounting
/// identities hold (offered = admitted + rejected; admitted = completed +
/// missed + shed + outstanding), traffic actually flowed, every off-path
/// exact re-validation agreed with the incremental accumulator, and the
/// deadline-aborted fraction of admitted work stays within the budget.
std::vector<check_result> check_miss_budget(const observation& o);

struct scenario_spec;  // scenario/scenarios.hpp

/// Every checker a scenario run is graded by, in verdict order: detector,
/// broadcast, modes (reacting within `switch_latency`), clocks and the
/// traffic miss budget. Simulated cells and the realtime harness's merged
/// runs both grade through here.
std::vector<check_result> grade(const scenario_spec& spec,
                                const observation& obs,
                                duration switch_latency);

}  // namespace hades::scenario
