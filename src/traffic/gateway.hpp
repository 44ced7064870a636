// The per-node traffic gateway (DESIGN.md, "Traffic edge & admission
// control"): the glue between an open-loop arrival process and the HADES
// dispatcher.
//
// At start() the gateway registers one aperiodic task per request class
// (single Code_EU on its node, wcet = class cost, deadline = class
// deadline, abort-on-miss so a missed request releases its admission
// charge), installs the node's admission and retire hooks, and arms the
// arrival pump: each arrival fires exactly at its generated date on the
// node's shard, stashes the materialized request, and calls straight into
// `system::activate_internal`. The admission hook prices the stashed
// request against the controller — rejected arrivals cost one monitor
// event and nothing else; admitted ones record their (task, instance)
// under the controller handle, so completion, deadline-miss abort, and
// value-density shedding all release the exact charge they admitted. That
// by-handle table is the gateway's only request map: it is as long as the
// controller pool's high-water, so the retire hook finds an instance's
// handle by scanning it.
//
// End-to-end latency (activation to completion) lands in an HDR histogram
// that allocates a row the first time a latency lands in its range;
// per-node instances merge deterministically in node order at collection.
// Mode-change renegotiation arrives via renegotiate(), routed to this
// node's shard by the deployment's mode hook; periodic exact re-validation
// runs off the hot path on the same shard.
#pragma once

#include <cstdint>
#include <vector>

#include "core/system.hpp"
#include "traffic/admission.hpp"
#include "traffic/arrival.hpp"
#include "util/hdr_histogram.hpp"

namespace hades::traffic {

struct gateway_config {
  arrival_params arrivals;  // classes/class_count filled from `classes`
  std::vector<request_class> classes;
  admission_controller::config admission;
  /// Arrival pump window (absolute dates).
  time_point start = time_point::zero() + duration::milliseconds(5);
  time_point stop = time_point::infinity();
  /// Off-hot-path exact feasibility re-validation cadence.
  duration revalidate_period = duration::milliseconds(25);
};

class gateway {
 public:
  gateway(core::system& sys, node_id node, gateway_config cfg,
          std::uint64_t seed);

  /// Register class tasks, install the node's admission/retire hooks, arm
  /// the arrival pump and the re-validation chain. Call once, before run.
  void start();

  /// Mode-change renegotiation: move the admitted-work CPU fraction and
  /// shed until feasible. Must execute on this node's shard.
  void renegotiate(double available);

  // --- observability --------------------------------------------------------
  struct totals {
    std::uint64_t offered = 0;
    std::uint64_t admitted = 0;
    std::uint64_t rejected = 0;
    std::uint64_t shed = 0;
    std::uint64_t completed = 0;
    std::uint64_t missed = 0;        // admitted but deadline-aborted
    std::uint64_t revalidations = 0;
    std::uint64_t revalidation_failures = 0;
    std::uint64_t renegotiations = 0;
  };
  [[nodiscard]] totals snapshot() const;
  /// Empty until the first request completes.
  [[nodiscard]] const hdr_histogram& latency() const { return latency_; }
  [[nodiscard]] node_id node() const { return node_; }
  [[nodiscard]] admission_controller& controller() { return ctrl_; }
  /// Deterministic fold of the full decision + latency history.
  [[nodiscard]] std::uint64_t digest() const;

 private:
  void fire();
  void arm_next();
  [[nodiscard]] std::int32_t class_of(task_id t) const;

  core::system& sys_;
  hades::runtime& rt_;
  node_id node_;
  gateway_config cfg_;
  arrival_process arr_;
  admission_controller ctrl_;
  hdr_histogram latency_;  // holds the rows its latencies reach
  std::vector<task_id> tasks_;                   // per class
  std::vector<std::pair<task_id, instance_number>> owner_;  // by handle
  request pending_;
  bool pending_valid_ = false;
  admission_controller::decision last_;
  std::uint64_t missed_ = 0;
  std::uint64_t renegotiations_ = 0;
  bool started_ = false;
};

}  // namespace hades::traffic
