// One scenario deployment — the standing HADES stack a campaign cell (or a
// realtime worker process) builds around a `scenario_spec`: system + fault
// detector + Δ-ordered reliable broadcast + mode manager + optional clock
// sync + the periodic broadcast workload + observation sinks.
//
// Extracted from the campaign's run_cell so the multi-process harness can
// run the *same construction, same dates, same services* against a
// different runtime backend. Lifecycle:
//
//   deployment d(spec, opt);   // build everything, arm workload timers
//   /* wiring window: construct a socket transport — nothing here may
//      schedule */
//   d.start();                 // fd/sync start + scenario plan applied
//   /* start the transport: it reads the network's fault program */
//   d.run();                   // run_until(horizon)
//   observation obs = d.collect();
//   auto checks = d.grade(obs);
//
// Construction and start() preserve the exact scheduling-call order of the
// historical run_cell — same-date FIFO positions feed the campaign's
// determinism checksums.
#pragma once

#include <memory>
#include <vector>

#include "core/system.hpp"
#include "scenario/checkers.hpp"
#include "scenario/scenarios.hpp"
#include "services/clock_sync.hpp"
#include "services/fault_detector.hpp"
#include "services/mode_manager.hpp"
#include "services/reliable_comm.hpp"
#include "traffic/gateway.hpp"

namespace hades::scenario {

struct deployment_options {
  /// Backend selection (default: the single-engine "sim" backend).
  hades::runtime::options backend;
  std::uint64_t seed = 1;
  /// Wire timing. The historical campaign values; the realtime harness
  /// widens them to bounds the wall clock can honor.
  sim::network::params net{duration::microseconds(20),
                           duration::microseconds(60), duration::zero()};
  /// Extra slack added to each service's self-reported bound before the
  /// checkers grade against it.
  duration bound_margin = duration::milliseconds(1);
  /// Overrides spec.modes.switch_latency in `grade` when nonzero (realtime
  /// runs allow more reaction latency than the simulated 60us LAN).
  duration switch_latency = duration::zero();
};

class deployment {
 public:
  deployment(const scenario_spec& spec, deployment_options opt);
  ~deployment();
  deployment(const deployment&) = delete;
  deployment& operator=(const deployment&) = delete;

  /// Start services and apply the scenario's fault plan to the system's
  /// network, which judges every frame — cross-process ones included on
  /// the realtime backend.
  void start();
  /// Drive to the horizon (the realtime backend makes this wall-clock).
  void run();
  /// Gather every checker input; suspicions and recoveries come from the
  /// monitor's detector records. Call once, after run(). The observation
  /// is handed over, not copied: the delivery logs move out of the
  /// broadcast service, which is left with empty logs.
  [[nodiscard]] observation collect();
  /// `scenario::grade` of `obs` against this deployment's spec, with
  /// `deployment_options::switch_latency` when set.
  [[nodiscard]] std::vector<check_result> grade(const observation& obs) const;

  [[nodiscard]] core::system& sys() { return *sys_; }
  [[nodiscard]] svc::fault_detector& fd() { return *fd_; }
  [[nodiscard]] svc::reliable_broadcast& bcast() { return *bcast_; }
  [[nodiscard]] svc::mode_manager& modes() { return *modes_; }
  [[nodiscard]] svc::clock_sync_service* sync() { return sync_.get(); }
  [[nodiscard]] const scenario_spec& spec() const { return spec_; }
  [[nodiscard]] const std::vector<std::unique_ptr<traffic::gateway>>&
  gateways() const {
    return gateways_;
  }

 private:
  scenario_spec spec_;
  deployment_options opt_;
  std::unique_ptr<core::system> sys_;
  std::unique_ptr<svc::fault_detector> fd_;
  std::unique_ptr<svc::reliable_broadcast> bcast_;
  std::unique_ptr<svc::mode_manager> modes_;
  std::unique_ptr<svc::clock_sync_service> sync_;
  std::vector<std::unique_ptr<traffic::gateway>> gateways_;

  observation obs_;  // bounds + sent_at filled at construction
  bool started_ = false;
  bool collected_ = false;
};

}  // namespace hades::scenario
