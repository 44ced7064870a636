#include "scenario/deployment.hpp"

#include <algorithm>
#include <utility>

#include "sched/edf.hpp"

namespace hades::scenario {

using namespace hades::literals;

deployment::deployment(const scenario_spec& spec, deployment_options opt)
    : spec_(spec), opt_(std::move(opt)) {
  core::system::config cfg;
  cfg.costs = core::cost_model::zero();
  cfg.kernel_background = false;
  cfg.net = opt_.net;
  cfg.seed = opt_.seed;
  cfg.tracing = false;
  cfg.runtime = opt_.backend;
  sys_ = std::make_unique<core::system>(spec_.nodes, cfg);

  fd_ = std::make_unique<svc::fault_detector>(*sys_, spec_.fd);
  bcast_ = std::make_unique<svc::reliable_broadcast>(*sys_, spec_.bcast);
  // Tree diffusion re-parents around suspected relays; harmless no-op for
  // flood cells. fd outlives bcast (declared first), so the capture is safe.
  bcast_->set_suspicion_oracle(
      [fd = fd_.get()](node_id o, node_id s) { return fd->suspects(o, s); });
  modes_ = std::make_unique<svc::mode_manager>(*sys_, spec_.thresholds);
  if (spec_.with_clock_sync) {
    svc::clock_sync_service::params sp;
    sp.resync_period = 100_ms;
    sp.collect_window = 2_ms;
    sp.max_faulty = spec_.clock_sync_max_faulty;
    sp.cluster_size = spec_.clock_sync_cluster;
    sync_ = std::make_unique<svc::clock_sync_service>(*sys_, sp);
  }

  obs_.nodes = spec_.nodes;
  obs_.horizon = time_point::at(spec_.horizon);
  // The detector knows its own worst case for whichever topology the spec
  // configured (flat or hierarchical); checker margin on top.
  obs_.detect_bound = fd_->detection_bound() + opt_.bound_margin;
  obs_.recover_bound = fd_->recovery_bound() + opt_.bound_margin;
  obs_.delivery_bound = bcast_->delivery_bound(64) + opt_.bound_margin;
  obs_.skew_bound = spec_.skew_bound;

  // Suspicions and recoveries are read from the monitor in collect(). Mode
  // switches all occur on the manager's home shard, so one vector suffices.
  modes_->on_switch([this](svc::op_mode from, svc::op_mode to, time_point at) {
    obs_.mode_switches.push_back({from, to, at});
  });

  if (spec_.with_task_load) {
    core::task_builder overload("overload");
    overload.deadline(5_ms).law(
        core::arrival_law::periodic(20_ms, 600_ms + 171_us));
    overload.add_code_eu("burn", 0, 9_ms);
    sys_->register_task(overload.build());
    sys_->attach_policy(0, std::make_shared<sched::edf_policy>());
  }
  if (spec_.spanning_task_load) {
    // Shard-spanning load (control-token completeness gate): a graph whose
    // EUs alternate between node 0 and the far node — registration sends
    // creation tokens to the remote home, the precedences cross shards in
    // both directions, and the far EU sets a condition that a watcher on a
    // middle node waits on (cond_set -> authority -> cond_update wakeup).
    // Infinite deadlines keep these out of the overload's miss accounting.
    const auto far = static_cast<node_id>(spec_.nodes - 1);
    const auto mid = static_cast<node_id>(spec_.nodes / 2);
    core::task_builder span("span");
    span.law(core::arrival_law::periodic(15_ms, 300_ms + 137_us));
    const auto a = span.add_code_eu("a", 0, 150_us);
    core::code_eu far_eu;
    far_eu.name = "b";
    far_eu.processor = far;
    far_eu.wcet = 150_us;
    far_eu.sets = {1};
    const auto b = span.add_code_eu(std::move(far_eu));
    const auto c = span.add_code_eu("c", 0, 150_us);
    span.precede(a, b, 64).precede(b, c, 64);
    sys_->register_task(span.build());

    core::task_builder watch("watch");
    watch.law(core::arrival_law::periodic(15_ms, 300_ms + 251_us));
    core::code_eu w_eu;
    w_eu.name = "w";
    w_eu.processor = mid;
    w_eu.wcet = 100_us;
    w_eu.waits_all = {1};
    w_eu.clears = {1};
    watch.add_code_eu(std::move(w_eu));
    sys_->register_task(watch.build());
  }

  // Per-node application traffic: node-anchored periodic broadcasts (all of
  // a node's sends must execute on the shard owning the node — the
  // determinism rule of DESIGN.md, "Scenario layer"). Periods are
  // coprime-ish per node so the traffic pattern exercises interleavings.
  // Armed at construction — the same scheduling-call position run_cell had.
  obs_.sent_at.assign(spec_.nodes, {});
  const time_point stop = obs_.horizon - obs_.delivery_bound - 5_ms;
  // bcast_nodes == 0: the standing 8-node family, every node an origin (the
  // exact historical dates — checksums depend on them). Otherwise only
  // `bcast_nodes` origins, spread evenly so different clusters and tree
  // positions send.
  const std::size_t senders =
      spec_.bcast_nodes == 0 ? spec_.nodes
                             : std::min(spec_.bcast_nodes, spec_.nodes);
  for (std::size_t i = 0; i < senders; ++i) {
    const node_id n = spec_.bcast_nodes == 0
                          ? static_cast<node_id>(i)
                          : static_cast<node_id>(i * spec_.nodes / senders);
    const time_point first =
        time_point::at(20_ms + 413_us * static_cast<std::int64_t>(i) + 7_us);
    const duration period = 4700_us + 613_us * static_cast<std::int64_t>(i);
    sys_->engine().periodic_at_node(
        n, first, period,
        [this, n] {
          if (!sys_->crashed(n)) {
            obs_.sent_at[n].push_back(sys_->now());
            bcast_->broadcast(n, static_cast<int>(obs_.sent_at[n].size()));
          }
        },
        stop);
  }

  // Traffic edge: one gateway per node in [1, 1 + k), each an independent
  // open-loop arrival stream into its own admission controller, under EDF.
  // Armed after the broadcast workload so every backend sees the identical
  // scheduling-call order.
  if (spec_.traffic.gateway_nodes > 0) {
    const auto& tp = spec_.traffic;
    require(1 + tp.gateway_nodes <= spec_.nodes,
            "deployment: too many gateway nodes");
    for (std::size_t i = 0; i < tp.gateway_nodes; ++i) {
      const auto n = static_cast<node_id>(1 + i);
      sys_->attach_policy(n, std::make_shared<sched::edf_policy>());
      traffic::gateway_config gc;
      gc.arrivals.mix = tp.mix;
      gc.arrivals.rate_per_s = tp.rate_per_s;
      gc.arrivals.population = 1'000'000;
      gc.classes = {
          {200_us, 3_ms, 4, 5},    // interactive: costly to drop
          {500_us, 10_ms, 3, 3},   // standard
          {1500_us, 40_ms, 1, 2},  // batch: first to shed
      };
      gc.admission.feas.slot_width = 1_ms;  // 64 ms wheel > largest deadline
      gc.admission.feas.available = tp.available;
      gc.admission.max_outstanding = 4096;
      gc.start = time_point::at(25_ms + 311_us * static_cast<std::int64_t>(i));
      gc.stop = obs_.horizon - 60_ms;  // drain window before collection
      gc.revalidate_period = 25_ms;
      gateways_.push_back(std::make_unique<traffic::gateway>(
          *sys_, n, std::move(gc), opt_.seed));
      gateways_.back()->start();
    }
    // Mode switches renegotiate every gateway's CPU fraction. The hook runs
    // on the manager's home shard; each gateway's shed pass is routed to
    // its own shard one network lookahead ahead (the sharded backend's
    // cross-shard scheduling floor).
    modes_->on_switch([this](svc::op_mode, svc::op_mode to, time_point at) {
      const auto& t = spec_.traffic;
      const double frac = to == svc::op_mode::normal ? t.available
                          : to == svc::op_mode::degraded
                              ? t.degraded_available
                              : t.safe_available;
      for (auto& gw : gateways_)
        sys_->engine().at_node(gw->node(), at + opt_.net.delta_min,
                               [g = gw.get(), frac] { g->renegotiate(frac); });
    });
  }
}

deployment::~deployment() = default;

void deployment::start() {
  require(!started_, "deployment::start: already started");
  started_ = true;
  fd_->start();
  if (sync_) sync_->start();
  apply(*sys_, spec_.p, obs_.horizon);
}

void deployment::run() {
  require(started_, "deployment::run: start() first");
  // collect() moved the observation out: the workload has nowhere to log.
  require(!collected_, "deployment::run: already collected");
  sys_->run_until(obs_.horizon);
}

observation deployment::collect() {
  require(!collected_, "deployment::collect: already collected");
  collected_ = true;
  obs_.delivery_logs = bcast_->take_delivery_logs();
  obs_.order_faults = bcast_->order_faults();
  obs_.final_mode = modes_->mode();
  obs_.deadline_misses =
      sys_->mon().count(core::monitor_event_kind::deadline_miss);
  // The detector records every suspicion transition in the monitor, so the
  // monitor is the one copy the detector checks read.
  using kind = core::monitor_event_kind;
  for (const core::monitor_event& e : sys_->mon().events()) {
    obs_.event_kinds |= 1u << static_cast<unsigned>(e.kind);
    if (e.kind == kind::node_suspected)
      obs_.suspicions.push_back({e.node, e.subject_node, e.at});
    else if (e.kind == kind::node_unsuspected)
      obs_.recoveries.push_back({e.node, e.subject_node, e.at});
    if (e.kind == kind::deadline_miss || e.kind == kind::node_crash ||
        e.kind == kind::node_recover || e.kind == kind::node_suspected ||
        e.kind == kind::node_unsuspected)
      obs_.trigger_events.push_back(e.at);
  }
  sort_suspicions(obs_.suspicions);
  sort_suspicions(obs_.recoveries);
  std::sort(obs_.trigger_events.begin(), obs_.trigger_events.end());
  if (!gateways_.empty()) {
    obs_.traffic_checked = true;
    obs_.miss_budget = spec_.traffic.miss_budget;
    hdr_histogram merged;
    for (auto& gw : gateways_) {  // node order — the merge convention
      const auto t = gw->snapshot();
      obs_.traffic_offered += t.offered;
      obs_.traffic_admitted += t.admitted;
      obs_.traffic_rejected += t.rejected;
      obs_.traffic_shed += t.shed;
      obs_.traffic_completed += t.completed;
      obs_.traffic_missed += t.missed;
      obs_.traffic_outstanding += gw->controller().outstanding();
      obs_.traffic_revalidations += t.revalidations;
      obs_.traffic_revalidation_failures += t.revalidation_failures;
      obs_.traffic_renegotiations += t.renegotiations;
      obs_.gateway_digests.push_back(gw->digest());
      merged.merge(gw->latency());
    }
    obs_.latency_p50 = merged.value_at_quantile(0.50);
    obs_.latency_p99 = merged.value_at_quantile(0.99);
    obs_.latency_p999 = merged.value_at_quantile(0.999);
  }
  if (sync_) {
    obs_.skew_checked = true;
    std::vector<node_id> correct;
    for (node_id n = 0; n < spec_.nodes; ++n)
      if (spec_.p.correct_throughout(n) && !spec_.p.clock_faulty(n))
        correct.push_back(n);
    obs_.max_skew = sync_->max_skew(correct);
  }
  return std::move(obs_);
}

std::vector<check_result> deployment::grade(const observation& obs) const {
  return scenario::grade(spec_, obs,
                         opt_.switch_latency > duration::zero()
                             ? opt_.switch_latency
                             : spec_.modes.switch_latency);
}

}  // namespace hades::scenario
