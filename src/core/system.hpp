// System composition: the simulated distributed HADES deployment.
//
// A `system` owns the discrete-event engine, the LAN, and one node context
// per machine (processor + dispatcher + net_mngt task + hardware clock). It
// is the registration point for tasks (assigning task ids and validating
// that resources stay local to one node, paper 3.1.1), the activation
// authority (periodic timers, sporadic/aperiodic triggers, invocations —
// all checked against the declared arrival law, paper 3.1.2), the keeper of
// system-wide condition variables, and the seat of cross-node instance
// bookkeeping (deadline timers, shard completion, synchronous-invocation
// returns) plus the kernel background activities of section 4.2. Its
// monitor keeps the run's one observation log: monitored events always,
// trace records while `config::tracing` is on.
#pragma once

#include <any>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/cost_model.hpp"
#include "core/dispatcher.hpp"
#include "core/monitor.hpp"
#include "core/net_task.hpp"
#include "core/processor.hpp"
#include "core/scheduling.hpp"
#include "core/task_model.hpp"
#include "sim/hardware_clock.hpp"
#include "sim/network.hpp"
#include "sim/runtime.hpp"
#include "util/sparse_map.hpp"
#include "util/stats.hpp"

namespace hades::core {

class system {
 public:
  struct config {
    cost_model costs;
    sim::network::params net;
    std::vector<double> clock_drift;   // per node; missing entries = 0
    bool kernel_background = true;     // clock interrupt per p_clk
    bool reject_arrival_violations = true;
    std::uint64_t seed = 42;
    /// Keep trace records in the monitor (`monitor::set_tracing`).
    bool tracing = true;
    /// Runtime backend selection through the factory registry
    /// (`hades::runtime::make`; DESIGN.md, "Runtime factory & injector
    /// API"). The system fills `node_count`, and for the sharded backend the
    /// lookahead (= net.delta_min, which must then be > 0); everything else
    /// passes through untouched, so a realtime multi-process config (epoch,
    /// process index/count, node->process map) rides here too. The system
    /// itself never names a concrete backend type.
    hades::runtime::options runtime;
  };

  explicit system(std::size_t node_count);
  system(std::size_t node_count, config cfg);
  ~system();
  system(const system&) = delete;
  system& operator=(const system&) = delete;

  // --- composition access ---------------------------------------------------
  [[nodiscard]] std::size_t node_count() const { return nodes_.size(); }
  /// The event runtime every component schedules against. The backend is
  /// the discrete-event engine today; nothing outside src/sim may assume so.
  [[nodiscard]] hades::runtime& engine() { return *rt_; }
  [[nodiscard]] sim::network& network() { return *net_; }
  [[nodiscard]] monitor& mon() { return monitor_; }
  [[nodiscard]] processor& cpu(node_id n) { return *nodes_.at(n)->cpu; }
  [[nodiscard]] dispatcher& disp(node_id n) { return *nodes_.at(n)->disp; }
  [[nodiscard]] net_task& net(node_id n) { return *nodes_.at(n)->net; }
  [[nodiscard]] sim::hardware_clock& clock(node_id n) {
    return *nodes_.at(n)->clock;
  }
  [[nodiscard]] const cost_model& costs() const { return cfg_.costs; }

  // --- inbound channels -----------------------------------------------------
  /// Register the consumer of channel `channel` on every node: each node's
  /// net_mngt task calls `h(node, frame)` once its NIC interrupt completes,
  /// passing its own id. One table serves the whole system; the system
  /// registers channels 0 and 1 itself, and each service registers its own
  /// once at construction. A later registration replaces an earlier one.
  void on_channel(int channel, channel_handler h);

  // --- task registration ----------------------------------------------------
  /// Register a HEUG; returns its system-wide id. Periodic tasks are armed
  /// automatically (first activation at law.offset).
  task_id register_task(task_graph g);

  [[nodiscard]] const task_graph& graph(task_id t) const {
    return *tasks_.at(t - 1).graph;  // std::out_of_range for unknown ids
  }
  [[nodiscard]] std::vector<task_id> tasks() const;

  /// Attach a scheduling policy to one node's dispatcher.
  void attach_policy(node_id n, std::shared_ptr<policy> p) {
    disp(n).attach_policy(std::move(p));
  }
  /// Attach the same policy object to every node.
  void attach_policy_everywhere(std::shared_ptr<policy> p);

  // --- activation -----------------------------------------------------------
  /// Trigger an activation request now (sporadic/aperiodic tasks; periodic
  /// tasks fire automatically). Returns false if rejected (arrival law).
  bool activate(task_id t);
  /// Schedule an activation request at an absolute date.
  void activate_at(task_id t, time_point at);

  // --- condition variables (system-wide booleans, paper 3.1.1) -------------
  // Conditions are home-owned: node 0's shard is the authority. An in-event
  // set/clear from another node rides a cond_set/cond_clear token to the
  // authority, which applies the change and broadcasts cond_update tokens,
  // so every waiter wakeup is evaluated by the waiter's own shard — on
  // every backend. The public set/clear entry points below
  // are for use from *outside* event execution (test setup, between runs):
  // there they update every node's view directly, the historical serial
  // semantics. Event handlers go through execution_context::set_condition,
  // which routes by origin node.
  void set_condition(condition_id c);
  void clear_condition(condition_id c);
  /// The authority's view (node 0) — what outside-event callers observe.
  [[nodiscard]] bool condition(condition_id c) const;
  /// In-event entry points, routed by origin (dispatcher-internal).
  void set_condition_from(node_id origin, condition_id c);
  void clear_condition_from(node_id origin, condition_id c);
  /// A node's local view — what its dispatcher's readiness checks read.
  [[nodiscard]] bool condition_on(node_id n, condition_id c) const;

  // --- execution -------------------------------------------------------------
  void run_until(time_point t) { rt_->run_until(t); }
  void run_for(duration d) { rt_->run_until(rt_->now() + d); }
  [[nodiscard]] time_point now() const { return rt_->now(); }

  // --- fault injection --------------------------------------------------------
  /// Crash a node: its threads stop and the wire goes symmetric-silent
  /// (network node-down drops both outbound and inbound frames); only
  /// message loss and missed deadlines are observable from outside.
  void crash_node(node_id n);
  /// Recover a crashed node: the dispatcher accepts work again, the NIC
  /// listens, kernel clock interrupts re-arm. Pre-crash state stays lost
  /// (shards, queued frames); timer-driven services that guard their ticks
  /// with `crashed()` resume on their next tick.
  void recover_node(node_id n);
  [[nodiscard]] bool crashed(node_id n) const {
    return nodes_.at(n)->disp->halted();
  }

  // --- per-task state & results ----------------------------------------------
  [[nodiscard]] std::any& task_state(task_id t) {
    return tasks_.at(t - 1).state;
  }

  struct task_stats {
    std::uint64_t activations = 0;
    std::uint64_t completions = 0;
    std::uint64_t rejections = 0;
    running_stats response_times;  // nanoseconds
  };
  [[nodiscard]] task_stats& stats_for(task_id t) {
    return tasks_.at(t - 1).stats;
  }

  /// Scan all dispatchers for stalled-EU cycles (deadlock detection,
  /// monitoring activity (iv) of paper 3.2.1). Records deadlock_suspected
  /// events and returns the number of EUs involved in cycles. This
  /// synchronous form walks every node's dispatcher, so call it from
  /// outside event execution (between runs); periodic in-run scans armed
  /// with arm_deadlock_scan use the distributed probe/reply protocol and
  /// stay shard-confined.
  std::size_t detect_deadlocks();

  /// Arm periodic deadlock scans. Multi-node systems run the distributed
  /// protocol: the scan home (node 0) probes every node with dl_probe
  /// tokens, nodes reply with their stalled EUs on the system channel, and
  /// the merged wait-for graph is analyzed on the home shard after a
  /// bounded collect window (two network hops) — sorted canonically, so
  /// the recorded events are backend-independent.
  void arm_deadlock_scan(duration period);

  // --- internal API for dispatchers (public for the component, not users) ---
  struct activation_origin {
    enum class kind { timer, external, invocation } k = kind::external;
    // synchronous-invocation continuation:
    std::optional<node_id> waiter_node;
    task_id waiter_task = invalid_task;
    instance_number waiter_instance = 0;
    eu_index waiter_inv = 0;
  };
  std::optional<instance_number> activate_internal(
      task_id t, const activation_origin& origin);
  void on_shard_complete(task_id t, instance_number k, node_id from);
  void abort_instance(task_id t, instance_number k, std::string_view reason,
                      bool as_rejection);
  /// An activate_request token landed on `home` (the target task's home
  /// node): run the activation there and answer a synchronous invoker with
  /// sync_started (accepted) or sync_return (rejected).
  void on_activate_request(node_id home, const control_token& tok);
  /// A cond_set/cond_clear/cond_update token landed on `n`.
  void on_condition_token(node_id n, const control_token& tok);
  /// A dl_probe token landed on `n`: report its stalled EUs to `reply_to`.
  void on_deadlock_probe(node_id n, std::uint64_t epoch, node_id reply_to);
  [[nodiscard]] bool instance_live(task_id t, instance_number k) const {
    return t >= 1 && t <= tasks_.size() && tasks_[t - 1].live.contains(k);
  }

 private:
  struct node_ctx {
    std::unique_ptr<processor> cpu;
    std::unique_ptr<net_task> net;
    std::unique_ptr<dispatcher> disp;
    std::unique_ptr<sim::hardware_clock> clock;
    // Next link of the node-anchored clock-interrupt chain (re-armed on the
    // node's own shard after every firing; cancelled on crash).
    sim::event_id clk_timer = sim::invalid_event;
  };

  // One slot of a task's instance pool. A freed slot keeps its
  // `pending_high` storage for the next instance that takes it.
  struct instance_record {
    time_point activation;
    sim::event_id deadline_timer = sim::invalid_event;
    std::optional<activation_origin> sync_waiter;
    // Bit i set: the shard on the task's involved[i] has not completed.
    // Word 0 is inline; a task spanning more than 64 nodes keeps words 1..
    // in `pending_high`.
    std::uint64_t pending = 0;
    std::vector<std::uint64_t> pending_high;
    std::uint64_t& pending_word(std::size_t i) {
      return i < 64 ? pending : pending_high[i / 64 - 1];
    }
  };

  // Everything the system keeps per task, at index id - 1 of `tasks_`.
  struct task_entry {
    std::unique_ptr<const task_graph> graph;  // never moves once registered
    // Nodes with a shard of every instance: graph->processors() (ascending),
    // or the home node alone for a task with no Code_EU.
    std::vector<node_id> involved;
    instance_number next_instance = 0;
    time_point last_activation;  // arrival-law supervision
    bool ever_activated = false;
    task_stats stats;
    std::any state;
    // Live instances: records in a slot pool, found by instance number.
    std::vector<instance_record> instances;
    std::vector<std::uint32_t> free_instances;
    util::sparse_map<instance_number, std::uint32_t> live;
  };

  // A stalled EU as seen by the deadlock analysis, tagged with its node.
  struct stalled_eu {
    node_id node;
    dispatcher::waiting_eu w;
  };
  /// Reply to a dl_probe: one node's stalled EUs, tagged with the scan
  /// epoch. Rides the system channel as a wire payload (variable length).
  struct dl_reply {
    std::uint64_t epoch = 0;
    node_id from = 0;
    std::vector<dispatcher::waiting_eu> waits;
  };

  [[nodiscard]] task_entry& entry(task_id t) { return tasks_.at(t - 1); }
  [[nodiscard]] instance_record* find_instance(task_entry& te,
                                               instance_number k);
  void release_instance(task_entry& te, instance_number k);
  void arm_periodic(task_id t);
  void arm_clock_interrupts(node_id n);
  void schedule_clock_tick(node_id n, time_point at);
  void on_deadline(task_id t, instance_number k);
  void finish_instance(task_id t, instance_number k);
  void deliver_sync_return(node_id from, const activation_origin& origin);
  void apply_condition_home(condition_id c, bool v);
  void apply_condition_everywhere(condition_id c, bool v);
  std::size_t analyze_stalled(std::vector<stalled_eu>& all);
  void deadlock_scan_tick();
  void finish_deadlock_scan(std::uint64_t epoch);

  static std::unique_ptr<hades::runtime> make_backend(const config& cfg,
                                                      std::size_t node_count);

  config cfg_;
  std::unique_ptr<hades::runtime> rt_;
  monitor monitor_;
  std::unique_ptr<sim::network> net_;
  // Channel-indexed inbound handlers shared by every node's net_task.
  // Written at construction (the system's and the services'), then only
  // read, so every shard may read it.
  std::vector<channel_handler> channels_;
  std::vector<std::unique_ptr<node_ctx>> nodes_;

  // Per-task bookkeeping, one entry per registered task (index id - 1).
  // Each entry is created at registration time and owned by the task's
  // home shard from then on: activation, deadline and completion handlers
  // all execute on the home node's shard (DESIGN.md, "Shard confinement"),
  // so the vector sees no structural mutation during a run and an entry
  // no cross-shard access. After warm-up an instance's whole lifecycle
  // reuses the entry's pool slots and allocates nothing.
  std::vector<task_entry> tasks_;
  std::map<resource_id, node_id> resource_home_;
  // Per-node condition views (see set_condition): index [node][cond]. The
  // authority is node 0's view; the others converge one cond_update hop
  // later. Each inner map is only touched by its node's shard during a
  // run; outside event execution (tests, between runs) the public
  // setters update all views at once.
  std::vector<std::map<condition_id, bool>> node_conditions_;

  // Distributed deadlock-scan state, owned by the scan home's shard
  // (node 0): per-epoch collected stalled EUs; an epoch is erased when
  // analyzed, so a straggler reply for a finished epoch is dropped.
  std::uint64_t dl_epoch_ = 0;
  std::map<std::uint64_t, std::vector<stalled_eu>> dl_pending_;
};

}  // namespace hades::core
