// The HADES dispatcher (paper sections 3.2.1, 3.2.2 and 4.1).
//
// One dispatcher runs per node. It allocates resources (CPU included) to
// threads — one kernel thread per Code_EU instance — and inserts a thread
// into the run queue exactly when the paper's four conditions hold:
//
//   1. every predecessor (precedence constraint) has finished,
//   2. all resources the unit claims can be granted,
//   3. all awaited condition variables are set,
//   4. the current time has passed the unit's earliest start time.
//
// It cooperates with the attached scheduler through the notification FIFO
// (Atv, Trm, Rac, Rre) and exposes the dispatcher primitive — modify a
// thread's priority and/or earliest start time — through the
// `scheduler_context` interface it implements. The scheduler itself
// executes as a thread at a priority above every application thread, so a
// queued notification is always processed before any application thread
// regains the CPU (this is what makes ceiling protocols race-free, see
// DESIGN.md).
//
// The dispatcher also implements the monitoring activities of section
// 3.2.1: deadline violations are armed by the owning `system`; this module
// detects latest-start violations, early terminations, orphan executions
// and suspected network omissions (a remote precedence still missing at
// its consumer's latest start time).
//
// Cost charging (section 4.1): every Code_EU thread's demand is
//   c_act_start + actual_execution + c_act_end
//   + (#outgoing local precedences) * c_local
//   + (#outgoing remote precedences) * c_rel
// and instance activation / completion cost c_inv_start / c_inv_end in
// kernel (interrupt) context on the home node — mirroring exactly the
// terms the cost-integrated feasibility test accounts for.
#pragma once

#include <any>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/monitor.hpp"
#include "core/net_task.hpp"
#include "core/processor.hpp"
#include "core/scheduling.hpp"
#include "core/task_model.hpp"
#include "sim/runtime.hpp"
#include "util/ring.hpp"
#include "util/sparse_map.hpp"

namespace hades::util {

/// `(task, instance)` keys of the dispatcher's shard index.
template <>
struct sparse_key<std::pair<task_id, instance_number>> {
  static constexpr std::pair<task_id, instance_number> empty{
      invalid_task, std::numeric_limits<instance_number>::max()};
  [[nodiscard]] static std::size_t hash(
      const std::pair<task_id, instance_number>& k) noexcept {
    const std::uint64_t x = (k.second + 1) * 0x9E3779B97F4A7C15ull ^
                            std::uint64_t{k.first} * 0xC2B2AE3D27D4EB4Full;
    return static_cast<std::size_t>(x >> 32);
  }
};

}  // namespace hades::util

namespace hades::core {

class system;
class dispatcher;

/// Control tokens exchanged between dispatchers on channel 0. They carry
/// every cross-node structural effect of the core — shard creation and
/// abortion, invocation activation, condition updates, deadlock probes —
/// so that no event handler ever calls into another node's dispatcher
/// directly (DESIGN.md, "Cross-shard control tokens"). The struct stays
/// trivially copyable and under the wire payload's pooled-class ceiling.
struct control_token {
  enum class kind {
    precedence,        // from -> to precedence edge satisfied
    shard_complete,    // a non-home shard of (task, instance) finished
    sync_return,       // synchronous invocation made by `to` returned
    create_shard,      // home -> involved node: build the local shard at `at`
    abort_shard,       // home -> involved node: kill the local shard
    abort_request,     // policy node -> home: abort the whole instance
    activate_request,  // invoking node -> target's home: activate `task`
    sync_started,      // target's home -> sync invoker: child instance = aux
    cond_set,          // origin -> condition authority: set `cond`
    cond_clear,        // origin -> condition authority: clear `cond`
    cond_update,       // condition authority -> everyone: `cond` is now `flag`
    dl_probe,          // deadlock-scan home -> node: report stalled EUs (epoch aux)
  };
  kind k = kind::precedence;
  task_id task = invalid_task;
  instance_number instance = 0;
  eu_index from = 0;
  eu_index to = 0;
  time_point at;              // create_shard: the shared activation date
  condition_id cond = 0;      // cond_*: the subject condition variable
  bool flag = false;          // cond_update: new value; activate_request: has waiter
  std::uint64_t aux = 0;      // sync_started: child instance; dl_probe: epoch
  node_id waiter_node = 0;    // activate_request: synchronous continuation
  task_id waiter_task = invalid_task;
  instance_number waiter_instance = 0;
  eu_index waiter_inv = 0;
  char reason[24] = {};       // abort_*: truncated human-readable cause
};

inline constexpr int control_channel = 0;
/// System-level replies that are not fixed-size tokens (deadlock-scan
/// reports carrying variable-length waiter lists) ride channel 1, handled
/// by the owning `system`.
inline constexpr int system_channel = 1;

/// Handed to Code_EU bodies when they complete: the window through which
/// application code interacts with HADES.
class execution_context {
 public:
  execution_context(system& sys, node_id node, task_id task,
                    instance_number instance)
      : sys_(&sys), node_(node), task_(task), instance_(instance) {}

  [[nodiscard]] time_point now() const;
  [[nodiscard]] node_id node() const { return node_; }
  [[nodiscard]] task_id task() const { return task_; }
  [[nodiscard]] instance_number instance() const { return instance_; }

  /// Local synchronized-clock reading (hardware clock + adjustments).
  [[nodiscard]] duration local_clock() const;

  void set_condition(condition_id c);
  void clear_condition(condition_id c);

  /// Send an application message through this node's net_mngt task.
  void send(node_id dst, int channel, sim::wire_payload payload,
            std::size_t size_bytes = 64);

  /// Mutable per-task state blob (shared by all instances of the task).
  [[nodiscard]] std::any& task_state();

  [[nodiscard]] system& sys() { return *sys_; }

 private:
  system* sys_;
  node_id node_;
  task_id task_;
  instance_number instance_;
};

class dispatcher final : public scheduler_context {
 public:
  /// Activity costs come from `sys.costs()`; monitored events and trace
  /// records go to `mon`.
  dispatcher(system& sys, runtime& rt, node_id node, processor& cpu,
             net_task& net, monitor& mon);
  ~dispatcher() override;
  dispatcher(const dispatcher&) = delete;
  dispatcher& operator=(const dispatcher&) = delete;

  [[nodiscard]] node_id node() const { return node_; }

  // --- scheduler attachment (paper 3.2.2) --------------------------------
  void attach_policy(std::shared_ptr<policy> p);

  // --- admission hooks (traffic edge) -------------------------------------
  /// Consulted by the owning system inside activation, before any instance
  /// state is created: return false to reject the activation (recorded as
  /// an instance_rejected event against the task). The hook runs on this
  /// node's shard and must not allocate — it sits on the admission hot
  /// path. Tasks the hook does not recognize must return true.
  using admission_fn = std::function<bool(task_id, time_point)>;
  /// Fired when an instance of a task homed here leaves the system —
  /// `completed` is true for a timely finish, false for an abort (deadline
  /// miss or shed). Runs on this node's shard.
  using retire_fn =
      std::function<void(task_id, instance_number, time_point activation,
                         time_point now, bool completed)>;
  void set_admission_hook(admission_fn f) { admission_ = std::move(f); }
  void set_retire_hook(retire_fn f) { retire_ = std::move(f); }
  [[nodiscard]] const admission_fn& admission_hook() const {
    return admission_;
  }
  [[nodiscard]] const retire_fn& retire_hook() const { return retire_; }

  // --- shard lifecycle (driven by the owning system) ----------------------
  /// Create the local portion of instance (task, k) activated at `at`:
  /// threads for the local Code_EUs (emitting Atv), bookkeeping for
  /// locally-anchored Inv_EUs, and latest-start monitors.
  void create_shard(const task_graph& g, instance_number k, time_point at);

  /// Abort the local shard: kill threads (recording orphan events for
  /// threads that had started), drop waiters, release resources.
  void abort_shard(task_id t, instance_number k, std::string_view reason);

  /// Condition variable `c` became set system-wide: re-evaluate waiters.
  void on_condition_set(condition_id c);

  /// A synchronous invocation made by (t, k, inv) returned.
  void on_sync_return(task_id t, instance_number k, eu_index inv);

  /// Node crash: stop everything silently (the rest of the system only
  /// observes it through missing messages and missed deadlines).
  void halt();
  /// Undo `halt` (node recovery, driven by system::recover_node): the
  /// dispatcher accepts new shards again. State lost in the crash stays
  /// lost — pre-crash shards were destroyed and are not resurrected.
  void restart();
  [[nodiscard]] bool halted() const { return halted_; }

  // --- scheduler_context (the dispatcher primitive) ------------------------
  [[nodiscard]] time_point now() const override;
  void set_priority(kthread_id t, priority p) override;
  void set_earliest(kthread_id t, time_point earliest) override;
  [[nodiscard]] const eu_info& info(kthread_id t) const override;
  [[nodiscard]] bool alive(kthread_id t) const override;
  void reject_instance(kthread_id t, std::string_view reason) override;

  // --- observability --------------------------------------------------------
  struct counters {
    std::uint64_t shards_created = 0;
    std::uint64_t eus_completed = 0;
    std::uint64_t notifications = 0;
    std::uint64_t scheduler_runs = 0;
    std::uint64_t resource_grants = 0;
    std::uint64_t resource_blocks = 0;  // grant attempts that had to wait
  };
  [[nodiscard]] const counters& stats() const { return stats_; }

  /// Threads of EUs that are currently waiting (any unmet condition), with
  /// a human-readable blocking reason. Used by the deadlock detector.
  struct waiting_eu {
    task_id task;
    instance_number instance;
    eu_index eu;
    std::vector<eu_index> waiting_preds;       // unsatisfied predecessors
    std::vector<condition_id> waiting_conds;   // unset condition variables
    std::optional<task_id> sync_target;        // invoked task, if inv-waiting
    instance_number sync_target_instance = 0;
    bool resource_wait = false;
  };
  [[nodiscard]] std::vector<waiting_eu> waiting_eus() const;

 private:
  friend class system;

  using shard_key = std::pair<task_id, instance_number>;

  enum class eu_state { waiting, queued, done, inv_waiting };

  struct eu_rt {
    eu_index idx = 0;
    const code_eu* code = nullptr;  // null for Inv_EUs
    const inv_eu* inv = nullptr;
    kthread_id thread;
    // Predecessors done: one flag per entry of graph->preds(idx), stored
    // from `preds_base` in the shard's `preds_done`. A predecessor's flag is
    // the one at its first entry, so duplicate tokens count once.
    std::uint32_t preds_base = 0;
    std::uint32_t preds_seen = 0;    // distinct predecessors done
    std::uint32_t preds_total = 0;   // graph->preds(idx).size()
    instance_number sync_child_instance = 0;
    eu_state st = eu_state::waiting;
    bool rac_emitted = false;
    bool protocol_held = false;      // waiting for the policy's verdict
    bool resources_granted = false;
    bool in_resource_wait = false;
    duration actual = duration::zero();   // resolved actual execution time
    time_point earliest_abs;
    sim::event_id earliest_timer = sim::invalid_event;
    sim::event_id latest_timer = sim::invalid_event;
    priority pt_boost = 0;           // declared threshold - declared priority
    eu_info info;
  };

  // One slot of the shard pool. A freed slot (graph == nullptr) keeps its
  // vectors' storage for the next shard that takes it.
  struct shard {
    const task_graph* graph = nullptr;
    instance_number instance = 0;
    time_point activation;
    std::vector<eu_rt> eus;               // local EUs in EU-index order
    std::vector<std::uint8_t> preds_done;  // see eu_rt::preds_base
    std::size_t pending = 0;  // local EUs not yet done
    bool aborted = false;
  };

  struct resource_state {
    int shared_holders = 0;
    bool exclusive_held = false;
  };

  struct eu_ref {
    shard_key key;
    eu_index idx;
    friend bool operator==(const eu_ref&, const eu_ref&) = default;
  };

  // The EU behind a live Code_EU thread: its pool slot and position.
  struct thread_eu {
    kthread_id thread;  // invalid_kthread when the thread slot is unused
    std::uint32_t shard = 0;
    std::uint32_t pos = 0;
  };

  // lookup helpers
  shard* find_shard(shard_key k);
  static eu_rt* find_eu(shard& s, eu_index idx);
  eu_rt* find_eu(const eu_ref& r);
  std::pair<shard*, eu_rt*> find_by_thread(kthread_id t);
  /// Mark predecessor `from` of `eu` done; false if it already was.
  static bool mark_pred_done(shard& s, eu_rt& eu, eu_index from);
  [[nodiscard]] static bool pred_done(const shard& s, const eu_rt& eu,
                                      eu_index from);
  void release_shard(shard_key key);
  /// Pool slots of the live shards in (task, instance) order: the order of
  /// every walk over all shards (halt, waiting_eus).
  [[nodiscard]] std::vector<std::uint32_t> live_shards_in_key_order() const;

  // readiness machinery
  void evaluate(shard& s, eu_rt& eu);
  [[nodiscard]] bool conds_satisfied(shard& s, eu_rt& eu);
  [[nodiscard]] bool grantable(const code_eu& c) const;
  void grant(shard& s, eu_rt& eu);
  void release_resources(shard& s, eu_rt& eu);
  void reevaluate_resource_waiters();

  // execution
  // Completion cascades can erase shards (an async Inv_EU sink may finish a
  // shard from inside a propagation); these stages therefore address shards
  // by key and re-find them after every step that may cascade.
  void eu_complete(shard_key key, eu_index idx);
  void propagate(shard_key key, eu_index from, const task_graph& g);
  void fire_invocation(shard& s, eu_rt& eu);
  void finish_inv(shard_key key, eu_index idx);
  void shard_done(shard_key key);

  // scheduler FIFO
  void emit(notification_kind kind, const eu_rt& eu);
  void pump_scheduler();
  void scheduler_step();

  // tokens
  /// A frame on the control channel reached this node (the system's
  /// channel-0 handler calls it).
  void on_control_frame(const sim::message& m);
  void on_token(const control_token& tok);
  /// A per-instance token (precedence, sync_*, abort_shard) can outrun its
  /// own shard's create_shard token: the two ride different links (home->A
  /// then A->B vs home->B) whose latencies are independent. Tokens for
  /// instances this node has not created yet are stashed and replayed at
  /// the end of create_shard; tokens for instances *below* the creation
  /// watermark are late (shard completed or aborted) and flow through the
  /// normal find_shard miss path. Per-link FIFO guarantees creates for one
  /// (task, target) pair arrive in increasing instance order, which is what
  /// makes the watermark sound.
  bool stash_if_early(const control_token& tok);

  /// Trace records are kept: guard any subject or detail formatting on it.
  [[nodiscard]] bool tracing() const { return mon_->tracing(); }
  void record_trace(monitor_event_kind k, std::string_view subject,
                    std::string_view detail = {});
  void cancel_timers(eu_rt& eu);
  void drop_waiter_refs(const shard_key& key);
  [[nodiscard]] node_id eu_node(const task_graph& g, eu_index i) const;

  system* sys_;
  runtime* rt_;
  node_id node_;
  processor* cpu_;
  net_task* net_;
  monitor* mon_;

  std::shared_ptr<policy> policy_;
  kthread_id sched_thread_;
  bool sched_busy_ = false;
  ring_fifo<notification> fifo_;

  // Shards live in a pool of slots that grows to the high-water mark of
  // concurrent instances and is then reused; `shard_index_` finds a live
  // shard's slot by (task, instance), and `thread_eus_` (indexed by
  // processor::slot_of) finds a thread's EU.
  std::vector<shard> pool_;
  std::vector<std::uint32_t> free_shards_;
  util::sparse_map<shard_key, std::uint32_t> shard_index_;
  std::vector<thread_eu> thread_eus_;
  // Early-token machinery (see stash_if_early): the next instance number
  // each task is expected to create here (indexed by task id), and tokens
  // that arrived ahead of their create. The watermark survives halt() — it
  // tracks what the home already sent, and a recovered node must still
  // treat pre-crash instances as late.
  std::vector<instance_number> created_next_;
  std::map<shard_key, std::vector<control_token>> early_tokens_;
  std::map<resource_id, resource_state> resources_;
  std::vector<eu_ref> resource_waiters_;
  std::map<condition_id, std::vector<eu_ref>> cond_waiters_;

  bool halted_ = false;
  counters stats_;
  admission_fn admission_;
  retire_fn retire_;
};

}  // namespace hades::core
