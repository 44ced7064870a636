// Simulated COTS real-time kernel for one mono-processor node.
//
// This stands in for ChorusOS r3 of the paper's prototype (see DESIGN.md).
// It provides exactly the mechanisms HADES requires from its underlying
// kernel (paper 2.2.1): priority-based preemptive scheduling of threads,
// with the preemption-threshold rule of section 3.2.1 — a runnable thread
// t_i runs iff it has the highest priority among runnable threads, or, once
// it is the incumbent, no runnable t_j with prio_j > pt_i exists — plus
// non-preemptible interrupt handling above every thread priority (kernel
// calls and interrupts have pt = prio_max, paper 3.1.2), and a context
// switch whose cost is part of the characterized kernel cost model.
//
// Execution is modelled in virtual time: a thread owns `remaining` work; a
// completion event is scheduled while it runs and re-computed whenever it is
// preempted or paused by an interrupt burst. Thread state transitions and
// interrupts are trace records in the system's monitor while tracing is on.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/monitor.hpp"
#include "sim/runtime.hpp"
#include "util/error.hpp"
#include "util/ring.hpp"
#include "util/time.hpp"
#include "util/types.hpp"

namespace hades::core {

class processor {
 public:
  /// `context_switch` is charged to a burst whose thread did not run last.
  /// `mon` (optional) keeps the trace records; it outlives the processor.
  processor(runtime& rt, node_id node, duration context_switch,
            monitor* mon = nullptr)
      : rt_(&rt), node_(node), context_switch_(context_switch), mon_(mon) {}
  processor(const processor&) = delete;
  processor& operator=(const processor&) = delete;

  [[nodiscard]] node_id node() const { return node_; }

  // --- thread lifecycle --------------------------------------------------
  /// Create a suspended thread with `work` units of CPU demand. `name` is
  /// the trace subject only. The thread reuses a destroyed thread's slot of
  /// the thread table when there is one; its id packs
  /// `(creation sequence << slot_bits) | slot`, so ids compare in creation
  /// order and a destroyed thread's id never names the slot's next occupant.
  kthread_id create(std::string_view name, priority prio, priority pt,
                    duration work, sim::event_callback on_done);
  /// Remove a thread entirely. Running/runnable threads are stopped first.
  void destroy(kthread_id t);
  /// Insert into the run queue (the dispatcher decided it is eligible).
  void make_runnable(kthread_id t);
  /// Remove from the run queue / stop execution; accrued work is kept.
  void suspend(kthread_id t);

  // --- attribute changes (dispatcher primitive, paper 3.2.2) --------------
  void set_priority(kthread_id t, priority prio);
  void set_threshold(kthread_id t, priority pt);

  /// Extend the thread's CPU demand (used to fold dispatcher activity costs
  /// into the EU that caused them, paper section 4.1).
  void add_work(kthread_id t, duration extra);

  // --- interrupts ----------------------------------------------------------
  /// Run a non-preemptible handler of length `wcet` at interrupt priority;
  /// `body` (may be empty) executes when the handler completes.
  /// Back-to-back interrupts queue FIFO. `name` is the trace subject only:
  /// callers that format it guard the formatting on `tracing()`.
  void post_interrupt(std::string_view name, duration wcet,
                      sim::event_callback body);

  /// True when this processor's trace records are kept.
  [[nodiscard]] bool tracing() const {
    return mon_ != nullptr && mon_->tracing();
  }

  // --- queries -------------------------------------------------------------
  [[nodiscard]] bool exists(kthread_id t) const { return find(t) != nullptr; }
  /// Thread-table slot of `t`: dense, below the table's high-water mark,
  /// reused after `destroy`. Callers keep per-thread side tables by it.
  [[nodiscard]] static std::size_t slot_of(kthread_id t) {
    return static_cast<std::size_t>(t.value & slot_mask);
  }
  [[nodiscard]] kthread_id running() const { return running_; }
  [[nodiscard]] bool is_runnable(kthread_id t) const;
  [[nodiscard]] bool has_started(kthread_id t) const;
  [[nodiscard]] duration executed(kthread_id t) const;
  [[nodiscard]] duration remaining(kthread_id t) const;
  [[nodiscard]] priority get_priority(kthread_id t) const;
  [[nodiscard]] std::string_view name(kthread_id t) const;

  struct counters {
    std::uint64_t context_switches = 0;
    std::uint64_t preemptions = 0;
    std::uint64_t interrupts = 0;
    duration busy = duration::zero();
    duration interrupt_time = duration::zero();
  };
  [[nodiscard]] const counters& stats() const { return stats_; }

  /// Threads currently in the run queue (highest priority first).
  [[nodiscard]] std::vector<kthread_id> run_queue() const;

 private:
  enum class state { suspended, queued, running, done };

  static constexpr unsigned slot_bits = 24;
  static constexpr std::uint64_t slot_mask =
      (std::uint64_t{1} << slot_bits) - 1;

  struct thread {
    std::string name;
    kthread_id id;  // invalid_kthread while the slot is free
    priority prio = prio::min_app;
    priority pt = prio::min_app;
    duration remaining = duration::zero();
    duration total_executed = duration::zero();
    sim::event_callback on_done;
    state st = state::suspended;
    // A job that has started holds the CPU at its preemption threshold;
    // while preempted it competes at that boosted level (section 3.2.1).
    bool boosted = false;
    std::uint64_t queue_seq = 0;       // FIFO order within a priority level
    time_point burst_start;            // valid while running
    duration burst_cs = duration::zero();  // switch overhead of this burst
    sim::event_id completion = sim::invalid_event;
  };

  // Run-queue key: higher effective priority first, then FIFO. The queue
  // is a vector sorted by descending key — the head (smallest key) at the
  // back — so inserts and removals reuse its storage where a tree would
  // allocate a node each time.
  using queue_key = std::pair<std::int64_t, std::uint64_t>;
  using queue_entry = std::pair<queue_key, kthread_id>;
  static priority effective_prio(const thread& th) {
    return th.boosted ? std::max(th.prio, th.pt) : th.prio;
  }
  static queue_key key_of(const thread& th) {
    return {-static_cast<std::int64_t>(effective_prio(th)), th.queue_seq};
  }

  [[nodiscard]] const thread* find(kthread_id t) const {
    const std::size_t slot = slot_of(t);
    return slot < threads_.size() && threads_[slot].id == t &&
                   t != invalid_kthread
               ? &threads_[slot]
               : nullptr;
  }
  thread& get(kthread_id t);
  const thread& get(kthread_id t) const;

  void enqueue(const thread& th, kthread_id t);
  void dequeue(const thread& th);
  void pause_running();          // stop the burst, keep state::running intent
  void requeue(kthread_id t);    // running -> queued (preemption)
  void start_burst(kthread_id t);
  void complete(kthread_id t);
  void finish_interrupt(std::uint64_t seq);
  void reschedule();
  void trace(monitor_event_kind k, std::string_view subject,
             std::string_view detail = {});
  [[nodiscard]] bool irq_active() const {
    return rt_->now() < irq_busy_until_;
  }

  runtime* rt_;
  node_id node_;
  duration context_switch_;
  monitor* mon_;

  // The thread table: a slot per thread, found by `slot_of(id)` and checked
  // against the slot's current id. A destroyed thread's slot keeps its
  // storage (name capacity included) for the next `create`.
  std::vector<thread> threads_;
  std::vector<std::uint32_t> free_slots_;  // destroyed threads' slots, LIFO
  std::vector<queue_entry> queue_;
  kthread_id running_ = invalid_kthread;
  kthread_id last_on_cpu_ = invalid_kthread;
  std::uint64_t next_thread_ = 1;  // creation sequence of the next thread
  std::uint64_t next_queue_seq_ = 1;

  time_point irq_busy_until_ = time_point::zero();
  // Bodies of posted interrupts, in post order. Each completion event
  // carries its post sequence number and pops the head (see
  // finish_interrupt for why the two always match).
  ring_fifo<sim::event_callback> irq_bodies_;
  std::uint64_t irq_posted_ = 0;
  std::uint64_t irq_finished_ = 0;
  counters stats_;
};

}  // namespace hades::core
