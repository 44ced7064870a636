#include "rt/realtime_engine.hpp"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <queue>
#include <thread>
#include <utility>

#include "util/error.hpp"

namespace hades::rt {

namespace {

using sim::event_batch;
using sim::event_fn;
using sim::event_id;
using sim::invalid_event;

using steady = std::chrono::steady_clock;

[[nodiscard]] std::int64_t steady_now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             steady::now().time_since_epoch())
      .count();
}

class realtime_engine final : public hades::runtime {
 public:
  explicit realtime_engine(realtime_params p) : p_(std::move(p)) {
    validate(p_.time_scale >= 1.0,
             "realtime_engine: time_scale must be >= 1 (real s per virtual s)");
    validate(p_.process_count >= 1, "realtime_engine: process_count >= 1");
    validate(p_.process_index < p_.process_count,
             "realtime_engine: process_index out of range");
    validate(p_.process_count == 1 || p_.node_count > 0,
             "realtime_engine: multi-process placement needs node_count");
    if (p_.epoch_ns == 0) p_.epoch_ns = steady_now_ns();
  }

  // --- clock ---------------------------------------------------------------

  [[nodiscard]] time_point now() const override {
    std::int64_t v = steady_now_ns() - p_.epoch_ns;
    if (v < 0) v = 0;  // pre-epoch (shared future epoch): virtual time is 0
    if (p_.time_scale != 1.0)
      v = static_cast<std::int64_t>(static_cast<double>(v) / p_.time_scale);
    // Monotone across threads: never report less than any prior answer (or
    // any date run_until already settled past).
    std::int64_t w = watermark_.load(std::memory_order_relaxed);
    while (v > w &&
           !watermark_.compare_exchange_weak(w, v, std::memory_order_relaxed)) {
    }
    return time_point::at(duration::nanoseconds(v > w ? v : w));
  }

  // --- scheduling ----------------------------------------------------------

  event_id at(time_point t, event_fn fn) override {
    validate(!t.is_infinite(), "realtime_engine::at: infinite date");
    std::lock_guard lk(mu_);
    return arm_locked(t, duration::infinity(), std::move(fn));
  }

  event_id at_node(node_id dst, time_point t, event_fn fn) override {
    // Foreign nodes run their own chains in their owning process; whatever
    // must cross processes rides the socket transport, never the scheduler.
    if (owner(dst) != p_.process_index) return invalid_event;
    return at(t, std::move(fn));
  }

  event_id schedule_periodic(time_point first, duration period,
                             event_fn fn) override {
    if (first.is_infinite() || period.is_infinite()) return invalid_event;
    validate(period.count() >= 1,
             "realtime_engine::schedule_periodic: period must be >= 1ns");
    std::lock_guard lk(mu_);
    return arm_locked(first, period, std::move(fn));
  }

  void cancel(event_id id) override {
    if (id == invalid_event) return;
    std::lock_guard lk(mu_);
    const auto idx = static_cast<std::uint32_t>(id.value >> 32) - 1;
    const auto gen = static_cast<std::uint32_t>(id.value & 0xFFFFFFFFu);
    if (idx >= slots_.size()) return;
    slot& s = slots_[idx];
    if (s.gen != gen || !s.active) return;  // stale: fired or cancelled
    s.active = false;
    if (s.staged) return;  // commit() frees skipped members
    if (s.queued) --pending_;  // not queued: a periodic executing right now
    free_slot_locked(idx);  // any heap entry goes stale and is skipped
  }

  // --- topology ------------------------------------------------------------

  [[nodiscard]] std::uint32_t shard_of(node_id n) const override {
    return owner(n);
  }
  [[nodiscard]] std::size_t shard_count() const override {
    return p_.process_count;
  }
  [[nodiscard]] std::uint32_t executing_shard() const override {
    return p_.process_index;
  }
  [[nodiscard]] bool in_event_context() const override {
    return exec_tid_.load(std::memory_order_relaxed) ==
           std::this_thread::get_id();
  }

  // --- batches -------------------------------------------------------------

  event_batch open_batch(time_point t) override {
    validate(!t.is_infinite(), "realtime_engine::open_batch: infinite date");
    event_batch b;
    b.t = t;
    return b;
  }

  event_id batch_add(event_batch& b, event_fn fn) override {
    require(!b.committed, "realtime_engine::batch_add: batch already committed");
    std::lock_guard lk(mu_);
    const std::uint32_t idx = alloc_slot_locked();
    slot& s = slots_[idx];
    s.active = true;
    s.staged = true;
    s.t = b.t;
    s.period = duration::infinity();
    s.fn = std::move(fn);
    s.chain_next = nil;
    if (b.count == 0)
      b.head = idx;
    else
      slots_[b.tail].chain_next = idx;
    b.tail = idx;
    ++b.count;
    return make_id(idx);
  }

  void commit(event_batch& b) override {
    require(!b.committed, "realtime_engine::commit: batch already committed");
    b.committed = true;
    if (b.count == 0) return;
    std::lock_guard lk(mu_);
    // Members get consecutive sequence numbers at the commit point, so the
    // burst fires FIFO in add order and sits among same-instant events by
    // when it was committed — the contract's ordering rule.
    for (std::uint32_t idx = b.head; idx != nil;) {
      slot& s = slots_[idx];
      const std::uint32_t next = s.chain_next;
      if (s.active) {
        s.staged = false;
        s.queued = true;
        s.seq = ++seq_counter_;
        heap_.push({s.t, s.seq, idx, s.gen});
        ++pending_;
      } else {
        free_slot_locked(idx);  // cancelled while staged
      }
      idx = next;
    }
    cv_.notify_all();
  }

  // --- execution -----------------------------------------------------------

  bool step() override {
    std::unique_lock lk(mu_);
    for (;;) {
      if (!prune_top_locked()) return false;  // idle
      const entry e = heap_.top();
      if (!wait_for_locked(lk, e.t)) continue;  // an earlier event arrived
      if (!pop_top_if_locked(e)) continue;      // the head changed mid-wait
      if (fire_locked(e, lk)) return true;
    }
  }

  std::size_t run_until(time_point t) override {
    validate(!t.is_infinite(), "realtime_engine::run_until: infinite date");
    require(t >= now(), "realtime_engine::run_until: date in the past");
    std::size_t n = 0;
    std::unique_lock lk(mu_);
    for (;;) {
      if (prune_top_locked() && heap_.top().t <= t) {
        const entry e = heap_.top();
        if (!wait_for_locked(lk, e.t)) continue;
        if (!pop_top_if_locked(e)) continue;
        if (fire_locked(e, lk)) ++n;
        continue;
      }
      // Nothing (left) dated <= t: hold until the wall clock passes t — an
      // insertion meanwhile (a transport delivery) re-evaluates the loop.
      if (wait_for_locked(lk, t)) break;
    }
    // Settle the clock at exactly t for callers that schedule relative to
    // run_until's return (now() never regresses below this again).
    std::int64_t w = watermark_.load(std::memory_order_relaxed);
    while (t.nanoseconds() > w &&
           !watermark_.compare_exchange_weak(w, t.nanoseconds(),
                                             std::memory_order_relaxed)) {
    }
    return n;
  }

  std::size_t run(std::size_t max_events) override {
    std::size_t n = 0;
    std::unique_lock lk(mu_);
    while (n < max_events) {
      if (!prune_top_locked()) break;  // drained
      const entry e = heap_.top();
      if (!wait_for_locked(lk, e.t)) continue;
      if (!pop_top_if_locked(e)) continue;
      if (fire_locked(e, lk)) ++n;
    }
    return n;
  }

  [[nodiscard]] bool empty() const override {
    std::lock_guard lk(mu_);
    return pending_ == 0;
  }
  [[nodiscard]] std::size_t pending() const override {
    std::lock_guard lk(mu_);
    return pending_;
  }
  [[nodiscard]] std::uint64_t executed() const override {
    return executed_.load(std::memory_order_relaxed);
  }

 private:
  static constexpr std::uint32_t nil = 0xFFFFFFFFu;

  struct slot {
    std::uint32_t gen = 1;
    bool active = false;
    bool staged = false;  // in an uncommitted batch chain, not in the heap
    bool queued = false;  // a live heap entry references this slot
    time_point t;
    duration period = duration::infinity();  // finite = periodic, slot persists
    std::uint64_t seq = 0;
    std::uint32_t chain_next = nil;  // staged-batch chain / free list
    event_fn fn;
  };

  struct entry {
    time_point t;
    std::uint64_t seq = 0;
    std::uint32_t slot = 0;
    std::uint32_t gen = 0;
  };
  struct entry_after {
    bool operator()(const entry& a, const entry& b) const {
      if (a.t.nanoseconds() != b.t.nanoseconds())
        return a.t.nanoseconds() > b.t.nanoseconds();
      return a.seq > b.seq;  // same instant: scheduling FIFO
    }
  };

  [[nodiscard]] std::uint32_t owner(node_id n) const {
    if (p_.process_count == 1) return 0;
    if (n < p_.node_process.size()) return p_.node_process[n];
    if (n < p_.node_count)
      return static_cast<std::uint32_t>(static_cast<std::size_t>(n) *
                                        p_.process_count / p_.node_count);
    return 0;
  }

  [[nodiscard]] steady::time_point real_deadline(time_point t) const {
    std::int64_t ns = t.nanoseconds();
    if (p_.time_scale != 1.0)
      ns = static_cast<std::int64_t>(static_cast<double>(ns) * p_.time_scale);
    return steady::time_point(std::chrono::nanoseconds(p_.epoch_ns + ns));
  }

  [[nodiscard]] static event_id make_id_for(std::uint32_t idx,
                                            std::uint32_t gen) {
    return event_id{(static_cast<std::uint64_t>(idx) + 1) << 32 | gen};
  }
  [[nodiscard]] event_id make_id(std::uint32_t idx) const {
    return make_id_for(idx, slots_[idx].gen);
  }

  std::uint32_t alloc_slot_locked() {
    if (free_head_ != nil) {
      const std::uint32_t idx = free_head_;
      free_head_ = slots_[idx].chain_next;
      slots_[idx].chain_next = nil;
      return idx;
    }
    slots_.emplace_back();
    return static_cast<std::uint32_t>(slots_.size() - 1);
  }

  void free_slot_locked(std::uint32_t idx) {
    slot& s = slots_[idx];
    s.fn.reset();
    s.active = false;
    s.staged = false;
    s.queued = false;
    s.period = duration::infinity();
    ++s.gen;  // stale ids and stale heap entries can never alias the slot
    s.chain_next = free_head_;
    free_head_ = idx;
  }

  event_id arm_locked(time_point t, duration period, event_fn fn) {
    const std::uint32_t idx = alloc_slot_locked();
    slot& s = slots_[idx];
    s.active = true;
    s.staged = false;
    s.queued = true;
    s.t = t;
    s.period = period;
    s.seq = ++seq_counter_;
    s.fn = std::move(fn);
    heap_.push({t, s.seq, idx, s.gen});
    ++pending_;
    cv_.notify_all();  // a waiting run loop re-evaluates its horizon
    return make_id(idx);
  }

  /// Drop stale heap heads (cancelled or re-armed slots). Returns true when
  /// a live top entry remains.
  bool prune_top_locked() {
    while (!heap_.empty()) {
      const entry& e = heap_.top();
      const slot& s = slots_[e.slot];
      if (s.gen == e.gen && s.active && s.seq == e.seq) return true;
      heap_.pop();
    }
    return false;
  }

  /// Pop the heap head only if it is still exactly `e`. wait_for_locked
  /// releases mu_ inside the condvar wait, so a transport thread can arm a
  /// new entry that sorts before `e` and still observe the deadline passed
  /// on wake-up; a blind pop would then discard the NEW head while firing
  /// `e`, silently losing the new event (pending_ never drains). Any such
  /// new head sorts <= e, so its deadline has passed too — the caller just
  /// re-evaluates and fires it first.
  bool pop_top_if_locked(const entry& e) {
    if (heap_.empty()) return false;
    const entry& top = heap_.top();
    if (top.slot != e.slot || top.gen != e.gen || top.seq != e.seq)
      return false;
    heap_.pop();
    return true;
  }

  /// Block until the wall clock reaches virtual date `t`. Returns true when
  /// the date was reached; false when woken early (new work may have
  /// changed the earliest deadline — re-evaluate).
  bool wait_for_locked(std::unique_lock<std::mutex>& lk, time_point t) {
    const steady::time_point deadline = real_deadline(t);
    if (steady::now() >= deadline) return true;
    cv_.wait_until(lk, deadline);
    return steady::now() >= deadline;
  }

  /// Execute a popped (validated-or-stale) entry. The lock is released
  /// around the callback; periodic slots re-arm afterwards unless cancelled
  /// mid-flight. Returns false for stale entries.
  bool fire_locked(const entry& e, std::unique_lock<std::mutex>& lk) {
    slot& s = slots_[e.slot];
    if (s.gen != e.gen || !s.active || s.seq != e.seq) return false;
    s.queued = false;
    --pending_;
    const bool periodic = !s.period.is_infinite();
    const time_point next = s.t + s.period;
    const std::uint32_t idx = e.slot;
    const std::uint32_t gen = e.gen;
    event_fn fn = std::move(s.fn);
    // One-shot slots are freed before the callback runs: cancel-after-fire
    // is a generation mismatch, and the callback may re-use the slot.
    if (!periodic) free_slot_locked(idx);
    exec_tid_.store(std::this_thread::get_id(), std::memory_order_relaxed);
    lk.unlock();
    fn();
    lk.lock();
    exec_tid_.store(std::thread::id{}, std::memory_order_relaxed);
    executed_.fetch_add(1, std::memory_order_relaxed);
    if (periodic) {
      slot& s2 = slots_[idx];
      if (s2.gen == gen && s2.active) {
        // Drift-free: the next date advances by exactly one period from the
        // nominal date, not from the (jittered) firing instant.
        s2.fn = std::move(fn);
        s2.t = next;
        s2.seq = ++seq_counter_;
        s2.queued = true;
        heap_.push({next, s2.seq, idx, gen});
        ++pending_;
      }
      // else: cancelled during execution; the slot is already freed.
    }
    return true;
  }

  realtime_params p_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::vector<slot> slots_;
  std::uint32_t free_head_ = nil;
  std::priority_queue<entry, std::vector<entry>, entry_after> heap_;
  std::uint64_t seq_counter_ = 0;
  std::size_t pending_ = 0;
  std::atomic<std::uint64_t> executed_{0};
  mutable std::atomic<std::int64_t> watermark_{0};
  std::atomic<std::thread::id> exec_tid_{};
};

}  // namespace

std::unique_ptr<hades::runtime> make_realtime_engine(realtime_params p) {
  return std::make_unique<realtime_engine>(std::move(p));
}

}  // namespace hades::rt
