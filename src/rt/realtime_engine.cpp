#include "rt/realtime_engine.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <limits>
#include <mutex>
#include <thread>
#include <utility>

#include "sim/engine.hpp"
#include "util/error.hpp"

namespace hades::rt {

namespace {

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
  explicit realtime_engine(const options& o) : o_(o) {
    validate(o_.time_scale >= 1.0,
             "realtime_engine: time_scale must be >= 1 (real s per virtual s)");
    validate(o_.process_count >= 1, "realtime_engine: process_count >= 1");
    validate(o_.process_index < o_.process_count,
             "realtime_engine: process_index out of range");
    validate(o_.process_count == 1 || o_.node_count > 0,
             "realtime_engine: multi-process placement needs node_count");
    if (o_.epoch_ns == 0) o_.epoch_ns = steady_now_ns();
    // A late wake may land in any range, and the run loop must not
    // allocate to count it.
    lateness_.reserve(std::numeric_limits<std::int64_t>::max());
  }

  // --- clock ---------------------------------------------------------------

  [[nodiscard]] time_point now() const override {
    std::int64_t v = steady_now_ns() - o_.epoch_ns;
    if (v < 0) v = 0;  // pre-epoch (shared future epoch): virtual time is 0
    if (o_.time_scale != 1.0)
      v = static_cast<std::int64_t>(static_cast<double>(v) / o_.time_scale);
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
    std::lock_guard lk(mu_);
    const event_id id = core_.at(not_before_core(t), std::move(fn));
    cv_.notify_all();  // a waiting run loop re-evaluates its horizon
    return id;
  }

  event_id at_node(node_id dst, time_point t, event_fn fn) override {
    // Foreign nodes run their own chains in their owning process; whatever
    // must cross processes rides the socket transport, never the scheduler.
    if (owner(dst) != o_.process_index) return invalid_event;
    return at(t, std::move(fn));
  }

  void cancel(event_id id) override {
    std::lock_guard lk(mu_);
    core_.cancel(id);
  }

  // --- topology ------------------------------------------------------------

  [[nodiscard]] std::uint32_t shard_of(node_id n) const override {
    return owner(n);
  }
  [[nodiscard]] std::size_t shard_count() const override {
    return o_.process_count;
  }
  [[nodiscard]] std::uint32_t executing_shard() const override {
    return o_.process_index;
  }
  [[nodiscard]] bool in_event_context() const override {
    return exec_tid_.load(std::memory_order_relaxed) ==
           std::this_thread::get_id();
  }

  // --- execution -----------------------------------------------------------

  bool step() override {
    std::unique_lock lk(mu_);
    if (!wait_due(lk, time_point::infinity())) return false;
    fire_unlocked(lk, time_point::infinity());
    return true;
  }

  std::size_t run_until(time_point t) override {
    validate(!t.is_infinite(), "realtime_engine::run_until: infinite date");
    require(t >= now(), "realtime_engine::run_until: date in the past");
    std::unique_lock lk(mu_);
    const std::uint64_t before = core_.executed();
    while (wait_due(lk, t)) fire_unlocked(lk, t);
    // Nothing dated <= t is left, so this only settles the core at t.
    core_.run_until(t);
    // Settle the clock at exactly t for callers that schedule relative to
    // run_until's return (now() never regresses below this again).
    std::int64_t w = watermark_.load(std::memory_order_relaxed);
    while (t.nanoseconds() > w &&
           !watermark_.compare_exchange_weak(w, t.nanoseconds(),
                                             std::memory_order_relaxed)) {
    }
    return core_.executed() - before;
  }

  std::size_t run(std::size_t max_events) override {
    std::unique_lock lk(mu_);
    const std::uint64_t before = core_.executed();
    while (core_.executed() - before < max_events &&
           wait_due(lk, time_point::infinity()))
      fire_unlocked(lk, time_point::infinity());
    return core_.executed() - before;
  }

  [[nodiscard]] bool empty() const override {
    std::lock_guard lk(mu_);
    return core_.empty();
  }
  [[nodiscard]] std::size_t pending() const override {
    std::lock_guard lk(mu_);
    return core_.pending();
  }
  [[nodiscard]] std::uint64_t executed() const override {
    std::lock_guard lk(mu_);
    return core_.executed();
  }

  [[nodiscard]] const hdr_histogram& lateness() const { return lateness_; }

 private:
  [[nodiscard]] std::uint32_t owner(node_id n) const {
    if (o_.process_count == 1) return 0;
    if (n < o_.node_shard.size()) return o_.node_shard[n];
    if (n < o_.node_count)
      return static_cast<std::uint32_t>(static_cast<std::size_t>(n) *
                                        o_.process_count / o_.node_count);
    return 0;
  }

  [[nodiscard]] steady::time_point real_deadline(time_point t) const {
    std::int64_t ns = t.nanoseconds();
    if (o_.time_scale != 1.0)
      ns = static_cast<std::int64_t>(static_cast<double>(ns) * o_.time_scale);
    return steady::time_point(std::chrono::nanoseconds(o_.epoch_ns + ns));
  }

  /// A date below the core's current instant (the date being fired, or the
  /// last run_until bound) — in practice a frame that surfaced after its own
  /// delivery date — is scheduled at that instant instead: it fires next,
  /// and can never pass a run_until bound. Caller holds mu_.
  [[nodiscard]] time_point not_before_core(time_point t) const {
    return t < core_.now() ? core_.now() : t;
  }

  /// Take the next event dated <= `limit` off the core and run its
  /// callback with mu_ released, so another thread may schedule or cancel
  /// while it runs (the core already tolerates the same calls made from
  /// inside a callback). `lk` holds mu_ again on return.
  void fire_unlocked(std::unique_lock<std::mutex>& lk, time_point limit) {
    event_fn fn = core_.take_due(limit);
    // The core's clock now reads the event's date.
    lateness_.record(std::chrono::duration_cast<std::chrono::nanoseconds>(
                         steady::now() - real_deadline(core_.now()))
                         .count());
    struct relock {
      realtime_engine* e;
      std::unique_lock<std::mutex>& lk;
      ~relock() {
        lk.lock();
        e->exec_tid_.store(std::thread::id{}, std::memory_order_relaxed);
      }
    };
    exec_tid_.store(std::this_thread::get_id(), std::memory_order_relaxed);
    lk.unlock();
    const relock guard{this, lk};
    fn();
  }

  /// Wait until the core's next event is due on the wall clock and return
  /// true; return false once nothing dated <= `until` is pending and the
  /// wall clock has passed `until` (at once when `until` is infinite). An
  /// insertion from another thread wakes the wait to re-evaluate.
  bool wait_due(std::unique_lock<std::mutex>& lk, time_point until) {
    for (;;) {
      const time_point next = core_.peek_time();
      const bool has_next = !next.is_infinite() && next <= until;
      if (!has_next && until.is_infinite()) return false;
      const steady::time_point deadline = real_deadline(has_next ? next : until);
      if (steady::now() >= deadline) return has_next;
      cv_.wait_until(lk, deadline);
    }
  }

  options o_;
  mutable std::mutex mu_;  // guards core_
  std::condition_variable cv_;
  sim::engine core_;
  hdr_histogram lateness_;  // rows reserved; written under mu_, by the run loop
  mutable std::atomic<std::int64_t> watermark_{0};
  std::atomic<std::thread::id> exec_tid_{};
};

}  // namespace

std::unique_ptr<hades::runtime> make_realtime_engine(
    const hades::runtime::options& o) {
  return std::make_unique<realtime_engine>(o);
}

const hdr_histogram& wake_lateness(const hades::runtime& rt) {
  const auto* e = dynamic_cast<const realtime_engine*>(&rt);
  validate(e != nullptr, "wake_lateness: not a realtime backend");
  return e->lateness();
}

std::optional<std::uint32_t> time_scale_for(const hdr_histogram& lateness,
                                            duration delta_max) {
  constexpr std::int64_t floor = 3;
  constexpr duration margin = duration::milliseconds(10);
  constexpr std::int64_t cap = 16;
  validate(delta_max > duration::zero(), "time_scale_for: delta_max <= 0");
  const std::int64_t needed_ns =
      2 * lateness.value_at_quantile(0.999) + margin.count();
  const std::int64_t scale = std::max(
      floor, (needed_ns + delta_max.count() - 1) / delta_max.count());
  if (scale > cap) return std::nullopt;
  return static_cast<std::uint32_t>(scale);
}

}  // namespace hades::rt
