#include "core/processor.hpp"

#include <algorithm>

namespace hades::core {

namespace {
constexpr duration zero = duration::zero();
}

processor::thread& processor::get(kthread_id t) {
  return const_cast<thread&>(std::as_const(*this).get(t));
}

const processor::thread& processor::get(kthread_id t) const {
  const thread* th = find(t);
  require(th != nullptr, [t] {
    return "processor: unknown thread #" + std::to_string(t.value);
  });
  return *th;
}

void processor::trace(monitor_event_kind k, std::string_view subject,
                      std::string_view detail) {
  if (tracing()) mon_->trace(rt_->now(), node_, k, subject, detail);
}

void processor::enqueue(const thread& th, kthread_id t) {
  const queue_key key = key_of(th);
  const auto pos = std::upper_bound(
      queue_.begin(), queue_.end(), key,
      [](const queue_key& k, const queue_entry& e) { return k > e.first; });
  queue_.insert(pos, {key, t});
}

void processor::dequeue(const thread& th) {
  const queue_key key = key_of(th);
  const auto pos = std::lower_bound(
      queue_.begin(), queue_.end(), key,
      [](const queue_entry& e, const queue_key& k) { return e.first > k; });
  require(pos != queue_.end() && pos->first == key,
          "processor: queued thread missing from the run queue");
  queue_.erase(pos);
}

kthread_id processor::create(std::string_view name, priority prio,
                             priority pt, duration work,
                             sim::event_callback on_done) {
  require(!work.is_infinite() && !work.is_negative(),
          "processor::create: work must be finite and non-negative");
  std::size_t slot = threads_.size();
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    require(slot <= slot_mask, "processor::create: thread table full");
    threads_.emplace_back();
  }
  thread th;
  th.name = std::move(threads_[slot].name);  // reuses the slot's storage
  th.name.assign(name);
  th.id = kthread_id{(next_thread_++ << slot_bits) | slot};
  th.prio = prio;
  th.pt = std::max(pt, prio);
  th.remaining = work;
  th.on_done = std::move(on_done);
  trace(monitor_event_kind::thread_created, th.name);
  threads_[slot] = std::move(th);
  return threads_[slot].id;
}

void processor::destroy(kthread_id t) {
  thread& th = get(t);
  if (th.st == state::queued || th.st == state::running) suspend(t);
  th.id = invalid_kthread;
  th.on_done.reset();
  free_slots_.push_back(static_cast<std::uint32_t>(slot_of(t)));
}

void processor::make_runnable(kthread_id t) {
  thread& th = get(t);
  require(th.st == state::suspended, [&th] {
    return "processor::make_runnable: thread '" + th.name +
           "' is not suspended";
  });
  th.st = state::queued;
  th.queue_seq = next_queue_seq_++;
  enqueue(th, t);
  trace(monitor_event_kind::thread_runnable, th.name);
  reschedule();
}

void processor::pause_running() {
  if (running_ == invalid_kthread) return;
  thread& th = get(running_);
  if (th.completion == sim::invalid_event) return;  // already paused
  rt_->cancel(th.completion);
  th.completion = sim::invalid_event;
  const duration burst = rt_->now() - th.burst_start;
  // The first part of a burst is the context-switch overhead; only time past
  // it consumes the thread's own work.
  const duration cs = std::min(burst, th.burst_cs);
  const duration work = burst - cs;
  th.remaining = std::max(zero, th.remaining - work);
  th.total_executed += work;
  stats_.busy += burst;
}

void processor::requeue(kthread_id t) {
  pause_running();
  thread& th = get(t);
  th.st = state::queued;
  th.boosted = true;  // started jobs compete at their preemption threshold
  // Keep the original queue_seq: a preempted thread resumes before
  // same-priority threads that arrived later.
  enqueue(th, t);
  running_ = invalid_kthread;
  ++stats_.preemptions;
  trace(monitor_event_kind::thread_preempted, th.name);
}

void processor::start_burst(kthread_id t) {
  thread& th = get(t);
  if (th.st == state::queued) dequeue(th);
  th.st = state::running;
  running_ = t;
  th.burst_cs = (last_on_cpu_ == t) ? zero : context_switch_;
  if (th.burst_cs > zero) ++stats_.context_switches;
  last_on_cpu_ = t;
  th.burst_start = rt_->now();
  trace(monitor_event_kind::thread_running, th.name);
  th.completion = rt_->at(rt_->now() + th.burst_cs + th.remaining,
                           [this, t] { complete(t); });
}

void processor::complete(kthread_id t) {
  thread& th = get(t);
  th.completion = sim::invalid_event;
  const duration burst = rt_->now() - th.burst_start;
  stats_.busy += burst;
  th.total_executed += th.remaining;
  th.remaining = zero;
  th.st = state::done;
  th.boosted = false;
  running_ = invalid_kthread;
  trace(monitor_event_kind::thread_done, th.name);
  // The callback may destroy this thread or create/release others (growing
  // the thread table), so it runs from a local and the thread is found
  // again afterwards. Moved back if the thread survives: add_work can
  // revive it for another run.
  sim::event_callback on_done = std::move(th.on_done);
  if (on_done) on_done();
  if (exists(t)) {
    thread& again = get(t);
    if (!again.on_done) again.on_done = std::move(on_done);
  }
  reschedule();
}

void processor::reschedule() {
  if (irq_active()) return;

  const bool have_candidate = !queue_.empty();
  const kthread_id candidate =
      have_candidate ? queue_.back().second : invalid_kthread;

  if (running_ != invalid_kthread) {
    thread& run = get(running_);
    if (have_candidate && effective_prio(get(candidate)) > run.pt) {
      requeue(running_);
      start_burst(candidate);
      return;
    }
    if (run.completion == sim::invalid_event) {
      // Paused by an interrupt burst that has now drained: resume.
      run.burst_cs = zero;  // returning from interrupt, no full switch
      run.burst_start = rt_->now();
      trace(monitor_event_kind::thread_running, run.name);
      run.completion =
          rt_->at(rt_->now() + run.remaining, [this, t = running_] { complete(t); });
    }
    return;
  }

  if (have_candidate) start_burst(candidate);
}

void processor::suspend(kthread_id t) {
  thread& th = get(t);
  switch (th.st) {
    case state::running:
      pause_running();
      running_ = invalid_kthread;
      th.st = state::suspended;
      trace(monitor_event_kind::thread_blocked, th.name);
      reschedule();
      return;
    case state::queued:
      dequeue(th);
      th.st = state::suspended;
      trace(monitor_event_kind::thread_blocked, th.name);
      return;
    case state::suspended:
    case state::done:
      return;
  }
}

void processor::set_priority(kthread_id t, priority prio) {
  thread& th = get(t);
  if (th.prio == prio) return;
  const bool queued = th.st == state::queued;
  if (queued) dequeue(th);
  th.prio = prio;
  th.pt = std::max(th.pt, prio);
  if (queued) enqueue(th, t);
  reschedule();
}

void processor::set_threshold(kthread_id t, priority pt) {
  thread& th = get(t);
  // The threshold participates in the queue key of boosted (preempted)
  // threads: reposition to keep the key consistent.
  const bool queued = th.st == state::queued;
  if (queued) dequeue(th);
  th.pt = std::max(pt, th.prio);
  if (queued) enqueue(th, t);
  reschedule();
}

void processor::add_work(kthread_id t, duration extra) {
  require(!extra.is_negative(), "processor::add_work: negative work");
  thread& th = get(t);
  if (th.st == state::running && th.completion != sim::invalid_event) {
    // Re-baseline the burst, then extend.
    pause_running();
    th.remaining += extra;
    th.st = state::running;  // pause_running does not change state
    th.burst_cs = zero;
    th.burst_start = rt_->now();
    th.completion =
        rt_->at(rt_->now() + th.remaining, [this, t] { complete(t); });
    return;
  }
  th.remaining += extra;
  if (th.st == state::done) th.st = state::suspended;  // revivable
}

void processor::post_interrupt(std::string_view name, duration wcet,
                               sim::event_callback body) {
  require(!wcet.is_negative() && !wcet.is_infinite(),
          "processor::post_interrupt: bad handler WCET");
  if (!irq_active()) {
    irq_busy_until_ = rt_->now();
    pause_running();  // the incumbent resumes after the burst drains
  }
  irq_busy_until_ += wcet;
  ++stats_.interrupts;
  stats_.interrupt_time += wcet;
  stats_.busy += wcet;
  trace(monitor_event_kind::custom, name, "interrupt");

  // The body waits in the FIFO; the completion event carries only `this`
  // and the post sequence number, so it stays inline in the event pool
  // whatever the body captures.
  irq_bodies_.push_back(std::move(body));
  rt_->at(irq_busy_until_,
          [this, seq = ++irq_posted_] { finish_interrupt(seq); });
}

void processor::finish_interrupt(std::uint64_t seq) {
  // Completions fire in post order: each is dated at irq_busy_until_ right
  // after its post, that date never decreases (a burst restarts at now(),
  // which is >= the old value once the burst has drained, and only grows
  // by non-negative WCETs), and the runtime fires same-instant events in
  // scheduling order. So the event of post #seq always finds body #seq at
  // the head of the FIFO — checked, not assumed.
  require(seq == ++irq_finished_,
          "processor: interrupt completion out of post order");
  sim::event_callback body = irq_bodies_.pop_front();
  if (body) body();
  if (!irq_active()) reschedule();
}

bool processor::is_runnable(kthread_id t) const {
  const thread* th = find(t);
  return th != nullptr && th->st == state::queued;
}

bool processor::has_started(kthread_id t) const {
  const thread& th = get(t);
  if (th.total_executed > zero || th.st == state::done) return true;
  if (th.st != state::running) return false;
  // Running: started once past the context-switch part of the burst.
  return rt_->now() - th.burst_start > th.burst_cs;
}

duration processor::executed(kthread_id t) const {
  const thread& th = get(t);
  duration total = th.total_executed;
  if (th.st == state::running && th.completion != sim::invalid_event) {
    const duration burst = rt_->now() - th.burst_start;
    total += std::max(zero, burst - th.burst_cs);
  }
  return total;
}

duration processor::remaining(kthread_id t) const {
  const thread& th = get(t);
  duration rem = th.remaining;
  if (th.st == state::running && th.completion != sim::invalid_event) {
    const duration burst = rt_->now() - th.burst_start;
    rem = std::max(zero, rem - std::max(zero, burst - th.burst_cs));
  }
  return rem;
}

priority processor::get_priority(kthread_id t) const { return get(t).prio; }

std::string_view processor::name(kthread_id t) const { return get(t).name; }

std::vector<kthread_id> processor::run_queue() const {
  std::vector<kthread_id> out;
  out.reserve(queue_.size());
  for (auto it = queue_.rbegin(); it != queue_.rend(); ++it)
    out.push_back(it->second);
  return out;
}

}  // namespace hades::core
