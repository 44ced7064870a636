// Monitoring service (paper section 3.2.1) and the run's one observation
// log.
//
// The dispatcher monitors thread execution to detect: (i) deadline
// violations; (ii) violations of the arrival law of task activation
// requests; (iii) early thread termination and orphan thread execution;
// (iv) deadlocks; and (v) network omission failures, observed through
// remote precedence constraints that fail to arrive by the latest start
// time of their consumer. The paper notes no existing real-time
// environment implemented all of these — this module does. The fault
// detector additionally feeds node-suspicion events into the same stream,
// so mode policies can react to partitions as well as crashes.
//
// The same log holds the execution trace: thread state transitions,
// dispatcher/scheduler notifications, priority changes and service events
// (the Figure 2 reproduction reads its Atv / priority-change / Trm
// sequence from it, and `render_gantt` draws its timeline). Trace kinds are
// kept only while tracing is on (`system::config::tracing`), enter through
// `trace`, and never reach a listener or the forwarder. Monitoring kinds
// enter through `record`. A reader that wants one family filters `events()`
// by kind (`monitored_kinds`, `traced_kinds`).
//
// The monitor itself is an event sink with query helpers; the detectors
// live in the dispatcher/system, which know the execution state.
//
// Records are fixed-size (DESIGN.md, "Monitor records"): 40 trivially
// copyable bytes, with the subject and detail text held as ids into a
// table the monitor owns. `intern` copies each distinct string once, on
// first sight, and only the thread executing the monitor's runtime may call
// it. Node kinds (crash, recovery, suspicion) store no text at all: their
// subject and detail are rebuilt from `node` and `subject_node`.
//
// The log is a `monitor_log`: records in fixed blocks that never move, so
// growing it copies nothing and `clear()` keeps the blocks for the next run.
//
// Shard confinement (DESIGN.md): the monitor appends records in execution
// order. Each record carries the shard that appended it
// (`runtime::executing_shard()`, 0 when unbound), and `events()`
// stable-sorts the log in place by {time, shard} when something was
// appended out of that order. Equal keys keep append order, so readers see
// {time, shard, per-shard sequence}: independent of the order a serial
// round runs its shards in. Two subscription flavours exist:
//   * `subscribe` — synchronous, runs on the recording shard. The listener
//     must only touch state owned by that shard (or the monitor must only
//     be used on a single-shard backend).
//   * `subscribe_at_node` — the listener is re-invoked on the shard owning
//     `home`, at `record date + delay`, via `runtime::at_node`, for the
//     kinds it names. With a `delay` no smaller than the backend's
//     lookahead this is legal from any shard, and because the delay is a
//     constant the redelivery date is identical on every backend — what
//     keeps mode switching bit-identical across shard counts.
#pragma once

#include <compare>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <iterator>
#include <memory>
#include <new>
#include <string>
#include <string_view>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "sim/runtime.hpp"
#include "util/time.hpp"
#include "util/types.hpp"

namespace hades::core {

enum class monitor_event_kind : std::uint8_t {
  deadline_miss,
  arrival_law_violation,
  early_termination,
  orphan_killed,
  latest_start_violation,
  network_omission_suspected,
  deadlock_suspected,
  instance_rejected,
  node_crash,
  node_recover,
  node_suspected,    // fault detector: observer started suspecting `node`
  node_unsuspected,  // fault detector: observer heard `node` again
  // Trace kinds (`monitor::trace`). The values above never move: fuzz
  // coverage folds `1 << kind`, and the realtime codecs carry the number.
  thread_created,
  thread_runnable,
  thread_running,
  thread_preempted,
  thread_blocked,
  thread_done,
  thread_killed,
  notification,     // dispatcher -> scheduler FIFO insert
  priority_change,  // scheduler primitive
  earliest_change,  // scheduler primitive
  instance_activated,
  instance_completed,
  instance_aborted,
  service_event,
  custom,  // the last kind
};

[[nodiscard]] constexpr const char* to_string(monitor_event_kind k) {
  switch (k) {
    case monitor_event_kind::deadline_miss: return "deadline-miss";
    case monitor_event_kind::arrival_law_violation: return "arrival-law-violation";
    case monitor_event_kind::early_termination: return "early-termination";
    case monitor_event_kind::orphan_killed: return "orphan-killed";
    case monitor_event_kind::latest_start_violation: return "latest-start-violation";
    case monitor_event_kind::network_omission_suspected: return "network-omission-suspected";
    case monitor_event_kind::deadlock_suspected: return "deadlock-suspected";
    case monitor_event_kind::instance_rejected: return "instance-rejected";
    case monitor_event_kind::node_crash: return "node-crash";
    case monitor_event_kind::node_recover: return "node-recover";
    case monitor_event_kind::node_suspected: return "node-suspected";
    case monitor_event_kind::node_unsuspected: return "node-unsuspected";
    case monitor_event_kind::thread_created: return "created";
    case monitor_event_kind::thread_runnable: return "runnable";
    case monitor_event_kind::thread_running: return "running";
    case monitor_event_kind::thread_preempted: return "preempted";
    case monitor_event_kind::thread_blocked: return "blocked";
    case monitor_event_kind::thread_done: return "done";
    case monitor_event_kind::thread_killed: return "killed";
    case monitor_event_kind::notification: return "notification";
    case monitor_event_kind::priority_change: return "priority-change";
    case monitor_event_kind::earliest_change: return "earliest-change";
    case monitor_event_kind::instance_activated: return "instance-activated";
    case monitor_event_kind::instance_completed: return "instance-completed";
    case monitor_event_kind::instance_aborted: return "instance-aborted";
    case monitor_event_kind::service_event: return "service";
    case monitor_event_kind::custom: return "custom";
  }
  return "?";
}

static_assert(static_cast<unsigned>(monitor_event_kind::custom) < 32,
              "every kind needs a bit of kind_set");

/// A set of monitor event kinds, one bit per kind.
class kind_set {
 public:
  constexpr kind_set() = default;
  constexpr kind_set(std::initializer_list<monitor_event_kind> kinds) {
    for (const monitor_event_kind k : kinds) bits_ |= bit(k);
  }
  /// Every kind from `first` through `last`, in declaration order.
  [[nodiscard]] static constexpr kind_set span(monitor_event_kind first,
                                               monitor_event_kind last) {
    kind_set s;
    for (auto k = static_cast<unsigned>(first);
         k <= static_cast<unsigned>(last); ++k)
      s.bits_ |= std::uint32_t{1} << k;
    return s;
  }
  [[nodiscard]] constexpr bool contains(monitor_event_kind k) const {
    return (bits_ & bit(k)) != 0;
  }

 private:
  static constexpr std::uint32_t bit(monitor_event_kind k) {
    return std::uint32_t{1} << static_cast<unsigned>(k);
  }
  std::uint32_t bits_ = 0;
};

/// What monitoring records (`monitor::record`): paper 3.2.1 and the fault
/// detector.
inline constexpr kind_set monitored_kinds = kind_set::span(
    monitor_event_kind::deadline_miss, monitor_event_kind::node_unsuspected);
/// What tracing records (`monitor::trace`).
inline constexpr kind_set traced_kinds = kind_set::span(
    monitor_event_kind::thread_created, monitor_event_kind::custom);

/// Index into a monitor's name table (`monitor::intern`); 0 is the empty
/// string. Ids are local to one monitor.
using name_id = std::uint32_t;
inline constexpr name_id no_name = 0;

struct monitor_event {
  monitor_event_kind kind = monitor_event_kind::deadline_miss;
  std::uint16_t shard = 0;  // set by the monitor: the shard that appended it
  node_id node = invalid_node;
  time_point at;
  instance_number instance = 0;
  /// node_suspected / node_unsuspected: the suspected node (`node` is the
  /// observer).
  node_id subject_node = invalid_node;
  task_id task = invalid_task;
  /// Text ids; read them back with `monitor::subject_text`/`detail_text`.
  /// Node kinds leave both empty (see the file comment).
  name_id subject = no_name;
  name_id detail = no_name;
};
static_assert(std::is_trivially_copyable_v<monitor_event>);
static_assert(sizeof(monitor_event) == 40);

/// The monitor's log: records in blocks that never move, the first of
/// `first_block_records` and every later one of `block_records`, so a short
/// log pays for a short block. `push_back` allocates a block only when
/// every block is full and copies nothing; `clear()` empties the log and
/// keeps its blocks; a default-constructed log allocates nothing. Indexing
/// and the random-access iterators read it like a vector. The mutable
/// iterators exist for the monitor's in-place sort.
class monitor_log {
  struct block_free {
    std::size_t records;
    void operator()(monitor_event* block) const noexcept;
  };
  using block = std::unique_ptr<monitor_event, block_free>;

 public:
  static constexpr std::size_t first_block_records = 256;
  static constexpr std::size_t block_shift = 12;
  static constexpr std::size_t block_records = std::size_t{1} << block_shift;
  static_assert(first_block_records < block_records);

  template <bool Const>
  class basic_iterator {
   public:
    using iterator_category = std::random_access_iterator_tag;
    using value_type = monitor_event;
    using difference_type = std::ptrdiff_t;
    using pointer =
        std::conditional_t<Const, const monitor_event*, monitor_event*>;
    using reference =
        std::conditional_t<Const, const monitor_event&, monitor_event&>;

    basic_iterator() = default;

    reference operator*() const { return *slot(blocks_, i_); }
    pointer operator->() const { return &**this; }
    reference operator[](difference_type n) const { return *(*this + n); }

    basic_iterator& operator++() {
      ++i_;
      return *this;
    }
    basic_iterator operator++(int) {
      basic_iterator old = *this;
      ++i_;
      return old;
    }
    basic_iterator& operator--() {
      --i_;
      return *this;
    }
    basic_iterator operator--(int) {
      basic_iterator old = *this;
      --i_;
      return old;
    }
    basic_iterator& operator+=(difference_type n) {
      i_ += static_cast<std::size_t>(n);
      return *this;
    }
    basic_iterator& operator-=(difference_type n) {
      i_ -= static_cast<std::size_t>(n);
      return *this;
    }
    friend basic_iterator operator+(basic_iterator it, difference_type n) {
      return it += n;
    }
    friend basic_iterator operator+(difference_type n, basic_iterator it) {
      return it += n;
    }
    friend basic_iterator operator-(basic_iterator it, difference_type n) {
      return it -= n;
    }
    friend difference_type operator-(const basic_iterator& a,
                                     const basic_iterator& b) {
      return static_cast<difference_type>(a.i_) -
             static_cast<difference_type>(b.i_);
    }
    friend bool operator==(const basic_iterator& a, const basic_iterator& b) {
      return a.i_ == b.i_;
    }
    friend std::strong_ordering operator<=>(const basic_iterator& a,
                                            const basic_iterator& b) {
      return a.i_ <=> b.i_;
    }

   private:
    friend class monitor_log;
    basic_iterator(const block* blocks, std::size_t i)
        : blocks_(blocks), i_(i) {}

    const block* blocks_ = nullptr;
    std::size_t i_ = 0;
  };
  using iterator = basic_iterator<false>;
  using const_iterator = basic_iterator<true>;

  monitor_log() = default;
  monitor_log(const monitor_log&) = delete;
  monitor_log& operator=(const monitor_log&) = delete;

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] const monitor_event& operator[](std::size_t i) const {
    return *slot(blocks_.data(), i);
  }
  [[nodiscard]] const monitor_event& back() const { return (*this)[size_ - 1]; }

  [[nodiscard]] const_iterator begin() const { return {blocks_.data(), 0}; }
  [[nodiscard]] const_iterator end() const { return {blocks_.data(), size_}; }
  [[nodiscard]] iterator begin() { return {blocks_.data(), 0}; }
  [[nodiscard]] iterator end() { return {blocks_.data(), size_}; }

  void push_back(const monitor_event& e) {
    if (size_ == capacity_) add_block();
    ::new (slot(blocks_.data(), size_)) monitor_event(e);
    ++size_;
  }
  /// Empty the log; the blocks stay for the records that follow.
  void clear() { size_ = 0; }

 private:
  // Record `i`: a compare, then a shift and a mask. Counted from
  // `block_records - first_block_records` records before the log's start,
  // every block after the first starts on a multiple of `block_records`.
  static monitor_event* slot(const block* blocks, std::size_t i) {
    if (i < first_block_records) return blocks[0].get() + i;
    const std::size_t j = i + (block_records - first_block_records);
    return blocks[j >> block_shift].get() + (j & (block_records - 1));
  }
  void add_block();

  std::vector<block> blocks_;
  std::size_t size_ = 0;
  std::size_t capacity_ = 0;  // records the blocks hold
};

class monitor {
 public:
  using listener = std::function<void(const monitor_event&)>;

  monitor() = default;
  // Listeners and the name table point into the monitor itself.
  monitor(const monitor&) = delete;
  monitor& operator=(const monitor&) = delete;

  /// Attach to a runtime: `record` tags each event with the executing
  /// shard, and `subscribe_at_node` redelivers through the runtime. The
  /// owning `core::system` calls this from its constructor.
  void bind(hades::runtime& rt) { rt_ = &rt; }

  /// The id of `text`, copying it into the name table the first time it is
  /// seen; later calls with equal text find it without allocating. Only the
  /// thread executing the bound runtime's events may call this (forwarded
  /// text arrives through `deliver_forwarded` on that thread).
  [[nodiscard]] name_id intern(std::string_view text);
  /// The text of an id from this monitor's `intern`.
  [[nodiscard]] std::string_view name(name_id id) const {
    return id == no_name ? std::string_view{} : *names_.at(id - 1);
  }
  /// The subject and detail text of `e`, byte for byte what `render`
  /// prints. Node kinds rebuild theirs: the subject is `node<N>` and a
  /// suspicion's detail `observer node<observer>`.
  [[nodiscard]] std::string subject_text(const monitor_event& e) const;
  [[nodiscard]] std::string detail_text(const monitor_event& e) const;

  /// Append `e` (a monitored kind), then notify synchronous listeners and
  /// schedule (or forward) a redelivery for each routed listener that wants
  /// `e.kind`. Listeners receive a copy, so a listener that records in turn
  /// is safe.
  void record(monitor_event e);

  /// The tracing switch. A monitor starts with it off; the owning system
  /// sets it from `config::tracing`.
  void set_tracing(bool on) { tracing_ = on; }
  [[nodiscard]] bool tracing() const { return tracing_; }

  /// Append a trace record (a kind of `traced_kinds`) while tracing is on,
  /// else do nothing. The subject and detail go through the name table,
  /// and the record carries the executing shard as `record`'s do. No
  /// listener and no forwarder ever sees it. Callers that format a subject
  /// or detail guard the formatting on `tracing()`.
  void trace(time_point at, node_id node, monitor_event_kind kind,
             std::string_view subject, std::string_view detail = {});

  /// Subscribe to every future monitored event, synchronously on the
  /// recording shard (shard-local listeners and serial-mode services).
  void subscribe(listener l) { listeners_.push_back(std::move(l)); }

  /// Subscribe with deterministic cross-shard redelivery: the listener runs
  /// on the shard owning `home`, at the event date + `delay`, for the
  /// `kinds` it names; other kinds cost it nothing. `delay` must be >= the
  /// backend's cross-shard lookahead (the network's delta_min for system
  /// runs); it is applied on every backend so redelivery dates are
  /// backend-independent. Without a bound runtime the listener fires
  /// synchronously.
  void subscribe_at_node(node_id home, duration delay, kind_set kinds,
                         listener l) {
    routed_.push_back({home, delay, kinds, std::move(l)});
  }

  /// Multi-process runtimes: a routed listener whose home node lives in
  /// another OS process cannot be re-invoked through `at_node` (closures do
  /// not cross address spaces — the realtime backend silently drops foreign
  /// `at_node`s). A forwarder intercepts those redeliveries: `record` offers
  /// it each (event, home, delay) triple once per distinct home whose
  /// listeners want the kind; returning true means "home is foreign, I
  /// shipped the event" (the owning process re-injects it via
  /// `deliver_forwarded`), false falls through to the local `at_node` path.
  /// Null (every sim run) changes nothing.
  using forward_fn =
      std::function<bool(const monitor_event&, node_id home, duration delay)>;
  void set_forwarder(forward_fn f) { forwarder_ = std::move(f); }

  /// Re-deliver an event forwarded from another process to the routed
  /// listeners subscribed at `home` (which this process owns). Name ids do
  /// not cross processes, so the subject and detail arrive as text and are
  /// interned here: call on the runtime's event thread, where the socket
  /// transport decodes forwarded frames. The event is NOT re-recorded — its
  /// originating process already logged it — so merged streams
  /// concatenated across processes stay duplicate-free.
  void deliver_forwarded(monitor_event e, std::string_view subject,
                         std::string_view detail, node_id home);

  /// The log: every monitored and trace record, ordered by {time, shard,
  /// per-shard sequence}. Sorted in place when needed; query between runs.
  [[nodiscard]] const monitor_log& events() const;

  [[nodiscard]] std::size_t count(monitor_event_kind k) const {
    std::size_t n = 0;
    for (const auto& e : events_)
      if (e.kind == k) ++n;
    return n;
  }
  [[nodiscard]] std::size_t count_for_task(monitor_event_kind k,
                                           task_id t) const {
    std::size_t n = 0;
    for (const auto& e : events_)
      if (e.kind == k && e.task == t) ++n;
    return n;
  }
  /// Drop the records; the log keeps its blocks. The name table stays: ids
  /// held elsewhere remain readable.
  void clear() {
    events_.clear();
    sorted_ = true;
  }

  /// One line per record of `kinds`, in log order.
  [[nodiscard]] std::string render(kind_set kinds) const;

  /// ASCII Gantt chart of thread execution between t0 and t1, one column
  /// per `column`, built from the thread trace records: one row per subject
  /// that ran inside the window, in subject order.
  [[nodiscard]] std::string render_gantt(time_point t0, time_point t1,
                                         duration column) const;

 private:
  struct routed_listener {
    node_id home = 0;
    duration delay = duration::zero();
    kind_set kinds;
    listener fn;
  };
  struct name_hash {
    using is_transparent = void;
    std::size_t operator()(std::string_view s) const noexcept {
      return std::hash<std::string_view>{}(s);
    }
  };

  void append(monitor_event& e);
  void redeliver(std::size_t listener_index, const monitor_event& e);

  hades::runtime* rt_ = nullptr;
  bool tracing_ = false;
  // Execution order; `events()` sorts it when `sorted_` is false.
  mutable monitor_log events_;
  mutable bool sorted_ = true;
  // Name table: each distinct text once, as a key of `name_index_` (node
  // keys never move), and `names_[id - 1]` points at it.
  std::unordered_map<std::string, name_id, name_hash, std::equal_to<>>
      name_index_;
  std::vector<const std::string*> names_;
  std::vector<listener> listeners_;
  std::vector<routed_listener> routed_;
  forward_fn forwarder_;  // null outside multi-process realtime runs
};

}  // namespace hades::core
