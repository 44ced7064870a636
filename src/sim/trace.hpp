// Execution trace recorder.
//
// Records the observable events of a HADES run — thread state transitions,
// dispatcher/scheduler notifications, priority changes, service events —
// so that tests can assert on exact cooperation sequences (the Figure 2
// reproduction checks the Atv / priority-change / Trm trace verbatim) and
// examples can render ASCII Gantt timelines.
//
// Shard confinement (DESIGN.md): the recorder keeps one vector of events in
// execution order, each tagged with the shard that appended it
// (`runtime::executing_shard()`, 0 when unbound). `events()` stable-sorts
// the vector in place by {time, shard} when something was appended out of
// that order. Equal keys keep append order, so readers see {time, shard,
// per-shard sequence}: the same order the sharded backend gives cross-shard
// arrivals, so the trace does not depend on the order a serial round runs
// its shards in (and, absent cross-shard same-instant ties, is identical
// for any shard count). Query between runs, not from inside event handlers.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "sim/runtime.hpp"
#include "util/time.hpp"
#include "util/types.hpp"

namespace hades::sim {

enum class trace_kind {
  thread_created,
  thread_runnable,
  thread_running,
  thread_preempted,
  thread_blocked,
  thread_done,
  thread_killed,
  notification,       // dispatcher -> scheduler FIFO insert
  priority_change,    // scheduler primitive
  earliest_change,    // scheduler primitive
  instance_activated,
  instance_completed,
  instance_aborted,
  message_sent,
  message_delivered,
  service_event,
  custom,
};

[[nodiscard]] std::string_view to_string(trace_kind k);

struct trace_event {
  time_point t;
  node_id node = invalid_node;
  trace_kind kind = trace_kind::custom;
  std::uint32_t shard = 0;  // the shard that recorded it
  std::string subject;  // thread / task / service name
  std::string detail;
};

class trace_recorder {
 public:
  /// Attach to a runtime: `record` then tags each event with
  /// `runtime::executing_shard()`. Call before the run starts (the owning
  /// `core::system` does, in its constructor).
  void bind(const hades::runtime& rt) { rt_ = &rt; }

  void enable(bool on = true) { enabled_ = on; }
  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Append one event. The strings are built here, after the `enabled()`
  /// check; callers that format a subject (ids, concatenations) guard the
  /// formatting on `enabled()` themselves, so a disabled recorder costs the
  /// per-event paths no string work.
  void record(time_point t, node_id node, trace_kind kind,
              std::string_view subject, std::string_view detail = {}) {
    if (enabled_) append(t, node, kind, subject, detail);
  }

  /// Every event, ordered by {time, shard, per-shard sequence}. Sorted in
  /// place when needed; query between runs.
  [[nodiscard]] const std::vector<trace_event>& events() const;
  void clear() {
    events_.clear();
    sorted_ = true;
  }

  /// All events of one kind, in order.
  [[nodiscard]] std::vector<trace_event> of_kind(trace_kind k) const;

  /// All events whose subject matches exactly.
  [[nodiscard]] std::vector<trace_event> for_subject(std::string_view subject) const;

  /// Human-readable dump of the full trace.
  [[nodiscard]] std::string render_log() const;

  /// ASCII Gantt chart of thread execution between t0 and t1 with the given
  /// column resolution. One row per subject that ran in the window.
  [[nodiscard]] std::string render_gantt(time_point t0, time_point t1,
                                         duration column) const;

 private:
  void append(time_point t, node_id node, trace_kind kind,
              std::string_view subject, std::string_view detail);

  bool enabled_ = true;
  const hades::runtime* rt_ = nullptr;
  // Execution order; `events()` sorts it when `sorted_` is false.
  mutable std::vector<trace_event> events_;
  mutable bool sorted_ = true;
};

}  // namespace hades::sim
