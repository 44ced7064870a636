// Execution trace recorder.
//
// Records the observable events of a HADES run — thread state transitions,
// dispatcher/scheduler notifications, priority changes, service events —
// so that tests can assert on exact cooperation sequences (the Figure 2
// reproduction checks the Atv / priority-change / Trm trace verbatim) and
// examples can render ASCII Gantt timelines.
//
// Shard confinement (DESIGN.md): once bound to a runtime, the recorder keeps
// one event partition per shard (`sim::shard_log`) and `record` appends
// only to the partition of the shard executing the call. Readers see a
// single merged sequence ordered by the deterministic key
// {time, shard, per-shard sequence}: the same order the sharded backend
// gives cross-shard arrivals, so the merged trace does not depend on the
// order a serial round runs its shards in (and, absent cross-shard
// same-instant ties, is identical for any shard count). Query between
// runs, not from inside event handlers.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "sim/shard_log.hpp"
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
  std::string subject;  // thread / task / service name
  std::string detail;
};

class trace_recorder {
 public:
  /// Attach to a runtime: grows one partition per shard and routes `record`
  /// by `runtime::executing_shard()`. Call before the run starts (the
  /// owning `core::system` does, in its constructor).
  void bind(const hades::runtime& rt) { log_.bind(rt); }

  void enable(bool on = true) { enabled_ = on; }
  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Append one event. The strings are built here, after the `enabled()`
  /// check; callers that format a subject (ids, concatenations) guard the
  /// formatting on `enabled()` themselves, so a disabled recorder costs the
  /// per-event paths no string work.
  void record(time_point t, node_id node, trace_kind kind,
              std::string_view subject, std::string_view detail = {}) {
    if (!enabled_) return;
    log_.append({t, node, kind, std::string(subject), std::string(detail)});
  }

  /// Merged view over all shard partitions, ordered by
  /// {time, shard, per-shard sequence}. Rebuilt lazily; query between
  /// runs.
  [[nodiscard]] const std::vector<trace_event>& events() const {
    return log_.merged();
  }
  void clear() { log_.clear(); }

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
  struct time_of {
    time_point operator()(const trace_event& e) const { return e.t; }
  };

  bool enabled_ = true;
  shard_log<trace_event, time_of> log_;
};

}  // namespace hades::sim
