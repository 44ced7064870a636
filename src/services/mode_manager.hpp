// Operating-mode management (paper section 3.2.1: the dispatcher "includes
// low-level fault-tolerance mechanisms (e.g. state capture, switching of
// modes of operation in case of failure [Mos94])").
//
// The manager watches the monitor stream and switches between NORMAL,
// DEGRADED and SAFE modes when configured thresholds are crossed: deadline
// misses, node crashes, and — for faults a crash counter cannot see, like
// partitions — the number of distinct peers the fault detector suspects
// (`suspicions_for_degraded`). A mode switch captures the current task
// states (state capture) and invokes the registered entry hook within a
// bounded time.
//
// Shard confinement (DESIGN.md): mode state lives on the shard owning
// `home` (node 0 by default). The manager subscribes to the monitor with
// `subscribe_at_node` for the kinds it counts (deadline misses, crashes,
// and suspicions and their retractions only when `suspicions_for_degraded`
// is set), so each such event —
// recorded on whatever shard the fault touched — is redelivered on the
// home shard at `event date + delta_min`. The delay is the same constant
// on every backend, which keeps switch dates bit-identical across shard
// counts; it is also exactly the sharded backend's cross-shard lookahead,
// making the redelivery legal from any shard. Switch latency is therefore
// one minimum network hop — still far inside the scenario checkers'
// millisecond bound.
#pragma once

#include <any>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "core/system.hpp"
#include "sim/wire_payload.hpp"

namespace hades::svc {

enum class op_mode { normal, degraded, safe };

[[nodiscard]] constexpr const char* to_string(op_mode m) {
  switch (m) {
    case op_mode::normal: return "NORMAL";
    case op_mode::degraded: return "DEGRADED";
    case op_mode::safe: return "SAFE";
  }
  return "?";
}

class mode_manager {
 public:
  struct thresholds {
    std::size_t misses_for_degraded = 1;
    std::size_t misses_for_safe = 3;
    std::size_t crashes_for_safe = 1;
    /// 0 disables; otherwise this many node crashes degrade operation (the
    /// scenario campaign's single-crash plans use 1 here with a higher
    /// crashes_for_safe so one crash degrades and a second one safes).
    std::size_t crashes_for_degraded = 0;
    /// 0 disables; otherwise operation degrades once this many *distinct*
    /// nodes are concurrently suspected by the fault detector
    /// (suspicion-driven mode policy: a partition crashes nothing, but both
    /// sides suspect each other — see the partition_degrades_mode
    /// scenario). A retracted suspicion (node_unsuspected: the subject was
    /// heard again) stops counting, so transient false suspicions do not
    /// accumulate toward degradation forever.
    std::size_t suspicions_for_degraded = 0;
  };

  using hook_fn = std::function<void(op_mode from, op_mode to, time_point at)>;

  /// `home` is the node whose shard owns the mode state; hooks and state
  /// capture run there.
  mode_manager(core::system& sys, thresholds t, node_id home = 0);

  void on_switch(hook_fn fn) { hooks_.push_back(std::move(fn)); }

  [[nodiscard]] op_mode mode() const { return mode_; }
  [[nodiscard]] std::uint64_t switches() const { return switches_; }
  [[nodiscard]] time_point last_switch() const { return last_switch_; }
  [[nodiscard]] node_id home() const { return home_; }

  /// State capture: snapshot of every registered task's state blob at the
  /// moment of the most recent switch, keyed by task and held as pooled
  /// wire payloads (each wrapping the task's `std::any` blob). Tasks homed
  /// on `home` are captured synchronously at the switch; tasks homed
  /// elsewhere are captured by an epoch-tagged request/reply exchange on
  /// ch_mode_capture — the reply reads the blob on the *owning* shard, so
  /// no shard ever touches another shard's state, and lands
  /// within two network hops of the switch. A straggler reply from a
  /// superseded switch is dropped by its stale epoch.
  [[nodiscard]] const std::map<task_id, sim::wire_payload>& captured_state()
      const {
    return captured_;
  }

  /// Typed view of one captured blob; null when absent (not yet replied,
  /// or never captured).
  template <typename T>
  [[nodiscard]] const T* captured(task_id t) const {
    auto it = captured_.find(t);
    if (it == captured_.end()) return nullptr;
    const std::any* blob = it->second.template get<std::any>();
    return blob == nullptr ? nullptr : std::any_cast<T>(blob);
  }

  /// Order-independent digest of the capture set (switch count plus the
  /// captured task ids) — what the scenario campaign folds into its
  /// cross-backend determinism checksum.
  [[nodiscard]] std::uint64_t capture_digest() const;

  /// Manual transition (e.g. operator command or recovery complete).
  void force_mode(op_mode m);

 private:
  void consider(const core::monitor_event& e);
  void switch_to(op_mode m);

  core::system* sys_;
  thresholds thresholds_;
  node_id home_ = 0;
  op_mode mode_ = op_mode::normal;
  std::size_t misses_ = 0;
  std::size_t crashes_ = 0;
  // suspected node -> number of observers currently suspecting it; an entry
  // is erased when its last suspicion is retracted, so size() is the count
  // of distinct concurrently-suspected nodes.
  std::map<node_id, std::size_t> suspected_subjects_;
  std::uint64_t switches_ = 0;
  time_point last_switch_;
  std::map<task_id, sim::wire_payload> captured_;
  std::vector<hook_fn> hooks_;
};

}  // namespace hades::svc
