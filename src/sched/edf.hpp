// Earliest Deadline First scheduler (paper section 3.2.2, Figure 2).
//
// The policy keeps the set of live threads ordered by absolute deadline and
// maps that order onto the application priority band through the dispatcher
// primitive. Exactly as in Figure 2: upon an Atv notification it raises the
// newly activated thread above every thread with a later deadline (and
// lowers those); Trm notifications require no priority change — the paper
// says EDF "ignores" them — the policy only drops its bookkeeping entry.
#pragma once

#include <string>
#include <vector>

#include "core/scheduling.hpp"

namespace hades::sched {

class edf_policy : public core::policy {
 public:
  [[nodiscard]] std::string name() const override { return "EDF"; }

  void handle(const core::notification& n,
              core::scheduler_context& ctx) override;

 protected:
  struct live_thread {
    kthread_id thread;
    time_point deadline;
    std::uint64_t seq = 0;               // FIFO tie-break for equal deadlines
    priority current = prio::idle;       // last priority applied
  };

  /// Re-derive priorities from the deadline order; only threads whose rank
  /// changed are touched through the primitive (minimal-change property the
  /// Figure 2 trace relies on).
  void apply_ranks(core::scheduler_context& ctx);

  /// Current EDF priority for rank i (0 = earliest deadline).
  [[nodiscard]] static priority rank_priority(std::size_t i) {
    return prio::max_app - static_cast<priority>(i);
  }

  std::vector<live_thread> live_;  // sorted by (deadline, seq)

 private:
  std::uint64_t next_seq_ = 0;
};

}  // namespace hades::sched
