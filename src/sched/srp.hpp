// Stack Resource Policy [Bak91] layered over EDF — the combination the
// paper's worked example uses (section 5, after [Spu96]).
//
// Preemption levels are static: pi(i) > pi(j) iff D_i < D_j (relative
// deadlines). Every resource has a static ceiling: the minimum relative
// deadline among the tasks that ever claim it (computed from the registered
// HEUGs). The system ceiling is the minimum resource ceiling over currently
// granted resources. SRP's single rule — a job may not start until its
// preemption level exceeds the system ceiling — is enforced through the
// paper's dispatcher primitive: the policy holds a thread by setting its
// earliest start time to infinity on Atv, and releases eligible threads
// when the system ceiling drops (Rre). Because grants only ever happen to
// the highest-priority eligible thread and every later arrival passes
// through the Atv gate, the classic SRP invariants (no deadlock, at most
// one outermost blocking per job) carry over; tests verify both.
#pragma once

#include <map>
#include <set>
#include <string>
#include <vector>

#include "core/task_model.hpp"
#include "sched/edf.hpp"

namespace hades::sched {

class edf_srp_policy final : public edf_policy {
 public:
  /// Ceilings are derived from every task that can ever run on the node.
  explicit edf_srp_policy(const std::vector<const core::task_graph*>& tasks);

  [[nodiscard]] std::string name() const override { return "EDF+SRP"; }
  [[nodiscard]] bool gates_activation() const override { return true; }

  void handle(const core::notification& n,
              core::scheduler_context& ctx) override;

  /// Current system ceiling expressed as a relative deadline (a *smaller*
  /// value means a *higher* ceiling); infinity when no resource is granted.
  [[nodiscard]] duration system_ceiling() const;

 private:
  void release_eligible(core::scheduler_context& ctx);

  // Static resource ceilings: min relative deadline over claiming tasks.
  std::map<resource_id, duration> ceiling_;
  // Granted sections: thread -> ceilings it activated.
  std::map<kthread_id, std::vector<duration>> active_;
  // Multiset of active ceilings (front = current system ceiling).
  std::multiset<duration> stack_;
  // Threads gated at activation, with their preemption level (rel. deadline).
  struct gated {
    kthread_id thread;
    duration level;
    time_point deadline;  // for deterministic release order (EDF first)
  };
  std::vector<gated> held_;
};

}  // namespace hades::sched
