// Priority Ceiling Protocol [CL90] for fixed-priority scheduling — the
// other anti-priority-inversion mechanism the paper designed on top of the
// dispatcher (section 3.3, footnote 2: the Rac notification exists exactly
// so that protocols like PCP can be built).
//
// The policy *gates* resource access (gates_resources() == true): when an
// EU requests its resources the dispatcher defers the grant until this
// policy has processed the Rac notification. The classic PCP rule applies:
// the request is granted only if the requester's priority is strictly
// higher than the ceiling of every resource currently held by other
// threads; otherwise the requester is held (earliest = infinity) and the
// blocking holder inherits the requester's priority. On release (Rre),
// inherited priorities are restored and blocked requests re-examined.
#pragma once

#include <map>
#include <span>
#include <string>
#include <vector>

#include "core/scheduling.hpp"
#include "core/task_model.hpp"
#include "sched/fixed_priority.hpp"

namespace hades::sched {

class pcp_policy final : public core::policy {
 public:
  /// `priorities` is the static task-priority map (e.g. rate-monotonic);
  /// ceilings are computed from every registered task that claims resources.
  pcp_policy(std::map<task_id, priority> priorities,
             const std::vector<const core::task_graph*>& tasks);

  [[nodiscard]] std::string name() const override { return "PCP"; }
  [[nodiscard]] bool gates_resources() const override { return true; }

  void handle(const core::notification& n,
              core::scheduler_context& ctx) override;

  [[nodiscard]] std::size_t blocked_count() const { return blocked_.size(); }
  [[nodiscard]] std::uint64_t inheritance_events() const {
    return inheritance_events_;
  }

 private:
  struct holder {
    kthread_id thread;
    priority base;            // priority before any inheritance
    priority ceiling;         // max ceiling among resources it holds
    std::vector<resource_id> resources;
  };
  struct blocked_req {
    kthread_id thread;
    priority prio;
    std::span<const core::resource_claim> resources;  // into the task graph
  };

  [[nodiscard]] priority task_priority(task_id t) const;
  [[nodiscard]] priority ceiling_of(
      std::span<const core::resource_claim> claims) const;
  /// Highest ceiling among resources held by threads other than `self`.
  [[nodiscard]] priority blocking_ceiling(kthread_id self) const;
  void try_grant(const blocked_req& req, core::scheduler_context& ctx,
                 bool& granted);
  void reexamine(core::scheduler_context& ctx);

  std::map<task_id, priority> priorities_;
  std::map<resource_id, priority> ceiling_;
  std::map<kthread_id, holder> holders_;
  std::vector<blocked_req> blocked_;
  std::uint64_t inheritance_events_ = 0;
};

/// Convenience: PCP with rate-monotonic base priorities.
[[nodiscard]] std::shared_ptr<pcp_policy> make_rm_pcp(
    const std::vector<const core::task_graph*>& tasks);

}  // namespace hades::sched
