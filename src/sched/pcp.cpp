#include "sched/pcp.hpp"

#include <algorithm>

namespace hades::sched {

pcp_policy::pcp_policy(std::map<task_id, priority> priorities,
                       const std::vector<const core::task_graph*>& tasks)
    : priorities_(std::move(priorities)) {
  for (const auto* g : tasks) {
    const auto pit = priorities_.find(g->id());
    const priority p =
        pit != priorities_.end() ? pit->second : prio::min_app;
    for (eu_index i = 0; i < g->eu_count(); ++i) {
      const auto* c = g->as_code(i);
      if (c == nullptr) continue;
      for (const auto& claim : c->resources) {
        auto [it, inserted] = ceiling_.emplace(claim.res, p);
        if (!inserted) it->second = std::max(it->second, p);
      }
    }
  }
}

priority pcp_policy::task_priority(task_id t) const {
  auto it = priorities_.find(t);
  return it != priorities_.end() ? it->second : prio::min_app;
}

priority pcp_policy::ceiling_of(
    std::span<const core::resource_claim> claims) const {
  priority c = prio::idle;
  for (const auto& claim : claims) {
    auto it = ceiling_.find(claim.res);
    if (it != ceiling_.end()) c = std::max(c, it->second);
  }
  return c;
}

priority pcp_policy::blocking_ceiling(kthread_id self) const {
  priority c = prio::idle;
  for (const auto& [t, h] : holders_)
    if (t != self) c = std::max(c, h.ceiling);
  return c;
}

void pcp_policy::handle(const core::notification& n,
                        core::scheduler_context& ctx) {
  using core::notification_kind;
  switch (n.kind) {
    case notification_kind::atv:
      ctx.set_priority(n.thread, task_priority(n.info.task));
      return;

    case notification_kind::rac: {
      const priority p = task_priority(n.info.task);
      const priority c = blocking_ceiling(n.thread);
      if (p > c) {
        holders_[n.thread] = holder{n.thread, p, ceiling_of(n.info.resources),
                                    {}};
        ctx.release(n.thread);  // dispatcher grants and queues the thread
        return;
      }
      // Blocked on the ceiling: hold the requester; the highest-ceiling
      // holder inherits its priority (priority-inheritance rule of PCP).
      blocked_.push_back({n.thread, p, n.info.resources});
      for (auto& [t, h] : holders_) {
        if (h.ceiling == c && p > h.base) {
          ctx.set_priority(t, p);
          ++inheritance_events_;
        }
      }
      return;
    }

    case notification_kind::rre: {
      auto it = holders_.find(n.thread);
      if (it != holders_.end()) {
        // Restore the pre-inheritance priority for the remainder of the EU
        // (the thread is about to terminate; harmless but correct).
        if (ctx.alive(n.thread)) ctx.set_priority(n.thread, it->second.base);
        holders_.erase(it);
      }
      reexamine(ctx);
      return;
    }

    case notification_kind::trm:
      holders_.erase(n.thread);
      std::erase_if(blocked_,
                    [&](const blocked_req& b) { return b.thread == n.thread; });
      return;
  }
}

void pcp_policy::reexamine(core::scheduler_context& ctx) {
  // Highest-priority blocked request first.
  std::stable_sort(blocked_.begin(), blocked_.end(),
                   [](const blocked_req& a, const blocked_req& b) {
                     return a.prio > b.prio;
                   });
  std::vector<blocked_req> still;
  for (const blocked_req& req : blocked_) {
    if (!ctx.alive(req.thread)) continue;
    bool granted = false;
    try_grant(req, ctx, granted);
    if (!granted) still.push_back(req);
  }
  blocked_ = std::move(still);
}

void pcp_policy::try_grant(const blocked_req& req,
                           core::scheduler_context& ctx, bool& granted) {
  if (req.prio > blocking_ceiling(req.thread)) {
    holders_[req.thread] =
        holder{req.thread, req.prio, ceiling_of(req.resources), {}};
    ctx.release(req.thread);
    granted = true;
  }
}

std::shared_ptr<pcp_policy> make_rm_pcp(
    const std::vector<const core::task_graph*>& tasks) {
  return std::make_shared<pcp_policy>(rate_monotonic_priorities(tasks), tasks);
}

}  // namespace hades::sched
