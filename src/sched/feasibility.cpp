#include "sched/feasibility.hpp"

#include <algorithm>
#include <set>

#include "util/error.hpp"

namespace hades::sched {

namespace {

constexpr std::int64_t ceil_div(std::int64_t a, std::int64_t b) {
  return (a + b - 1) / b;
}

/// Demand bound h(d) = sum over D_i <= d of (floor((d - D_i)/T_i) + 1) C_i.
duration demand(const std::vector<analyzed_task>& ts, duration d) {
  std::int64_t sum = 0;
  for (const auto& task : ts) {
    if (task.d > d) continue;
    const std::int64_t jobs =
        (d.count() - task.d.count()) / task.t.count() + 1;
    sum += jobs * task.c.count();
  }
  return duration::nanoseconds(sum);
}

/// Synchronous busy period: fixed point of
///   L = sum ceil(L/T_i) C_i [+ sigma(L) + kappa(L)].
/// When costs are integrated, the scheduler and kernel background loads keep
/// the processor busy too and must extend the busy period, otherwise
/// deadlines past the task-only busy period would escape the check.
std::optional<duration> busy_period(const std::vector<analyzed_task>& ts,
                                    const core::cost_model* costs) {
  std::int64_t l = 0;
  for (const auto& t : ts) l += t.c.count();
  if (l == 0) return duration::zero();
  for (int iter = 0; iter < 10'000; ++iter) {
    std::int64_t next = 0;
    for (const auto& t : ts)
      next += ceil_div(l, t.t.count()) * t.c.count();
    if (costs != nullptr) {
      next += scheduler_cost(ts, *costs, duration::nanoseconds(l)).count();
      next += kernel_cost(*costs, duration::nanoseconds(l)).count();
    }
    if (next == l) return duration::nanoseconds(l);
    l = next;
    // Divergence guard (total load >= 1): cap at 1000x the largest period.
    std::int64_t max_t = 0;
    for (const auto& t : ts) max_t = std::max(max_t, t.t.count());
    if (l > 1000 * max_t) return std::nullopt;
  }
  return std::nullopt;
}

feasibility_verdict run_demand_test(const std::vector<analyzed_task>& ts,
                                    const core::cost_model* costs) {
  feasibility_verdict v;
  if (ts.empty()) {
    v.feasible = true;
    return v;
  }
  for (const auto& t : ts) {
    validate(t.t > duration::zero() && !t.t.is_infinite(), [&t] {
      return "feasibility: task '" + t.name + "' needs a finite period";
    });
    validate(!t.d.is_infinite(), [&t] {
      return "feasibility: task '" + t.name + "' needs a finite deadline";
    });
  }
  if (total_utilization(ts) > 1.0) {
    v.reason = "utilization > 1";
    return v;
  }
  const auto l = busy_period(ts, costs);
  if (!l.has_value()) {
    v.reason = "busy period diverged";
    return v;
  }
  v.busy_period = *l;

  // Candidate deadlines within the busy period: d = k*T_i + D_i.
  std::set<duration> deadlines;
  for (const auto& t : ts)
    for (duration d = t.d; d <= *l; d += t.t) deadlines.insert(d);

  for (duration d : deadlines) {
    ++v.deadlines_checked;
    // B(d): largest critical section of a task with later deadline that
    // shares a resource with some earlier-deadline task (SRP blocking).
    duration b = duration::zero();
    for (const auto& low : ts) {
      if (low.d <= d || !low.uses_resource) continue;
      for (const auto& high : ts) {
        if (high.d > d || !high.uses_resource) continue;
        if (high.resource == low.resource) b = std::max(b, low.cs);
      }
    }
    duration budget = d;
    if (costs != nullptr) {
      budget = budget - scheduler_cost(ts, *costs, d) - kernel_cost(*costs, d);
      if (budget.is_negative()) {
        v.reason = "system costs exceed deadline " + d.to_string();
        return v;
      }
    }
    if (demand(ts, d) + b > budget) {
      v.reason = "demand exceeds deadline " + d.to_string();
      return v;
    }
  }
  v.feasible = true;
  return v;
}

}  // namespace

double total_utilization(const std::vector<analyzed_task>& ts) {
  double u = 0.0;
  for (const auto& t : ts) u += t.utilization();
  return u;
}

std::vector<duration> srp_blocking(const std::vector<analyzed_task>& ts) {
  std::vector<duration> b(ts.size(), duration::zero());
  for (std::size_t i = 0; i < ts.size(); ++i) {
    for (std::size_t j = 0; j < ts.size(); ++j) {
      if (i == j) continue;
      // j can block i iff D_j > D_i and j's section ceiling reaches i:
      // the resource is shared with a task whose deadline <= D_i.
      if (ts[j].d <= ts[i].d || !ts[j].uses_resource) continue;
      for (const auto& k : ts) {
        if (k.d > ts[i].d || !k.uses_resource) continue;
        if (k.resource == ts[j].resource) b[i] = std::max(b[i], ts[j].cs);
      }
    }
  }
  return b;
}

feasibility_verdict edf_feasible(const std::vector<analyzed_task>& ts) {
  return run_demand_test(ts, nullptr);
}

std::vector<analyzed_task> inflate_costs(const std::vector<analyzed_task>& ts,
                                         const core::cost_model& costs) {
  std::vector<analyzed_task> out = ts;
  for (auto& t : out) {
    // Figure 3: a resource-using task translates to 3 Code_EUs joined by 2
    // local precedence constraints; a plain task is a single Code_EU.
    const std::int64_t n = t.uses_resource ? 3 : 1;
    t.c = t.c + (costs.c_act_start + costs.c_act_end) * n +
          costs.c_local * (n - 1);
    // B'_i = B_i + c_act_start + c_act_end: the blocking section carries its
    // own action wrapping. Model it by inflating the critical section.
    if (t.uses_resource)
      t.cs = t.cs + costs.c_act_start + costs.c_act_end;
  }
  return out;
}

duration scheduler_cost(const std::vector<analyzed_task>& ts,
                        const core::cost_model& costs, duration window) {
  // sigma(t) = sum_i ceil(t/T_i) (x + c_act_start + c_act_end).
  const duration per = costs.scheduler_per_event + costs.c_act_start +
                       costs.c_act_end;
  std::int64_t sum = 0;
  for (const auto& t : ts)
    sum += ceil_div(window.count(), t.t.count()) * per.count();
  return duration::nanoseconds(sum);
}

duration kernel_cost(const core::cost_model& costs, duration window) {
  duration k = duration::zero();
  if (!costs.p_clk.is_infinite() && costs.w_clk > duration::zero())
    k += costs.w_clk * (window.count() / costs.p_clk.count() + 1);
  if (!costs.p_net.is_infinite() && costs.w_net > duration::zero())
    k += costs.w_net * (window.count() / costs.p_net.count() + 1);
  return k;
}

feasibility_verdict edf_feasible_with_costs(
    const std::vector<analyzed_task>& ts, const core::cost_model& costs) {
  const auto inflated = inflate_costs(ts, costs);
  return run_demand_test(inflated, &costs);
}

std::vector<std::optional<duration>> fixed_priority_response_times(
    const std::vector<analyzed_task>& ts, const std::vector<duration>& blocking) {
  require(blocking.size() == ts.size(),
          "fixed_priority_response_times: blocking size mismatch");
  std::vector<std::optional<duration>> out(ts.size());
  for (std::size_t i = 0; i < ts.size(); ++i) {
    std::int64_t r = ts[i].c.count() + blocking[i].count();
    bool converged = false;
    for (int iter = 0; iter < 1'000; ++iter) {
      std::int64_t next = ts[i].c.count() + blocking[i].count();
      for (std::size_t j = 0; j < i; ++j)
        next += ceil_div(r, ts[j].t.count()) * ts[j].c.count();
      if (next == r) {
        converged = true;
        break;
      }
      r = next;
      if (r > ts[i].d.count() * 4 && r > ts[i].t.count() * 4) break;
    }
    if (converged) out[i] = duration::nanoseconds(r);
  }
  return out;
}

feasibility_verdict rm_feasible(const std::vector<analyzed_task>& ts) {
  feasibility_verdict v;
  std::vector<analyzed_task> sorted = ts;
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const analyzed_task& a, const analyzed_task& b) {
                     return a.t < b.t;
                   });
  // Blocking under RM: reuse the SRP bound with deadline ~ period ordering.
  const auto b = srp_blocking(sorted);
  const auto rts = fixed_priority_response_times(sorted, b);
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    ++v.deadlines_checked;
    if (!rts[i].has_value() || *rts[i] > sorted[i].d) {
      v.reason = "task '" + sorted[i].name + "' misses its deadline";
      return v;
    }
  }
  v.feasible = true;
  return v;
}

}  // namespace hades::sched
