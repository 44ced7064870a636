// Feasibility analysis (paper section 5).
//
// Implements Spuri's processor-demand test for preemptive EDF with SRP
// blocking ([Spu96] theorem 7.1, the paper's base test): for every absolute
// deadline d in the first busy period,
//
//     sum_{i : D_i <= d} max(0, floor((d - D_i)/T_i) + 1) * C_i + B(d) <= d
//
// where B(d) is the largest critical section of any task with D_j > d that
// can block tasks with deadlines <= d under SRP; plus the *cost-integrated*
// variant of section 5.3 (the paper's own contribution):
//
//   C'_i = C_i + n_i (c_act_start + c_act_end) + (n_i - 1) c_local
//          with n_i = 3 when task i uses a shared resource (the Figure 3
//          translation produces three Code_EUs linked by two local
//          precedence constraints) and n_i = 1 otherwise;
//   B'_i = B_i + c_act_start + c_act_end;
//   sigma(t) = sum_i ceil(t / T_i) (x + c_act_start + c_act_end)
//          — the scheduler runs once per activation at a priority above all
//          application threads, costing x plus its own action wrapping;
//   kappa(t) = (floor(t/p_clk)+1) w_clk + (floor(t/p_net)+1) w_net
//          — sporadic worst-case arrivals of the kernel background
//          activities of section 4.2;
//   test: demand'(d) + B'(d) <= d - sigma(d) - kappa(d).
//
// The source text of the report is OCR-damaged around these formulas; this
// comment is the record of the interpretation above, and E4
// (bench/bench_feasibility.cpp) checks it against the simulated platform.
//
// A response-time analysis for fixed-priority scheduling with blocking
// ([BTW95], which the paper cites for the same cost-integration exercise)
// is provided for the RM/DM schedulers.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/cost_model.hpp"
#include "util/time.hpp"

namespace hades::sched {

/// Analysis-level view of one sporadic task (Spuri's model, paper 5.1).
struct analyzed_task {
  std::string name;
  duration c = duration::zero();      // worst-case computation time C_i
  duration d = duration::zero();      // relative deadline D_i
  duration t = duration::zero();      // (pseudo-)period T_i
  duration cs = duration::zero();     // longest critical section (0 = none)
  std::uint32_t resource = 0;         // resource id of the critical section
  bool uses_resource = false;

  [[nodiscard]] double utilization() const {
    return static_cast<double>(c.count()) / static_cast<double>(t.count());
  }
};

[[nodiscard]] double total_utilization(const std::vector<analyzed_task>& ts);

/// SRP blocking term per task: B_i = max cs_j over tasks j with D_j > D_i
/// sharing a resource whose ceiling is at least pi_i (i.e. also used by some
/// task with deadline <= D_i).
[[nodiscard]] std::vector<duration> srp_blocking(
    const std::vector<analyzed_task>& ts);

struct feasibility_verdict {
  bool feasible = false;
  std::string reason;                 // first violated deadline, if any
  duration busy_period = duration::zero();
  std::size_t deadlines_checked = 0;
};

/// Spuri theorem 7.1: EDF + SRP processor-demand test (no system costs).
[[nodiscard]] feasibility_verdict edf_feasible(
    const std::vector<analyzed_task>& ts);

/// Section 5.3: the same test with dispatcher, scheduler and kernel costs
/// integrated. `x` (scheduler per-activation cost) is taken from
/// costs.scheduler_per_event.
[[nodiscard]] feasibility_verdict edf_feasible_with_costs(
    const std::vector<analyzed_task>& ts, const core::cost_model& costs);

/// The section 5.3 task transformation, exposed for inspection/tests:
/// returns tasks with C'_i (and the inflated blocking terms).
[[nodiscard]] std::vector<analyzed_task> inflate_costs(
    const std::vector<analyzed_task>& ts, const core::cost_model& costs);

/// sigma(t) and kappa(t) of section 5.3.
[[nodiscard]] duration scheduler_cost(const std::vector<analyzed_task>& ts,
                                      const core::cost_model& costs,
                                      duration window);
[[nodiscard]] duration kernel_cost(const core::cost_model& costs,
                                   duration window);

/// Response-time analysis for fixed-priority scheduling with blocking
/// (tasks must be ordered highest priority first). Returns response times,
/// or nullopt when the recurrence diverges past the deadline.
[[nodiscard]] std::vector<std::optional<duration>> fixed_priority_response_times(
    const std::vector<analyzed_task>& ts_by_priority,
    const std::vector<duration>& blocking);

/// RM feasibility via response-time analysis (priority = rate order).
[[nodiscard]] feasibility_verdict rm_feasible(
    const std::vector<analyzed_task>& ts);

}  // namespace hades::sched
