// The HADES cost model (paper section 4).
//
// Dispatcher activities recur with the frequency of the application tasks
// they serve, so their costs are folded into the tasks' execution costs
// (section 4.1): c_act_start / c_act_end around every action, c_local per
// local precedence constraint, c_rel per remote precedence handed to the
// communication-protocol task, c_inv_start / c_inv_end around every task
// invocation. Kernel background activities are independent of any task and
// are modelled as sporadic top-priority activities (section 4.2): the clock
// interrupt (w_clk every p_clk) and the network-card interrupt (w_net per
// message receipt, pseudo-period p_net).
//
// The same constants parameterize (a) the simulated dispatcher, which
// *charges* them during execution, and (b) the cost-integrated feasibility
// test of section 5.3, which *accounts* for them — making the
// test-versus-simulation experiments meaningful (E4,
// bench/bench_feasibility.cpp; E5, bench/bench_sched_compare.cpp).
#pragma once

#include "util/time.hpp"

namespace hades::core {

struct cost_model {
  // -- dispatcher activities (section 4.1) --------------------------------
  duration c_local = duration::zero();      // local precedence: copy + switch
  duration c_rel = duration::zero();        // hand a remote precedence to net task
  duration c_act_start = duration::zero();  // begin an action
  duration c_act_end = duration::zero();    // end an action
  duration c_inv_start = duration::zero();  // begin a task invocation
  duration c_inv_end = duration::zero();    // end a task invocation

  // -- kernel background activities (section 4.2) -------------------------
  duration w_clk = duration::zero();        // clock-interrupt handler WCET
  duration p_clk = duration::infinity();    // clock-interrupt period
  duration w_net = duration::zero();        // network-card handler WCET
  duration p_net = duration::infinity();    // minimum inter-arrival of receipts

  // -- kernel mechanisms ----------------------------------------------------
  duration context_switch = duration::zero();

  // -- scheduler (section 5.3: x, the per-activation scheduling cost) ------
  duration scheduler_per_event = duration::zero();

  // -- network-management task (models the communication protocol) ---------
  duration net_task_per_msg = duration::zero();

  /// Zero-cost model: pure algorithmic behaviour (useful in unit tests).
  static cost_model zero() { return {}; }

  /// Constants in the order of magnitude the paper's platform exhibits
  /// (ChorusOS r3 on Pentium; microsecond-scale kernel activities).
  static cost_model chorus_like() {
    cost_model m;
    m.c_local = duration::microseconds(18);
    m.c_rel = duration::microseconds(25);
    m.c_act_start = duration::microseconds(12);
    m.c_act_end = duration::microseconds(10);
    m.c_inv_start = duration::microseconds(20);
    m.c_inv_end = duration::microseconds(15);
    m.w_clk = duration::microseconds(8);
    m.p_clk = duration::milliseconds(1);
    m.w_net = duration::microseconds(30);
    m.p_net = duration::microseconds(200);
    m.context_switch = duration::microseconds(6);
    m.scheduler_per_event = duration::microseconds(15);
    m.net_task_per_msg = duration::microseconds(40);
    return m;
  }
};

}  // namespace hades::core
