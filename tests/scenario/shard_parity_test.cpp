// Shard-parity gate for the shard-confined core (DESIGN.md, "Shard
// confinement" and "Cross-shard control tokens"): the full core::system
// campaign workload — fault detector, Delta-ordered reliable broadcast,
// suspicion-driven mode manager, clock sync, fault injection — must produce
// bit-identical observable checksums on the single engine and on serial
// sharded rounds. The second half of the file sweeps the control-token
// machinery itself (shard-spanning task graphs, cross-shard condition
// wakeups, the distributed deadlock scan, mode-switch state capture) over
// shards {1, 2, 4} plus the single pooled engine as the reference.
#include "scenario/campaign.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "core/system.hpp"
#include "core/task_model.hpp"
#include "services/mode_manager.hpp"
#include "util/fnv.hpp"

namespace hades::scenario {
namespace {

using namespace hades::literals;

void expect_shard_parity(const std::string& scenario, std::uint64_t seed,
                         std::size_t shards) {
  const scenario_spec spec = find_scenario(scenario);
  const cell_result single = run_cell(spec, seed, 1);
  EXPECT_TRUE(single.passed);
  const cell_result sharded = run_cell(spec, seed, shards);
  EXPECT_EQ(sharded.checksum, single.checksum)
      << scenario << " seed " << seed << ": " << shards
      << " shards diverged from the single engine";
  EXPECT_TRUE(sharded.passed);
}

// A crash mid-run exercises monitor routing, suspicion callbacks and the
// global node-down timeline across shards.
TEST(ShardParityTest, SingleCrashChecksumMatchesAcrossShardCounts) {
  expect_shard_parity("single_crash", 1, 2);
  expect_shard_parity("single_crash", 2, 4);
}

// A partition plus the suspicion-driven mode policy: every shard records
// suspicions into the monitor and the mode manager consumes them on its
// home shard.
TEST(ShardParityTest, SuspicionDrivenModePolicyIsShardIndependent) {
  expect_shard_parity("partition_degrades_mode", 1, 4);
}

// Byzantine clocks drive clock_sync rounds (per-node chains, per-node
// correction stats) on every shard.
TEST(ShardParityTest, ByzantineClockSyncIsShardIndependent) {
  expect_shard_parity("byzantine_clocks", 1, 4);
}

// Performance faults make relay traffic consult the global perf-fault
// timeline at dates uncorrelated with the plan's action dates — the
// pre-registered-timeline regression: a shard whose window runs before the
// toggle's own shard must still read the toggle at its date.
TEST(ShardParityTest, PerfFaultBurstIsShardIndependent) {
  expect_shard_parity("perf_fault_burst", 1, 4);
}

// --------------------------------------------------------------------------
// Control-token parity matrix. Each test below builds the same workload on
// every backend configuration, runs to a fixed horizon, and folds the
// observable state — per-task stats, the canonically sorted monitor stream,
// wire counters, condition flags, capture digests — into one FNV-1a value
// that must be identical everywhere.

class fold : public fnv1a {
 public:
  using fnv1a::mix;
  void mix(time_point t) { mix(static_cast<std::uint64_t>(t.nanoseconds())); }
  void mix(const std::string& s) {
    mix(s.size());
    for (const char c : s) mix(static_cast<std::uint64_t>(c));
  }
};

// Shard counts {1, 2, 4}, anchored by the single pooled engine (0).
constexpr std::size_t kMatrix[] = {0, 1, 2, 4};

core::system::config parity_config(std::size_t shards) {
  core::system::config cfg;
  cfg.costs = core::cost_model::zero();
  cfg.kernel_background = false;
  cfg.net.delta_min = 20_us;
  cfg.net.delta_max = 60_us;
  cfg.seed = 7;
  if (shards > 0) {
    cfg.runtime.backend = "sharded";
    cfg.runtime.shards = shards;
  }
  return cfg;
}

// Fold everything a user of the system can observe. Monitored events are
// sorted by content, not stream position: the stream's {time, shard, seq}
// order is already deterministic per backend, but the *shard* component
// differs across shard counts for same-instant events, so cross-backend
// comparison needs the canonical content order. Trace records are left
// out: tracing is on here, and this fold checks the monitored kinds.
void fold_observables(core::system& sys, fold& f) {
  for (const task_id t : sys.tasks()) {
    const auto& st = sys.stats_for(t);
    f.mix(t);
    f.mix(st.activations);
    f.mix(st.completions);
    f.mix(st.rejections);
    f.mix(st.response_times.count());
  }
  // Names are folded as text: ids follow intern order, which follows record
  // order, which differs across shard layouts.
  struct event_text {
    core::monitor_event e;
    std::string subject;
    std::string detail;
  };
  const core::monitor& mon = sys.mon();
  std::vector<event_text> evs;
  for (const auto& e : mon.events())
    if (core::monitored_kinds.contains(e.kind))
      evs.push_back({e, mon.subject_text(e), mon.detail_text(e)});
  std::sort(evs.begin(), evs.end(), [](const event_text& a, const event_text& b) {
    return std::tie(a.e.at, a.e.kind, a.e.node, a.e.task, a.e.instance,
                    a.subject, a.detail) <
           std::tie(b.e.at, b.e.kind, b.e.node, b.e.task, b.e.instance,
                    b.subject, b.detail);
  });
  f.mix(evs.size());
  for (const auto& [e, subject, detail] : evs) {
    f.mix(static_cast<std::uint64_t>(e.kind));
    f.mix(e.at);
    f.mix(e.node);
    f.mix(e.task);
    f.mix(e.instance);
    f.mix(subject);
    f.mix(detail);
  }
  const auto net = sys.network().stats();
  f.mix(net.sent);
  f.mix(net.delivered);
  f.mix(net.dropped);
  f.mix(net.late);
}

// Runs `setup` (which builds the workload and may return a finisher for
// extra, test-specific folding and assertions) on every matrix point and
// requires all digests to match the single-engine reference.
using finisher = std::function<void(core::system&, fold&)>;

template <typename Setup>
void expect_matrix_parity(std::size_t nodes, duration horizon, Setup&& setup) {
  std::optional<std::uint64_t> reference;
  for (const std::size_t shards : kMatrix) {
    if (shards > nodes) continue;
    core::system sys(nodes, parity_config(shards));
    finisher finish = setup(sys);
    sys.run_until(time_point::at(horizon));
    fold f;
    fold_observables(sys, f);
    if (finish) finish(sys, f);
    if (!reference) {
      reference = f.value();
    } else {
      EXPECT_EQ(f.value(), *reference)
          << "shards=" << shards
          << " diverged from the single-engine reference";
    }
  }
}

// Shard-spanning graphs register on every backend through the
// creation/activation tokens, and the whole pipeline — shard
// creation on remote homes, remote precedence tokens both directions, a
// cross-node synchronous invocation — must reproduce the single-engine
// checksum bit for bit.
TEST(ShardParityTest, ShardSpanningGraphsMatchTheSingleEngine) {
  expect_matrix_parity(6, 40_ms, [](core::system& sys) -> finisher {
    core::task_builder svc("svc");
    svc.deadline(8_ms);
    svc.add_code_eu("serve", 5, 300_us);
    const task_id svc_id = sys.register_task(svc.build());

    core::task_builder spanning("spanning");
    spanning.deadline(10_ms);
    spanning.law(core::arrival_law::periodic(5_ms));
    const auto a = spanning.add_code_eu("a", 0, 200_us);
    const auto b = spanning.add_code_eu("b", 5, 200_us);  // other shard
    const auto c = spanning.add_code_eu("c", 0, 200_us);
    spanning.precede(a, b, 64);
    spanning.precede(b, c, 64);
    const task_id span_id = sys.register_task(spanning.build());

    core::task_builder caller("caller");
    caller.deadline(9_ms);
    caller.law(core::arrival_law::periodic(7_ms, 500_us));
    const auto prep = caller.add_code_eu("prep", 0, 100_us);
    const auto inv = caller.add_inv_eu("call-svc", svc_id,
                                       core::invocation_kind::synchronous);
    const auto post = caller.add_code_eu("post", 0, 100_us);
    caller.precede(prep, inv);
    caller.precede(inv, post);
    const task_id caller_id = sys.register_task(caller.build());

    sys.activate(span_id);
    sys.activate(caller_id);
    return [span_id, caller_id](core::system& s, fold&) {
      EXPECT_GT(s.stats_for(span_id).completions, 0u);
      EXPECT_GT(s.stats_for(caller_id).completions, 0u);
    };
  });
}

// A condition set on one shard must wake a waiting EU homed on another:
// cond_set routes to the condition home (node 0), the cond_update broadcast
// fans the view out, and the waiter's dispatcher re-evaluates. The
// set/wake/clear rhythm repeats every period, so one divergent wakeup shifts
// every later completion date.
TEST(ShardParityTest, CrossShardConditionWakeupsAreShardIndependent) {
  expect_matrix_parity(4, 40_ms, [](core::system& sys) -> finisher {
    core::task_builder setter("setter");
    setter.deadline(4_ms);
    setter.law(core::arrival_law::periodic(5_ms, 500_us));
    core::code_eu s_eu;
    s_eu.name = "set7";
    s_eu.processor = 3;
    s_eu.wcet = 100_us;
    s_eu.sets = {7};
    setter.add_code_eu(std::move(s_eu));
    const task_id setter_id = sys.register_task(setter.build());

    core::task_builder waiter("waiter");
    waiter.deadline(20_ms);
    waiter.law(core::arrival_law::periodic(5_ms));
    core::code_eu w_eu;
    w_eu.name = "wait7";
    w_eu.processor = 1;
    w_eu.wcet = 100_us;
    w_eu.waits_all = {7};
    w_eu.clears = {7};
    waiter.add_code_eu(std::move(w_eu));
    const task_id waiter_id = sys.register_task(waiter.build());

    sys.activate(setter_id);
    sys.activate(waiter_id);
    return [waiter_id](core::system& s, fold& f) {
      EXPECT_GT(s.stats_for(waiter_id).completions, 0u);
      for (condition_id c = 0; c < 16; ++c) f.mix(s.condition(c) ? 1u : 0u);
    };
  });
}

// A wait-for cycle spanning shards: task A (node 0) waits on a condition
// only task B (node 3) sets, and vice versa. Only the distributed probe /
// reply scan can see the whole cycle; its canonical merge must record the
// same deadlock_suspected events on every backend.
TEST(ShardParityTest, CrossShardDeadlockCycleIsDetected) {
  expect_matrix_parity(4, 22_ms, [](core::system& sys) -> finisher {
    core::task_builder ta("cycle-a");
    core::code_eu a_eu;
    a_eu.name = "a";
    a_eu.processor = 0;
    a_eu.wcet = 100_us;
    a_eu.waits_all = {10};
    a_eu.sets = {11};
    ta.add_code_eu(std::move(a_eu));
    const task_id a_id = sys.register_task(ta.build());

    core::task_builder tb("cycle-b");
    core::code_eu b_eu;
    b_eu.name = "b";
    b_eu.processor = 3;
    b_eu.wcet = 100_us;
    b_eu.waits_all = {11};
    b_eu.sets = {10};
    tb.add_code_eu(std::move(b_eu));
    const task_id b_id = sys.register_task(tb.build());

    sys.arm_deadlock_scan(5_ms);
    sys.activate(a_id);
    sys.activate(b_id);
    return [](core::system& s, fold&) {
      EXPECT_GT(s.mon().count(core::monitor_event_kind::deadlock_suspected),
                0u);
    };
  });
}

// A mode switch captures every task's state blob — local homes
// synchronously, remote homes through the epoch-tagged request/reply on
// ch_mode_capture. The capture digest and the typed snapshots must agree
// with the single-engine run.
TEST(ShardParityTest, ModeSwitchCaptureIsShardIndependent) {
  expect_matrix_parity(4, 30_ms, [](core::system& sys) -> finisher {
    auto mm = std::make_shared<svc::mode_manager>(
        sys, svc::mode_manager::thresholds{1, 3, 1});

    core::task_builder local("local");
    local.deadline(5_ms);
    local.add_code_eu("l", 0, 100_us);
    const task_id local_id = sys.register_task(local.build());
    sys.task_state(local_id) = std::string("local-blob");

    core::task_builder remote("remote");
    remote.deadline(5_ms);
    remote.add_code_eu("r", 3, 100_us);
    const task_id remote_id = sys.register_task(remote.build());
    sys.task_state(remote_id) = std::string("remote-blob");

    sys.run_until(time_point::at(10_ms));
    sys.crash_node(2);  // straight to safe mode; triggers the capture
    return [mm, local_id, remote_id](core::system&, fold& f) {
      EXPECT_EQ(mm->mode(), svc::op_mode::safe);
      const std::string* lb = mm->captured<std::string>(local_id);
      const std::string* rb = mm->captured<std::string>(remote_id);
      ASSERT_NE(lb, nullptr);
      ASSERT_NE(rb, nullptr);
      EXPECT_EQ(*lb, "local-blob");
      EXPECT_EQ(*rb, "remote-blob");
      f.mix(mm->capture_digest());
      f.mix(static_cast<std::uint64_t>(mm->mode()));
      f.mix(mm->switches());
      f.mix(mm->last_switch());
    };
  });
}

}  // namespace
}  // namespace hades::scenario
