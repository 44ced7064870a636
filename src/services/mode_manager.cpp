#include "services/mode_manager.hpp"

#include <utility>

#include "services/channels.hpp"
#include "util/fnv.hpp"

namespace hades::svc {

namespace {

// Capture protocol frames (ch_mode_capture). The request asks a task's
// home node to read the state blob on its own shard; the reply carries the
// blob back tagged with the switch epoch that asked for it.
struct capture_request {
  std::uint64_t epoch = 0;
  task_id task = invalid_task;
  node_id reply_to = 0;
};

struct capture_reply {
  std::uint64_t epoch = 0;
  task_id task = invalid_task;
  std::any state;
};

}  // namespace

mode_manager::mode_manager(core::system& sys, thresholds t, node_id home)
    : sys_(&sys), thresholds_(t), home_(home) {
  // Redelivered on the home shard one minimum network hop after the
  // recording — a backend-independent date that equals the sharded
  // backend's cross-shard lookahead (see header). Only the kinds
  // `consider` acts on are redelivered: suspicions only when they count.
  using kind = core::monitor_event_kind;
  sys_->mon().subscribe_at_node(
      home_, sys_->network().config().delta_min,
      thresholds_.suspicions_for_degraded > 0
          ? core::kind_set{kind::deadline_miss, kind::node_crash,
                           kind::node_suspected, kind::node_unsuspected}
          : core::kind_set{kind::deadline_miss, kind::node_crash},
      [this](const core::monitor_event& e) { consider(e); });
  // Capture protocol: every node answers requests for the tasks it homes;
  // replies only matter on `home`, where the capture map lives.
  sys_->on_channel(ch_mode_capture, [this](node_id n, const sim::message& m) {
    if (const auto* rq = m.payload.get<capture_request>()) {
      capture_reply rep;
      rep.epoch = rq->epoch;
      rep.task = rq->task;
      rep.state = sys_->task_state(rq->task);  // read on the owning shard
      sys_->net(n).send(rq->reply_to, ch_mode_capture, std::move(rep), 64);
      return;
    }
    const auto* rp = m.payload.get<capture_reply>();
    if (rp == nullptr) return;
    if (rp->epoch != switches_) return;  // superseded switch: drop
    captured_[rp->task] = sim::wire_payload(std::any(rp->state));
  });
}

void mode_manager::consider(const core::monitor_event& e) {
  switch (e.kind) {
    case core::monitor_event_kind::deadline_miss:
      ++misses_;
      break;
    case core::monitor_event_kind::node_crash:
      ++crashes_;
      break;
    case core::monitor_event_kind::node_suspected:
      ++suspected_subjects_[e.subject_node];
      break;
    case core::monitor_event_kind::node_unsuspected: {
      auto it = suspected_subjects_.find(e.subject_node);
      if (it != suspected_subjects_.end() && --it->second == 0)
        suspected_subjects_.erase(it);
      return;  // retractions never trigger a switch
    }
    default:
      return;
  }
  if (mode_ != op_mode::safe &&
      (misses_ >= thresholds_.misses_for_safe ||
       crashes_ >= thresholds_.crashes_for_safe)) {
    switch_to(op_mode::safe);
    return;
  }
  if (mode_ == op_mode::normal &&
      (misses_ >= thresholds_.misses_for_degraded ||
       (thresholds_.crashes_for_degraded > 0 &&
        crashes_ >= thresholds_.crashes_for_degraded) ||
       (thresholds_.suspicions_for_degraded > 0 &&
        suspected_subjects_.size() >= thresholds_.suspicions_for_degraded)))
    switch_to(op_mode::degraded);
}

void mode_manager::switch_to(op_mode m) {
  if (m == mode_) return;
  const op_mode from = mode_;
  mode_ = m;
  ++switches_;
  last_switch_ = sys_->now();
  // State capture at the switch point (paper 3.2.1): home-shard tasks are
  // snapshotted synchronously, remote tasks through the epoch-tagged
  // request/reply — no cross-shard read of another shard's blob.
  captured_.clear();
  for (task_id t : sys_->tasks()) {
    const node_id h = sys_->graph(t).home_node();
    if (h == home_) {
      captured_[t] = sim::wire_payload(std::any(sys_->task_state(t)));
    } else {
      capture_request rq;
      rq.epoch = switches_;
      rq.task = t;
      rq.reply_to = home_;
      sys_->net(home_).send(h, ch_mode_capture, std::move(rq), 48);
    }
  }
  core::monitor& mon = sys_->mon();
  if (mon.tracing())
    mon.trace(sys_->now(), home_, core::monitor_event_kind::service_event,
              "mode_manager",
              std::string(to_string(from)) + " -> " + to_string(m));
  for (const auto& h : hooks_) h(from, m, sys_->now());
}

std::uint64_t mode_manager::capture_digest() const {
  // FNV-1a over the switch count and captured task ids; map order makes
  // the fold deterministic.
  fnv1a h;
  h.mix(switches_).mix(captured_.size());
  for (const auto& [t, blob] : captured_) h.mix(t);
  return h.value();
}

void mode_manager::force_mode(op_mode m) {
  misses_ = 0;
  crashes_ = 0;
  suspected_subjects_.clear();
  switch_to(m);
}

}  // namespace hades::svc
