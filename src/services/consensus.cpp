#include "services/consensus.hpp"

#include <algorithm>

namespace hades::svc {

namespace {
struct round_msg {
  std::vector<std::int64_t> values;
};
}  // namespace

consensus_service::consensus_service(core::system& sys, params p)
    : sys_(&sys), params_(p) {
  for (node_id n = 0; n < sys_->node_count(); ++n) {
    decided_[n] = false;
    decision_[n] = 0;
  }
  sys_->on_channel(ch_consensus, [this](node_id n, const sim::message& m) {
    on_message(n, m);
  });
}

void consensus_service::run(const std::map<node_id, std::int64_t>& proposals) {
  require(!running_, "consensus: instance already running");
  running_ = true;
  learned_.clear();
  for (const auto& [n, v] : proposals)
    if (!sys_->crashed(n)) learned_[n].insert(v);
  round(1);
}

void consensus_service::round(int k) {
  // Broadcast everything learned so far; omissions/crashes only remove
  // information, and f+1 rounds guarantee one round is failure-free enough
  // to equalize the learned sets of all correct nodes.
  for (auto& [n, values] : learned_) {
    if (sys_->crashed(n)) continue;
    round_msg m{{values.begin(), values.end()}};
    sys_->net(n).send_all(ch_consensus, m, 32 + 8 * m.values.size());
  }
  sys_->engine().after(params_.round_length, [this, k] {
    if (k <= params_.max_faulty)
      round(k + 1);
    else
      finish();
  });
}

void consensus_service::on_message(node_id n, const sim::message& m) {
  if (!running_) return;
  const auto* rm = m.payload.get<round_msg>();
  if (rm == nullptr) return;
  learned_[n].insert(rm->values.begin(), rm->values.end());
}

void consensus_service::finish() {
  running_ = false;
  for (auto& [n, values] : learned_) {
    if (sys_->crashed(n) || values.empty()) continue;
    decided_[n] = true;
    decision_[n] = *std::min_element(values.begin(), values.end());
    core::monitor& mon = sys_->mon();
    if (mon.tracing())
      mon.trace(sys_->now(), n, core::monitor_event_kind::service_event,
                "consensus", "decide " + std::to_string(decision_[n]));
    for (const auto& cb : callbacks_) cb(n, decision_[n]);
  }
}

}  // namespace hades::svc
