#include "services/replication.hpp"

#include <algorithm>

namespace hades::svc {

replicated_service::replicated_service(core::system& sys, fault_detector& fd,
                                       params p, apply_fn apply)
    : sys_(&sys), params_(std::move(p)), apply_(std::move(apply)) {
  validate(!params_.replicas.empty(), "replication: need at least 1 replica");
  if (!apply_) apply_ = [](std::int64_t acc, std::int64_t v) { return acc + v; };
  primary_ = params_.replicas.front();
  for (node_id n : params_.replicas) state_[n] = {};
  sys_->on_channel(ch_replication, [this](node_id n, const sim::message& m) {
    on_message(n, m);
  });
  // Failover on suspicion of the primary (any observer suffices: the
  // detector is perfect under the platform assumptions).
  fd.on_suspect([this](node_id, node_id suspect, time_point) {
    if (suspect == primary_) promote(suspect);
  });
}

bool replicated_service::is_replica(node_id n) const {
  return std::find(params_.replicas.begin(), params_.replicas.end(), n) !=
         params_.replicas.end();
}

void replicated_service::submit(node_id client, std::int64_t value) {
  request r{next_req_++, value};
  switch (params_.style) {
    case replication_style::active: {
      // Every replica executes and replies; the client keeps the first.
      for (node_id rep : params_.replicas) {
        wire w{wire::kind::execute, r, {}, client};
        sys_->net(client).send(rep, ch_replication, w, 64);
      }
      return;
    }
    case replication_style::passive:
    case replication_style::semi_active: {
      wire w{wire::kind::execute, r, {}, client};
      if (sys_->crashed(primary_)) {
        pending_.emplace_back(client, r);  // re-routed after promotion
        return;
      }
      sys_->net(client).send(primary_, ch_replication, w, 64);
      return;
    }
  }
}

void replicated_service::execute(node_id n, const request& r, node_id client,
                                 bool reply) {
  if (!executed_[n].insert(r.id).second) return;  // at-most-once per replica
  state_t& st = state_[n];
  st.accumulator = apply_(st.accumulator, r.value);
  st.applied_seq = std::max(st.applied_seq, r.id);
  ++executions_;
  if (reply && client != invalid_node) {
    wire w{wire::kind::reply, r, st, client};
    sys_->net(n).send(client, ch_replication, w, 48);
  }
}

void replicated_service::on_message(node_id n, const sim::message& m) {
  const auto* w = m.payload.get<wire>();
  if (w == nullptr) return;

  switch (w->k) {
    case wire::kind::execute: {
      if (!is_replica(n)) return;
      switch (params_.style) {
        case replication_style::active:
          execute(n, w->req, w->client, /*reply=*/true);
          return;
        case replication_style::passive: {
          if (n != primary_) return;  // backups only consume checkpoints
          execute(n, w->req, w->client, /*reply=*/true);
          // Checkpoint state to the backups after each request.
          for (node_id rep : params_.replicas) {
            if (rep == n) continue;
            wire cp{wire::kind::checkpoint, w->req, state_[n], w->client};
            sys_->net(n).send(rep, ch_replication, cp, 96);
            ++checkpoints_;
          }
          return;
        }
        case replication_style::semi_active: {
          if (n != primary_) return;
          // The leader decides the order (here: arrival order) and tells
          // the followers, which execute but do not reply.
          execute(n, w->req, w->client, /*reply=*/true);
          for (node_id rep : params_.replicas) {
            if (rep == n) continue;
            wire ord{wire::kind::order, w->req, {}, w->client};
            sys_->net(n).send(rep, ch_replication, ord, 64);
          }
          return;
        }
      }
      return;
    }
    case wire::kind::order:
      if (is_replica(n)) execute(n, w->req, w->client, /*reply=*/false);
      return;
    case wire::kind::checkpoint: {
      if (!is_replica(n)) return;
      state_t& st = state_[n];
      if (w->snapshot.applied_seq >= st.applied_seq) {
        st = w->snapshot;
        executed_[n].insert(w->req.id);
      }
      return;
    }
    case wire::kind::reply: {
      if (!replied_.insert(w->req.id).second) return;  // first reply wins
      ++replies_;
      if (reply_) reply_(w->req.id, w->snapshot.accumulator);
      return;
    }
  }
}

void replicated_service::promote(node_id failed) {
  if (failed != primary_) return;
  // Next live replica in ring order becomes primary.
  for (node_id rep : params_.replicas) {
    if (rep == failed || sys_->crashed(rep)) continue;
    primary_ = rep;
    sys_->mon().trace(sys_->now(), rep,
                      core::monitor_event_kind::service_event, "replication",
                      "promoted to primary");
    // Re-route requests stranded during the failover window.
    auto pending = std::move(pending_);
    pending_.clear();
    for (auto& [client, r] : pending) {
      wire w{wire::kind::execute, r, {}, client};
      sys_->net(client).send(primary_, ch_replication, w, 64);
    }
    return;
  }
}

}  // namespace hades::svc
