#include "core/dispatcher.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "core/system.hpp"

namespace hades::core {

// ---------------------------------------------------------------- context --

time_point execution_context::now() const { return sys_->now(); }

duration execution_context::local_clock() const {
  return sys_->clock(node_).read();
}

void execution_context::set_condition(condition_id c) {
  sys_->set_condition_from(node_, c);
}

void execution_context::clear_condition(condition_id c) {
  sys_->clear_condition_from(node_, c);
}

void execution_context::send(node_id dst, int channel,
                             sim::wire_payload payload,
                             std::size_t size_bytes) {
  sys_->net(node_).send(dst, channel, std::move(payload), size_bytes);
}

std::any& execution_context::task_state() { return sys_->task_state(task_); }

// -------------------------------------------------------------- dispatcher --

dispatcher::dispatcher(system& sys, runtime& rt, node_id node,
                       processor& cpu, net_task& net, monitor& mon)
    : sys_(&sys), rt_(&rt), node_(node), cpu_(&cpu), net_(&net), mon_(&mon) {}

dispatcher::~dispatcher() {
  if (sched_thread_ != invalid_kthread && cpu_->exists(sched_thread_))
    cpu_->destroy(sched_thread_);
}

void dispatcher::on_control_frame(const sim::message& m) {
  const auto* tok = m.payload.get<control_token>();
  require(tok != nullptr, "dispatcher: malformed control token");
  // Kinds needing the frame's source node are demuxed here; everything
  // else goes through on_token (shared with early-token replay).
  if (tok->k == control_token::kind::shard_complete) {
    sys_->on_shard_complete(tok->task, tok->instance, m.src);
  } else if (tok->k == control_token::kind::dl_probe) {
    if (!halted_) sys_->on_deadlock_probe(node_, tok->aux, m.src);
  } else {
    on_token(*tok);
  }
}

void dispatcher::record_trace(monitor_event_kind k, std::string_view subject,
                              std::string_view detail) {
  mon_->trace(rt_->now(), node_, k, subject, detail);
}

node_id dispatcher::eu_node(const task_graph& g, eu_index i) const {
  if (const auto* c = g.as_code(i)) return c->processor;
  return g.home_node();  // Inv_EUs are anchored at the home node
}

void dispatcher::attach_policy(std::shared_ptr<policy> p) {
  require(policy_ == nullptr, "dispatcher: a policy is already attached");
  policy_ = std::move(p);
  sched_thread_ =
      cpu_->create("sched:" + policy_->name() + "@" + std::to_string(node_),
                   prio::scheduler, prio::scheduler, duration::zero(),
                   [this] { scheduler_step(); });
  policy_->attach(*this);
}

// ----------------------------------------------------------- shard lifecycle

void dispatcher::create_shard(const task_graph& g, instance_number k,
                              time_point at) {
  if (halted_) return;
  const shard_key key{g.id(), k};
  require(find_shard(key) == nullptr, "dispatcher: duplicate shard");

  // Advance the creation watermark first (see stash_if_early) and drop
  // stashes for older instances of this task — their creates were skipped
  // (abort before start, crash), so their tokens can never be consumed.
  if (created_next_.size() <= g.id()) created_next_.resize(g.id() + 1, 0);
  instance_number& next = created_next_[g.id()];
  next = std::max(next, k + 1);
  for (auto it = early_tokens_.begin(); it != early_tokens_.end();) {
    if (it->first.first == g.id() && it->first.second < k)
      it = early_tokens_.erase(it);
    else
      ++it;
  }

  bool any_local = false;
  for (eu_index i = 0; i < g.eu_count() && !any_local; ++i)
    any_local = eu_node(g, i) == node_;
  if (!any_local) {
    // Involved with no local EU should not happen (system computes the
    // involved set from the graph), but a complete-on-creation shard must
    // still report completion.
    sys_->on_shard_complete(g.id(), k, node_);
    return;
  }

  std::uint32_t slot = 0;
  if (free_shards_.empty()) {
    slot = static_cast<std::uint32_t>(pool_.size());
    pool_.emplace_back();
  } else {
    slot = free_shards_.back();
    free_shards_.pop_back();
  }
  shard_index_[key] = slot;
  shard& sh = pool_[slot];
  sh.graph = &g;
  sh.instance = k;
  sh.activation = at;
  sh.eus.clear();
  sh.preds_done.clear();
  sh.pending = 0;
  sh.aborted = false;
  for (eu_index i = 0; i < g.eu_count(); ++i) {
    if (eu_node(g, i) != node_) continue;
    eu_rt eu;
    eu.idx = i;
    eu.code = g.as_code(i);
    eu.inv = g.as_inv(i);
    eu.preds_base = static_cast<std::uint32_t>(sh.preds_done.size());
    eu.preds_total = static_cast<std::uint32_t>(g.preds(i).size());
    sh.preds_done.resize(sh.preds_done.size() + eu.preds_total, 0);
    eu.earliest_abs =
        eu.code ? at + eu.code->attrs.earliest_offset : at;
    sh.eus.push_back(eu);
    ++sh.pending;
  }
  ++stats_.shards_created;

  // Create one kernel thread per local Code_EU (paper 3.2.1) and notify the
  // scheduler of every activation. Nothing below creates a shard, so `sh`
  // stays put.
  for (std::uint32_t pos = 0; pos < sh.eus.size(); ++pos) {
    eu_rt& eu = sh.eus[pos];
    if (eu.code == nullptr) continue;
    const code_eu& c = *eu.code;
    const eu_index idx = eu.idx;

    eu.actual = c.actual
                    ? std::clamp(c.actual(k), duration::zero(), c.wcet)
                    : c.wcet;
    eu.pt_boost = c.attrs.preemption_threshold - c.attrs.prio;

    // Fold the dispatcher activities this unit will cause into its demand
    // (section 4.1): action start/end plus one c_local / c_rel per outgoing
    // precedence constraint.
    const cost_model& costs = sys_->costs();
    duration work = costs.c_act_start + eu.actual + costs.c_act_end;
    for (eu_index succ : g.succs(idx))
      work += (eu_node(g, succ) == node_) ? costs.c_local : costs.c_rel;

    eu.thread = cpu_->create(
        tracing() ? c.name + "#" + std::to_string(k) : std::string(),
        c.attrs.prio, c.attrs.preemption_threshold, work,
        [this, key, idx] { eu_complete(key, idx); });
    const std::size_t tslot = processor::slot_of(eu.thread);
    if (thread_eus_.size() <= tslot) thread_eus_.resize(tslot + 1);
    thread_eus_[tslot] = thread_eu{eu.thread, slot, pos};

    eu.info.task = g.id();
    eu.info.task_name = g.name();
    eu.info.instance = k;
    eu.info.eu = idx;
    eu.info.eu_name = c.name;
    eu.info.node = node_;
    eu.info.activation = at;
    eu.info.absolute_deadline = at + g.deadline();
    eu.info.relative_deadline = g.deadline();
    eu.info.period = g.law().period;
    eu.info.wcet = c.wcet;
    eu.info.resources = c.resources;
    eu.info.static_priority = c.attrs.prio;

    // Start-gating policies decide on every activation (the scheduler will
    // release or hold the unit through the primitive while handling Atv).
    if (policy_ != nullptr && policy_->gates_activation())
      eu.protocol_held = true;

    emit(notification_kind::atv, eu);

    // Latest-start monitoring (and, through it, suspected network
    // omissions: a remote precedence that still has not arrived when the
    // consumer must start).
    if (!c.attrs.latest_offset.is_infinite()) {
      // A remote create token may arrive after at + latest_offset (the
      // activation date travels with the token); clamp so the violation
      // check still fires — immediately — instead of scheduling in the past.
      const time_point latest =
          std::max(at + c.attrs.latest_offset, rt_->now());
      eu.latest_timer = rt_->at(latest, [this, key, idx] {
        shard* sp = find_shard(key);
        if (sp == nullptr) return;
        eu_rt& e = *find_eu(*sp, idx);
        e.latest_timer = sim::invalid_event;
        if (e.st == eu_state::done) return;
        if (cpu_->exists(e.thread) && cpu_->has_started(e.thread)) return;
        monitor_event ev;
        ev.kind = monitor_event_kind::latest_start_violation;
        ev.at = rt_->now();
        ev.node = node_;
        ev.task = key.first;
        ev.instance = key.second;
        ev.subject = mon_->intern(e.info.eu_name);
        mon_->record(ev);
        // Missing *remote* predecessors at this point are the signature of
        // a network omission (paper 3.2.1 event v).
        for (eu_index p : sp->graph->preds(idx)) {
          if (pred_done(*sp, e, p)) continue;
          if (eu_node(*sp->graph, p) == node_) continue;
          monitor_event om;
          om.kind = monitor_event_kind::network_omission_suspected;
          om.at = rt_->now();
          om.node = node_;
          om.task = key.first;
          om.instance = key.second;
          om.subject = mon_->intern(e.info.eu_name);
          om.detail = mon_->intern("remote precedence from '" +
                                   sp->graph->eu_name(p) + "' missing");
          mon_->record(om);
        }
      });
    }
  }

  // Sources may be immediately eligible. Evaluation can cascade through
  // async invocations up to releasing this very shard, so re-find the
  // shard at every step; a live shard's EU vector never changes.
  for (std::size_t pos = 0;; ++pos) {
    shard* sp = find_shard(key);
    if (sp == nullptr || pos >= sp->eus.size()) break;
    evaluate(*sp, sp->eus[pos]);
  }

  // Replay tokens that outran this create (nothing above may touch local
  // state afterwards: a replayed abort_shard can erase the shard).
  if (auto eit = early_tokens_.find(key); eit != early_tokens_.end()) {
    std::vector<control_token> replay = std::move(eit->second);
    early_tokens_.erase(eit);
    for (const control_token& tok : replay) on_token(tok);
  }
}

void dispatcher::cancel_timers(eu_rt& eu) {
  if (eu.earliest_timer != sim::invalid_event) {
    rt_->cancel(eu.earliest_timer);
    eu.earliest_timer = sim::invalid_event;
  }
  if (eu.latest_timer != sim::invalid_event) {
    rt_->cancel(eu.latest_timer);
    eu.latest_timer = sim::invalid_event;
  }
}

void dispatcher::drop_waiter_refs(const shard_key& key) {
  std::erase_if(resource_waiters_,
                [&](const eu_ref& r) { return r.key == key; });
  for (auto& [c, refs] : cond_waiters_)
    std::erase_if(refs, [&](const eu_ref& r) { return r.key == key; });
}

void dispatcher::abort_shard(task_id t, instance_number k,
                             std::string_view reason) {
  const shard_key key{t, k};
  shard* s = find_shard(key);
  if (s == nullptr) return;
  s->aborted = true;

  for (eu_rt& eu : s->eus) {
    cancel_timers(eu);
    if (eu.code == nullptr || eu.st == eu_state::done) continue;
    if (!cpu_->exists(eu.thread)) continue;
    const bool started = cpu_->has_started(eu.thread);
    if (started) {
      // Orphan execution (paper 3.2.1 event iii): the thread had consumed
      // CPU on behalf of an instance that no longer exists.
      monitor_event ev;
      ev.kind = monitor_event_kind::orphan_killed;
      ev.at = rt_->now();
      ev.node = node_;
      ev.task = t;
      ev.instance = k;
      ev.subject = mon_->intern(eu.info.eu_name);
      ev.detail = mon_->intern(reason);
      mon_->record(ev);
      record_trace(monitor_event_kind::thread_killed, cpu_->name(eu.thread),
                   reason);
    }
    if (eu.resources_granted) {
      release_resources(*s, eu);
      emit(notification_kind::rre, eu);
    }
    emit(notification_kind::trm, eu);  // let the policy clean up its state
    thread_eus_[processor::slot_of(eu.thread)] = thread_eu{};
    cpu_->destroy(eu.thread);
  }
  drop_waiter_refs(key);
  release_shard(key);
  if (tracing())
    record_trace(monitor_event_kind::instance_aborted,
                 "task" + std::to_string(t) + "#" + std::to_string(k), reason);
  reevaluate_resource_waiters();
}

void dispatcher::halt() {
  if (halted_) return;
  halted_ = true;
  for (std::uint32_t slot : live_shards_in_key_order()) {
    for (eu_rt& eu : pool_[slot].eus) {
      cancel_timers(eu);
      if (eu.code != nullptr && cpu_->exists(eu.thread))
        cpu_->destroy(eu.thread);
    }
  }
  shard_index_.clear();
  free_shards_.clear();
  for (std::size_t slot = pool_.size(); slot-- > 0;) {
    pool_[slot].graph = nullptr;
    free_shards_.push_back(static_cast<std::uint32_t>(slot));
  }
  early_tokens_.clear();  // created_next_ survives: pre-crash tokens are late
  thread_eus_.clear();
  resource_waiters_.clear();
  cond_waiters_.clear();
  resources_.clear();
  fifo_.clear();
  // A scheduler notification in flight dies with the thread; clear the
  // busy latch or a restarted node could never schedule again.
  sched_busy_ = false;
  if (sched_thread_ != invalid_kthread && cpu_->exists(sched_thread_)) {
    cpu_->destroy(sched_thread_);
    sched_thread_ = invalid_kthread;
  }
  net_->halt();
}

void dispatcher::restart() {
  if (!halted_) return;
  halted_ = false;
  net_->resume();
  if (policy_ != nullptr && sched_thread_ == invalid_kthread)
    sched_thread_ =
        cpu_->create("sched:" + policy_->name() + "@" + std::to_string(node_),
                     prio::scheduler, prio::scheduler, duration::zero(),
                     [this] { scheduler_step(); });
}

// ------------------------------------------------------- readiness machinery

dispatcher::shard* dispatcher::find_shard(shard_key k) {
  const std::uint32_t* slot = shard_index_.find(k);
  return slot == nullptr ? nullptr : &pool_[*slot];
}

dispatcher::eu_rt* dispatcher::find_eu(shard& s, eu_index idx) {
  const auto it = std::lower_bound(
      s.eus.begin(), s.eus.end(), idx,
      [](const eu_rt& e, eu_index i) { return e.idx < i; });
  return it != s.eus.end() && it->idx == idx ? &*it : nullptr;
}

dispatcher::eu_rt* dispatcher::find_eu(const eu_ref& r) {
  shard* s = find_shard(r.key);
  return s == nullptr ? nullptr : find_eu(*s, r.idx);
}

std::pair<dispatcher::shard*, dispatcher::eu_rt*> dispatcher::find_by_thread(
    kthread_id t) {
  const std::size_t tslot = processor::slot_of(t);
  if (t == invalid_kthread || tslot >= thread_eus_.size() ||
      thread_eus_[tslot].thread != t)
    return {nullptr, nullptr};
  const thread_eu& r = thread_eus_[tslot];
  shard& s = pool_[r.shard];
  if (s.graph == nullptr || r.pos >= s.eus.size() || s.eus[r.pos].thread != t)
    return {nullptr, nullptr};
  return {&s, &s.eus[r.pos]};
}

bool dispatcher::mark_pred_done(shard& s, eu_rt& eu, eu_index from) {
  const auto& preds = s.graph->preds(eu.idx);
  const auto it = std::find(preds.begin(), preds.end(), from);
  if (it == preds.end()) return false;
  std::uint8_t& flag = s.preds_done[eu.preds_base + (it - preds.begin())];
  if (flag != 0) return false;
  flag = 1;
  ++eu.preds_seen;
  return true;
}

bool dispatcher::pred_done(const shard& s, const eu_rt& eu, eu_index from) {
  const auto& preds = s.graph->preds(eu.idx);
  const auto it = std::find(preds.begin(), preds.end(), from);
  return it != preds.end() &&
         s.preds_done[eu.preds_base + (it - preds.begin())] != 0;
}

void dispatcher::release_shard(shard_key key) {
  const std::uint32_t* slot = shard_index_.find(key);
  if (slot == nullptr) return;
  pool_[*slot].graph = nullptr;
  free_shards_.push_back(*slot);
  shard_index_.erase(key);
}

std::vector<std::uint32_t> dispatcher::live_shards_in_key_order() const {
  std::vector<std::uint32_t> slots;
  shard_index_.for_each(
      [&](const shard_key&, std::uint32_t slot) { slots.push_back(slot); });
  std::sort(slots.begin(), slots.end(), [this](std::uint32_t a,
                                               std::uint32_t b) {
    const shard& x = pool_[a];
    const shard& y = pool_[b];
    return shard_key{x.graph->id(), x.instance} <
           shard_key{y.graph->id(), y.instance};
  });
  return slots;
}

bool dispatcher::conds_satisfied(shard& s, eu_rt& eu) {
  if (eu.code == nullptr) return true;
  bool ok = true;
  for (condition_id c : eu.code->waits_all) {
    if (sys_->condition_on(node_, c)) continue;
    ok = false;
    auto& refs = cond_waiters_[c];
    const eu_ref ref{{s.graph->id(), s.instance}, eu.idx};
    if (std::find(refs.begin(), refs.end(), ref) == refs.end())
      refs.push_back(ref);
  }
  return ok;
}

bool dispatcher::grantable(const code_eu& c) const {
  for (const auto& claim : c.resources) {
    auto it = resources_.find(claim.res);
    if (it == resources_.end()) continue;
    const resource_state& rs = it->second;
    if (claim.mode == access_mode::exclusive) {
      if (rs.exclusive_held || rs.shared_holders > 0) return false;
    } else {
      if (rs.exclusive_held) return false;
    }
  }
  return true;
}

void dispatcher::grant(shard& s, eu_rt& eu) {
  for (const auto& claim : eu.code->resources) {
    resource_state& rs = resources_[claim.res];
    if (claim.mode == access_mode::exclusive)
      rs.exclusive_held = true;
    else
      ++rs.shared_holders;
  }
  eu.resources_granted = true;
  ++stats_.resource_grants;
  (void)s;
}

void dispatcher::release_resources(shard& s, eu_rt& eu) {
  for (const auto& claim : eu.code->resources) {
    resource_state& rs = resources_[claim.res];
    if (claim.mode == access_mode::exclusive)
      rs.exclusive_held = false;
    else
      --rs.shared_holders;
  }
  eu.resources_granted = false;
  (void)s;
}

void dispatcher::reevaluate_resource_waiters() {
  if (resource_waiters_.empty()) return;
  // Serve waiters in priority order (highest current priority first),
  // falling back to FIFO.
  std::vector<eu_ref> waiters = resource_waiters_;
  std::stable_sort(waiters.begin(), waiters.end(),
                   [this](const eu_ref& a, const eu_ref& b) {
                     eu_rt* ea = find_eu(a);
                     eu_rt* eb = find_eu(b);
                     const priority pa =
                         ea != nullptr && cpu_->exists(ea->thread)
                             ? cpu_->get_priority(ea->thread)
                             : prio::idle;
                     const priority pb =
                         eb != nullptr && cpu_->exists(eb->thread)
                             ? cpu_->get_priority(eb->thread)
                             : prio::idle;
                     return pa > pb;
                   });
  for (const eu_ref& r : waiters) {
    eu_rt* eu = find_eu(r);
    shard* s = find_shard(r.key);
    if (eu == nullptr || s == nullptr) continue;
    if (eu->st != eu_state::waiting) continue;
    evaluate(*s, *eu);
  }
}

void dispatcher::evaluate(shard& s, eu_rt& eu) {
  if (halted_ || s.aborted || eu.st != eu_state::waiting) return;
  if (eu.protocol_held) return;  // awaiting the policy's verdict
  if (eu.preds_seen < eu.preds_total) return;
  if (!conds_satisfied(s, eu)) return;

  if (eu.earliest_abs > rt_->now()) {
    if (!eu.earliest_abs.is_infinite() &&
        eu.earliest_timer == sim::invalid_event) {
      const shard_key key{s.graph->id(), s.instance};
      eu.earliest_timer = rt_->at(eu.earliest_abs, [this, key, i = eu.idx] {
        shard* sp = find_shard(key);
        if (sp == nullptr) return;
        eu_rt* e = find_eu(*sp, i);
        if (e == nullptr) return;
        e->earliest_timer = sim::invalid_event;
        evaluate(*sp, *e);
      });
    }
    return;
  }

  if (eu.inv != nullptr) {
    fire_invocation(s, eu);
    return;
  }

  const code_eu& c = *eu.code;
  if (!c.resources.empty() && !eu.resources_granted) {
    const bool gated = policy_ != nullptr && policy_->gates_resources();
    if (gated && !eu.rac_emitted) {
      // Request-time Rac: the policy will release (or keep holding) this
      // unit through the dispatcher primitive (PCP, footnote 2).
      eu.rac_emitted = true;
      emit(notification_kind::rac, eu);
      eu.protocol_held = true;
      return;
    }
    if (!grantable(c)) {
      const eu_ref ref{{s.graph->id(), s.instance}, eu.idx};
      if (!eu.in_resource_wait) {
        eu.in_resource_wait = true;
        ++stats_.resource_blocks;
        resource_waiters_.push_back(ref);
      }
      return;
    }
    grant(s, eu);
    if (!gated && !eu.rac_emitted) {
      // Grant-time Rac: ceiling protocols that merely *observe* accesses
      // (SRP) see exactly the granted sections.
      eu.rac_emitted = true;
      emit(notification_kind::rac, eu);
    }
  }

  if (eu.in_resource_wait) {
    eu.in_resource_wait = false;
    const eu_ref ref{{s.graph->id(), s.instance}, eu.idx};
    std::erase(resource_waiters_, ref);
  }
  eu.st = eu_state::queued;
  cpu_->make_runnable(eu.thread);
}

void dispatcher::on_condition_set(condition_id c) {
  auto it = cond_waiters_.find(c);
  if (it == cond_waiters_.end()) return;
  std::vector<eu_ref> refs = std::move(it->second);
  cond_waiters_.erase(it);
  for (const eu_ref& r : refs) {
    shard* s = find_shard(r.key);
    eu_rt* eu = find_eu(r);
    if (s != nullptr && eu != nullptr) evaluate(*s, *eu);
  }
}

// ------------------------------------------------------------------ execution

void dispatcher::eu_complete(shard_key key, eu_index idx) {
  shard* sp = find_shard(key);
  if (sp == nullptr) return;  // aborted while the completion event was queued
  shard& s = *sp;
  eu_rt& eu = *find_eu(s, idx);
  eu.st = eu_state::done;
  --s.pending;
  ++stats_.eus_completed;
  cancel_timers(eu);

  // Early-termination detection (paper 3.2.1 event iii).
  if (eu.actual < eu.code->wcet) {
    monitor_event ev;
    ev.kind = monitor_event_kind::early_termination;
    ev.at = rt_->now();
    ev.node = node_;
    ev.task = key.first;
    ev.instance = key.second;
    ev.subject = mon_->intern(eu.info.eu_name);
    ev.detail = mon_->intern("actual " + eu.actual.to_string() + " < wcet " +
                             eu.code->wcet.to_string());
    mon_->record(ev);
  }

  if (eu.code->body) {
    execution_context ctx(*sys_, node_, key.first, key.second);
    eu.code->body(ctx);
  }
  for (condition_id c : eu.code->sets) sys_->set_condition_from(node_, c);
  for (condition_id c : eu.code->clears) sys_->clear_condition_from(node_, c);

  if (eu.resources_granted) {
    release_resources(s, eu);
    emit(notification_kind::rre, eu);
    reevaluate_resource_waiters();
  }

  emit(notification_kind::trm, eu);
  thread_eus_[processor::slot_of(eu.thread)] = thread_eu{};
  cpu_->destroy(eu.thread);

  const task_graph& g = *s.graph;  // graphs outlive every shard
  propagate(key, idx, g);

  if (shard* sp = find_shard(key); sp != nullptr && sp->pending == 0)
    shard_done(key);
}

void dispatcher::propagate(shard_key key, eu_index from, const task_graph& g) {
  for (const precedence& p : g.precedences()) {
    if (p.from != from) continue;
    const node_id target = eu_node(g, p.to);
    if (target == node_) {
      shard* sp = find_shard(key);
      if (sp == nullptr) return;  // erased by an earlier cascade
      eu_rt* succ = find_eu(*sp, p.to);
      if (succ != nullptr && mark_pred_done(*sp, *succ, p.from))
        evaluate(*sp, *succ);
    } else {
      control_token tok;
      tok.k = control_token::kind::precedence;
      tok.task = key.first;
      tok.instance = key.second;
      tok.from = p.from;
      tok.to = p.to;
      net_->send(target, control_channel, tok,
                 std::max<std::size_t>(p.payload_bytes, 32));
    }
  }
}

bool dispatcher::stash_if_early(const control_token& tok) {
  const instance_number next =
      tok.task < created_next_.size() ? created_next_[tok.task] : 0;
  if (tok.instance < next) return false;  // created already (possibly gone)
  early_tokens_[{tok.task, tok.instance}].push_back(tok);
  return true;
}

void dispatcher::on_token(const control_token& tok) {
  if (halted_) return;
  switch (tok.k) {
    case control_token::kind::precedence:
    case control_token::kind::sync_return:
    case control_token::kind::sync_started:
    case control_token::kind::abort_shard:
      // Per-instance tokens may arrive before their shard's create token.
      if (stash_if_early(tok)) return;
      break;
    default:
      break;
  }
  switch (tok.k) {
    case control_token::kind::precedence: {
      shard* s = find_shard({tok.task, tok.instance});
      if (s == nullptr) return;
      eu_rt* eu = find_eu(*s, tok.to);
      if (eu != nullptr && mark_pred_done(*s, *eu, tok.from))
        evaluate(*s, *eu);
      return;
    }
    case control_token::kind::sync_return:
      on_sync_return(tok.task, tok.instance, tok.to);
      return;
    case control_token::kind::sync_started: {
      // Ack from a remote activation: record the child instance so the
      // deadlock scan sees the inv-wait edge (the return itself arrives as
      // sync_return; per-link FIFO orders the two).
      shard* s = find_shard({tok.task, tok.instance});
      if (s == nullptr) return;
      eu_rt* eu = find_eu(*s, tok.to);
      if (eu != nullptr && eu->st == eu_state::inv_waiting)
        eu->sync_child_instance = tok.aux;
      return;
    }
    case control_token::kind::create_shard:
      // Idempotent: a home that is also an involved node creates directly.
      if (find_shard({tok.task, tok.instance}) == nullptr)
        create_shard(sys_->graph(tok.task), tok.instance, tok.at);
      return;
    case control_token::kind::abort_shard:
      abort_shard(tok.task, tok.instance,
                  std::string_view(tok.reason,
                                   ::strnlen(tok.reason, sizeof tok.reason)));
      return;
    case control_token::kind::abort_request:
      sys_->abort_instance(tok.task, tok.instance,
                           std::string_view(tok.reason,
                                            ::strnlen(tok.reason,
                                                      sizeof tok.reason)),
                           /*as_rejection=*/true);
      return;
    case control_token::kind::activate_request:
      sys_->on_activate_request(node_, tok);
      return;
    case control_token::kind::cond_set:
    case control_token::kind::cond_clear:
    case control_token::kind::cond_update:
      sys_->on_condition_token(node_, tok);
      return;
    case control_token::kind::shard_complete:
    case control_token::kind::dl_probe:
      return;  // handled at the channel layer (need the source node)
  }
}

void dispatcher::fire_invocation(shard& s, eu_rt& eu) {
  const inv_eu& inv = *eu.inv;
  const shard_key key{s.graph->id(), s.instance};
  const node_id target_home = sys_->graph(inv.target).home_node();
  if (target_home != node_) {
    // The target's home owns the arrival-law check and instance
    // bookkeeping, so a remote activation rides the wire instead of
    // calling into a possibly concurrently-running shard. A synchronous
    // invoker parks in inv_waiting; the home answers with sync_started
    // (accepted, carrying the child instance for the deadlock scan) or an
    // immediate sync_return (rejected) — and a crashed home answers with
    // silence, the same observable as any lost remote instance: the
    // invoker's own latest-start/deadline monitors flag it.
    control_token tok;
    tok.k = control_token::kind::activate_request;
    tok.task = inv.target;
    if (inv.kind == invocation_kind::synchronous) {
      tok.flag = true;
      tok.waiter_node = node_;
      tok.waiter_task = key.first;
      tok.waiter_instance = key.second;
      tok.waiter_inv = eu.idx;
      eu.st = eu_state::inv_waiting;
      eu.sync_child_instance = 0;  // learned from the sync_started ack
    }
    net_->send(target_home, control_channel, tok, 48);
    if (inv.kind != invocation_kind::synchronous)
      finish_inv(key, eu.idx);
    return;
  }
  system::activation_origin origin;
  origin.k = system::activation_origin::kind::invocation;
  if (inv.kind == invocation_kind::synchronous) {
    origin.waiter_node = node_;
    origin.waiter_task = key.first;
    origin.waiter_instance = key.second;
    origin.waiter_inv = eu.idx;
  }
  const auto child = sys_->activate_internal(inv.target, origin);
  if (inv.kind == invocation_kind::synchronous && child.has_value()) {
    eu.st = eu_state::inv_waiting;
    eu.sync_child_instance = *child;
    return;
  }
  // Asynchronous, or the activation was rejected: the unit is finished
  // (a rejected invocation is observable through monitor events).
  finish_inv({s.graph->id(), s.instance}, eu.idx);
}

void dispatcher::finish_inv(shard_key key, eu_index idx) {
  shard* sp = find_shard(key);
  if (sp == nullptr) return;
  eu_rt* eu = find_eu(*sp, idx);
  if (eu == nullptr) return;
  eu->st = eu_state::done;
  --sp->pending;
  const task_graph& g = *sp->graph;
  propagate(key, idx, g);
  if (shard* again = find_shard(key); again != nullptr && again->pending == 0)
    shard_done(key);
}

void dispatcher::on_sync_return(task_id t, instance_number k, eu_index inv) {
  shard* s = find_shard({t, k});
  if (s == nullptr) return;
  eu_rt* eu = find_eu(*s, inv);
  if (eu == nullptr || eu->st != eu_state::inv_waiting) return;
  finish_inv({t, k}, inv);
}

void dispatcher::shard_done(shard_key key) {
  shard* s = find_shard(key);
  require(s != nullptr, "shard_done: missing shard");
  const node_id home = s->graph->home_node();
  drop_waiter_refs(key);
  release_shard(key);
  if (home == node_) {
    sys_->on_shard_complete(key.first, key.second, node_);
  } else {
    control_token tok;
    tok.k = control_token::kind::shard_complete;
    tok.task = key.first;
    tok.instance = key.second;
    net_->send(home, control_channel, tok, 32);
  }
}

// --------------------------------------------------------------- scheduler --

void dispatcher::emit(notification_kind kind, const eu_rt& eu) {
  ++stats_.notifications;
  if (tracing())
    record_trace(monitor_event_kind::notification,
                 std::string(eu.info.eu_name) + "#" +
                     std::to_string(eu.info.instance),
                 to_string(kind));
  if (policy_ == nullptr) return;
  notification n;
  n.kind = kind;
  n.thread = eu.thread;
  n.info = eu.info;
  n.at = rt_->now();
  fifo_.push_back(n);
  pump_scheduler();
}

void dispatcher::pump_scheduler() {
  if (policy_ == nullptr || sched_busy_ || fifo_.empty() || halted_) return;
  sched_busy_ = true;
  cpu_->add_work(sched_thread_, sys_->costs().scheduler_per_event);
  cpu_->make_runnable(sched_thread_);
}

void dispatcher::scheduler_step() {
  require(!fifo_.empty(), "scheduler ran with an empty FIFO");
  const notification n = fifo_.pop_front();
  ++stats_.scheduler_runs;
  policy_->handle(n, *this);
  sched_busy_ = false;
  pump_scheduler();
}

// ------------------------------------------------- scheduler_context (API) --

time_point dispatcher::now() const { return rt_->now(); }

void dispatcher::set_priority(kthread_id t, priority p) {
  eu_rt* eu = find_by_thread(t).second;
  if (eu == nullptr || !cpu_->exists(t)) return;  // terminated meanwhile
  if (tracing())
    record_trace(monitor_event_kind::priority_change, cpu_->name(t),
                 std::to_string(p));
  cpu_->set_priority(t, p);
  cpu_->set_threshold(t, p + eu->pt_boost);
}

void dispatcher::set_earliest(kthread_id t, time_point earliest) {
  const auto [s, eu] = find_by_thread(t);
  if (eu == nullptr) return;
  if (eu->st != eu_state::waiting) return;  // only pre-start, per the paper
  if (tracing())
    record_trace(monitor_event_kind::earliest_change, cpu_->name(t),
                 earliest.to_string());
  eu->earliest_abs = earliest;
  eu->protocol_held = false;
  if (eu->earliest_timer != sim::invalid_event) {
    rt_->cancel(eu->earliest_timer);
    eu->earliest_timer = sim::invalid_event;
  }
  evaluate(*s, *eu);
}

const eu_info& dispatcher::info(kthread_id t) const {
  const eu_rt* eu = const_cast<dispatcher*>(this)->find_by_thread(t).second;
  require(eu != nullptr, "dispatcher::info: unknown thread");
  return eu->info;
}

bool dispatcher::alive(kthread_id t) const {
  const eu_rt* eu = const_cast<dispatcher*>(this)->find_by_thread(t).second;
  return eu != nullptr && eu->st != eu_state::done;
}

void dispatcher::reject_instance(kthread_id t, std::string_view reason) {
  const shard* s = find_by_thread(t).first;
  if (s == nullptr) return;
  const shard_key key{s->graph->id(), s->instance};
  const node_id home = s->graph->home_node();
  if (home == node_) {
    sys_->abort_instance(key.first, key.second, reason, /*as_rejection=*/true);
    return;
  }
  // Instance bookkeeping lives on the home shard: a policy rejecting a
  // remote task's shard asks the home to abort instead of mutating the
  // instance records from this shard.
  control_token tok;
  tok.k = control_token::kind::abort_request;
  tok.task = key.first;
  tok.instance = key.second;
  std::snprintf(tok.reason, sizeof tok.reason, "%.*s",
                static_cast<int>(reason.size()), reason.data());
  net_->send(home, control_channel, tok, 64);
}

// ------------------------------------------------------------- observability

std::vector<dispatcher::waiting_eu> dispatcher::waiting_eus() const {
  std::vector<waiting_eu> out;
  for (std::uint32_t slot : live_shards_in_key_order()) {
    const shard& s = pool_[slot];
    for (const eu_rt& eu : s.eus) {
      if (eu.st != eu_state::waiting && eu.st != eu_state::inv_waiting)
        continue;
      waiting_eu w;
      w.task = s.graph->id();
      w.instance = s.instance;
      w.eu = eu.idx;
      for (eu_index p : s.graph->preds(eu.idx))
        if (!pred_done(s, eu, p)) w.waiting_preds.push_back(p);
      if (eu.code != nullptr)
        for (condition_id c : eu.code->waits_all)
          if (!sys_->condition_on(node_, c)) w.waiting_conds.push_back(c);
      if (eu.st == eu_state::inv_waiting) {
        w.sync_target = eu.inv->target;
        w.sync_target_instance = eu.sync_child_instance;
      }
      w.resource_wait = eu.in_resource_wait || eu.protocol_held;
      out.push_back(std::move(w));
    }
  }
  return out;
}

}  // namespace hades::core
