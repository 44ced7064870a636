#include "core/system.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <tuple>

namespace hades::core {

system::system(std::size_t node_count) : system(node_count, config{}) {}

std::unique_ptr<hades::runtime> system::make_backend(const config& cfg,
                                                     std::size_t node_count) {
  hades::runtime::options o = cfg.runtime;
  o.node_count = node_count;
  if (o.backend == "sharded") {
    validate(cfg.net.delta_min > duration::zero(),
             "system: the sharded backend needs net.delta_min > 0 (lookahead)");
    o.lookahead = cfg.net.delta_min;  // every cross-node event rides the LAN
    o.shards = std::min(o.shards, node_count);
  }
  // Backend policy beyond this translation — the contiguous-blocks default
  // node map — lives with the factory registrations
  // (src/rt/runtime_factory.cpp), not here: the system names backends,
  // never concrete types.
  return hades::runtime::make(o);
}

system::system(std::size_t node_count, config cfg) : cfg_(std::move(cfg)) {
  validate(node_count > 0, "system: need at least one node");
  rt_ = make_backend(cfg_, node_count);
  // The shard-confined log: each record is tagged with the executing shard
  // (single-engine backends have exactly one).
  monitor_.bind(*rt_);
  monitor_.set_tracing(cfg_.tracing);
  net_ = std::make_unique<sim::network>(*rt_, cfg_.net, cfg_.seed);
  net_->reserve_nodes(node_count);

  for (std::size_t n = 0; n < node_count; ++n) {
    auto ctx = std::make_unique<node_ctx>();
    ctx->cpu = std::make_unique<processor>(*rt_, static_cast<node_id>(n),
                                           cfg_.costs.context_switch,
                                           &monitor_);
    const double drift =
        n < cfg_.clock_drift.size() ? cfg_.clock_drift[n] : 0.0;
    ctx->clock = std::make_unique<sim::hardware_clock>(*rt_, drift);
    ctx->net = std::make_unique<net_task>(*ctx->cpu, *net_,
                                          static_cast<node_id>(n), channels_,
                                          cfg_.costs);
    ctx->disp = std::make_unique<dispatcher>(*this, *rt_,
                                             static_cast<node_id>(n),
                                             *ctx->cpu, *ctx->net, monitor_);
    nodes_.push_back(std::move(ctx));
    arm_clock_interrupts(static_cast<node_id>(n));
  }
  node_conditions_.resize(node_count);
  on_channel(control_channel, [this](node_id n, const sim::message& m) {
    nodes_[n]->disp->on_control_frame(m);
  });
  // Deadlock-scan replies (variable-length stalled-EU lists) ride the
  // system channel; only the scan home consumes them, but every node gets
  // the handler so the scan home is not hard-wired into the wire format.
  on_channel(system_channel, [this](node_id, const sim::message& m) {
    const auto* r = m.payload.get<dl_reply>();
    require(r != nullptr, "system: malformed system-channel message");
    auto it = dl_pending_.find(r->epoch);
    if (it == dl_pending_.end()) return;  // epoch already analyzed
    for (const auto& w : r->waits) it->second.push_back({r->from, w});
  });
}

void system::on_channel(int channel, channel_handler h) {
  require(channel >= 0, "system: channel ids are non-negative");
  const auto ch = static_cast<std::size_t>(channel);
  if (channels_.size() <= ch) channels_.resize(ch + 1);
  channels_[ch] = std::move(h);
}

system::~system() = default;

void system::arm_clock_interrupts(node_id n) {
  if (!cfg_.kernel_background) return;
  if (cfg_.costs.w_clk.is_zero() || cfg_.costs.p_clk.is_infinite()) return;
  schedule_clock_tick(n, rt_->now() + cfg_.costs.p_clk);
}

void system::schedule_clock_tick(node_id n, time_point at) {
  // A node-anchored chain rather than one shard-0 periodic: every interrupt
  // executes on the shard owning the node (drift-free — each link is dated
  // off the previous one, not off now()), and crash_node can cancel the
  // pending link because the chain never leaves the node's shard.
  nodes_[n]->clk_timer = rt_->at_node(n, at, [this, n, at] {
    processor& c = cpu(n);
    c.post_interrupt(c.tracing() ? "clk@" + std::to_string(n) : std::string(),
                     cfg_.costs.w_clk, {});
    schedule_clock_tick(n, at + cfg_.costs.p_clk);
  });
}

// ----------------------------------------------------------- registration --

task_id system::register_task(task_graph g) {
  for (node_id p : g.processors())
    validate(p < nodes_.size(),
             "task '" + g.name() + "' references unknown node " +
                 std::to_string(p));
  // Resources are local to one processor (paper 3.1.1): a resource id may
  // only ever be claimed from a single node.
  for (eu_index i = 0; i < g.eu_count(); ++i) {
    const auto* c = g.as_code(i);
    if (c == nullptr) continue;
    for (const auto& claim : c->resources) {
      auto [it, inserted] = resource_home_.emplace(claim.res, c->processor);
      validate(inserted || it->second == c->processor,
               "resource " + std::to_string(claim.res) +
                   " claimed from two different nodes (resources are local)");
    }
  }
  for (eu_index i = 0; i < g.eu_count(); ++i)
    if (const auto* inv = g.as_inv(i))
      validate(inv->target >= 1 && inv->target <= tasks_.size(),
               "task '" + g.name() + "' invokes unregistered task id " +
                   std::to_string(inv->target));

  // Shard-spanning task graphs are legal on every backend: shard
  // creation/abortion and invocation activation across nodes ride wire
  // control tokens (create_shard / abort_shard / activate_request), so the
  // home shard's instance machinery never calls into a dispatcher another
  // shard owns.
  const auto id = static_cast<task_id>(tasks_.size() + 1);
  g.id_ = id;
  // The whole per-task entry exists from here on: the vector is
  // structurally immutable during a run and each entry is owned by the
  // home shard.
  task_entry& te = tasks_.emplace_back();
  te.graph = std::make_unique<const task_graph>(std::move(g));
  te.involved = te.graph->processors();
  if (te.involved.empty()) te.involved.push_back(te.graph->home_node());
  if (te.graph->law().kind == arrival_kind::periodic) arm_periodic(id);
  return id;
}

std::vector<task_id> system::tasks() const {
  std::vector<task_id> out;
  out.reserve(tasks_.size());
  for (std::size_t i = 0; i < tasks_.size(); ++i)
    out.push_back(static_cast<task_id>(i + 1));
  return out;
}

void system::attach_policy_everywhere(std::shared_ptr<policy> p) {
  for (std::size_t n = 0; n < nodes_.size(); ++n)
    disp(static_cast<node_id>(n)).attach_policy(p);
}

// -------------------------------------------------------------- activation --

void system::arm_periodic(task_id t) {
  const task_graph& g = graph(t);
  const time_point first =
      std::max(time_point::zero() + g.law().offset, rt_->now());
  // A drift-free chain anchored at the home node (not one shard-0
  // periodic): every activation then executes on the shard owning the
  // task's bookkeeping — the confinement rule that keeps sharded runs
  // identical to the single engine.
  rt_->periodic_at_node(g.home_node(), first, g.law().period, [this, t] {
    activation_origin origin;
    origin.k = activation_origin::kind::timer;
    activate_internal(t, origin);
  });
}

bool system::activate(task_id t) {
  activation_origin origin;
  origin.k = activation_origin::kind::external;
  return activate_internal(t, origin).has_value();
}

void system::activate_at(task_id t, time_point at) {
  // Anchored at the home node: the activation executes on the shard owning
  // the task's bookkeeping.
  rt_->at_node(graph(t).home_node(), at, [this, t] { activate(t); });
}

std::optional<instance_number> system::activate_internal(
    task_id t, const activation_origin& origin) {
  require(t >= 1 && t <= tasks_.size(), "activate: unknown task");
  task_entry& te = tasks_[t - 1];
  const task_graph& g = *te.graph;
  const node_id home = g.home_node();
  if (disp(home).halted()) return std::nullopt;

  task_stats& st = te.stats;
  const time_point now = rt_->now();

  // Arrival-law supervision (paper 3.2.1 event ii).
  if (te.ever_activated) {
    const duration gap = now - te.last_activation;
    const bool violated =
        (g.law().kind == arrival_kind::sporadic && gap < g.law().period) ||
        (g.law().kind == arrival_kind::periodic && gap < g.law().period);
    if (violated) {
      monitor_event ev;
      ev.kind = monitor_event_kind::arrival_law_violation;
      ev.at = now;
      ev.node = home;
      ev.task = t;
      ev.subject = monitor_.intern(g.name());
      ev.detail = monitor_.intern("gap " + gap.to_string() + " < " +
                                  g.law().period.to_string());
      monitor_.record(ev);
      if (cfg_.reject_arrival_violations) {
        ev.kind = monitor_event_kind::instance_rejected;
        ev.detail = monitor_.intern("arrival-law violation");
        monitor_.record(ev);
        ++st.rejections;
        return std::nullopt;
      }
    }
  }
  te.ever_activated = true;
  te.last_activation = now;

  // Admission hook (traffic edge): the home dispatcher may veto the
  // activation before any instance state exists — the rejected request
  // costs one hook call and one monitor event, nothing else.
  if (const auto& admit = disp(home).admission_hook();
      admit && !admit(t, now)) {
    monitor_event rej;
    rej.kind = monitor_event_kind::instance_rejected;
    rej.at = now;
    rej.node = home;
    rej.task = t;
    rej.subject = monitor_.intern(g.name());
    rej.detail = monitor_.intern("admission control");
    monitor_.record(rej);
    ++st.rejections;
    return std::nullopt;
  }

  const instance_number k = te.next_instance++;
  std::uint32_t slot = 0;
  if (te.free_instances.empty()) {
    slot = static_cast<std::uint32_t>(te.instances.size());
    te.instances.emplace_back();
  } else {
    slot = te.free_instances.back();
    te.free_instances.pop_back();
  }
  te.live[k] = slot;
  instance_record& rec = te.instances[slot];
  rec.activation = now;
  rec.deadline_timer = sim::invalid_event;
  rec.sync_waiter.reset();
  if (origin.waiter_node.has_value()) rec.sync_waiter = origin;
  // `involved` is never empty; words past the first exist beyond 64 nodes.
  rec.pending = 0;
  rec.pending_high.assign((te.involved.size() - 1) / 64, 0);
  for (std::size_t i = 0; i < te.involved.size(); ++i)
    rec.pending_word(i) |= std::uint64_t{1} << (i % 64);
  // Completing exactly at the deadline is timely: the check runs one tick
  // after a+D so that same-instant completion events are processed first.
  // Anchored at the home node so the timer lands on the home shard even
  // when armed from outside event execution.
  if (!g.deadline().is_infinite())
    rec.deadline_timer =
        rt_->at_node(home, now + g.deadline() + duration::nanoseconds(1),
                     [this, t, k] { on_deadline(t, k); });
  ++st.activations;
  if (monitor_.tracing())
    monitor_.trace(now, home, monitor_event_kind::instance_activated,
                   g.name() + "#" + std::to_string(k));

  // Charge c_inv_start in kernel context on the home node, then create the
  // shards on every involved node (they share the activation date `now`):
  // the home's own shard directly, remote nodes by create_shard token —
  // the only cross-node effect is a message, so no shard ever calls into a
  // foreign dispatcher.
  auto start_shards = [this, t, k, now, home] {
    processor& c = cpu(home);
    c.post_interrupt(
        c.tracing() ? "inv_start:" + graph(t).name() : std::string(),
        cfg_.costs.c_inv_start, [this, t, k, now, home] {
          if (!instance_live(t, k)) return;  // aborted before start
          const task_entry& te = tasks_[t - 1];
          for (node_id n : te.involved) {
            if (n == home) {
              if (!disp(n).halted()) disp(n).create_shard(*te.graph, k, now);
            } else {
              control_token tok;
              tok.k = control_token::kind::create_shard;
              tok.task = t;
              tok.instance = k;
              tok.at = now;
              net(home).send(n, control_channel, tok, 48);
            }
          }
        });
  };
  if (rt_->in_event_context()) {
    // Already on the home shard (periodic chains, invocation handlers and
    // token handlers all execute there).
    start_shards();
  } else {
    // External activation between events: route onto the home shard first.
    rt_->at_node(home, now, std::move(start_shards));
  }
  return k;
}

// -------------------------------------------------------- instance tracking --

system::instance_record* system::find_instance(task_entry& te,
                                               instance_number k) {
  const std::uint32_t* slot = te.live.find(k);
  return slot == nullptr ? nullptr : &te.instances[*slot];
}

void system::release_instance(task_entry& te, instance_number k) {
  te.free_instances.push_back(*te.live.find(k));
  te.live.erase(k);
}

void system::on_deadline(task_id t, instance_number k) {
  instance_record* rec = find_instance(entry(t), k);
  if (rec == nullptr) return;  // completed in time
  rec->deadline_timer = sim::invalid_event;
  const task_graph& g = graph(t);
  monitor_event ev;
  ev.kind = monitor_event_kind::deadline_miss;
  ev.at = rt_->now();
  ev.node = g.home_node();
  ev.task = t;
  ev.instance = k;
  ev.subject = monitor_.intern(g.name());
  monitor_.record(ev);
  if (g.abort_on_deadline_miss())
    abort_instance(t, k, "deadline miss", /*as_rejection=*/false);
}

void system::on_shard_complete(task_id t, instance_number k, node_id from) {
  task_entry& te = entry(t);
  instance_record* rec = find_instance(te, k);
  if (rec == nullptr) return;
  const auto it =
      std::lower_bound(te.involved.begin(), te.involved.end(), from);
  if (it != te.involved.end() && *it == from) {
    const auto i = static_cast<std::size_t>(it - te.involved.begin());
    rec->pending_word(i) &= ~(std::uint64_t{1} << (i % 64));
  }
  if (rec->pending == 0 &&
      std::all_of(rec->pending_high.begin(), rec->pending_high.end(),
                  [](std::uint64_t w) { return w == 0; }))
    finish_instance(t, k);
}

void system::finish_instance(task_id t, instance_number k) {
  task_entry& te = entry(t);
  instance_record* rec = find_instance(te, k);
  require(rec != nullptr, "finish_instance: unknown instance");
  const time_point activation = rec->activation;
  const sim::event_id deadline_timer = rec->deadline_timer;
  const std::optional<activation_origin> waiter = rec->sync_waiter;
  release_instance(te, k);
  if (deadline_timer != sim::invalid_event) rt_->cancel(deadline_timer);

  const task_graph& g = *te.graph;
  task_stats& st = te.stats;
  ++st.completions;
  st.response_times.add(rt_->now() - activation);
  if (monitor_.tracing())
    monitor_.trace(rt_->now(), g.home_node(),
                   monitor_event_kind::instance_completed,
                   g.name() + "#" + std::to_string(k));
  if (const auto& retire = disp(g.home_node()).retire_hook())
    retire(t, k, activation, rt_->now(), /*completed=*/true);

  // c_inv_end in kernel context on the home node; a synchronous invoker (if
  // any) resumes after the handler.
  const node_id home = g.home_node();
  processor& c = cpu(home);
  c.post_interrupt(
      c.tracing() ? "inv_end:" + g.name() : std::string(),
      cfg_.costs.c_inv_end, [this, home, waiter] {
        if (waiter.has_value()) deliver_sync_return(home, *waiter);
      });
}

void system::deliver_sync_return(node_id from,
                                 const activation_origin& origin) {
  const node_id wn = *origin.waiter_node;
  if (wn == from) {
    if (disp(wn).halted()) return;
    disp(wn).on_sync_return(origin.waiter_task, origin.waiter_instance,
                            origin.waiter_inv);
    return;
  }
  // Remote waiter: send unconditionally — the network drops frames to down
  // nodes and the receiver's token handler checks halted_, so no
  // cross-shard read of the waiter's state is needed here.
  control_token tok;
  tok.k = control_token::kind::sync_return;
  tok.task = origin.waiter_task;
  tok.instance = origin.waiter_instance;
  tok.to = origin.waiter_inv;
  net(from).send(wn, control_channel, tok, 32);
}

void system::abort_instance(task_id t, instance_number k,
                            std::string_view reason, bool as_rejection) {
  if (t < 1 || t > tasks_.size()) return;
  task_entry& te = tasks_[t - 1];
  instance_record* rec = find_instance(te, k);
  if (rec == nullptr) return;
  if (rec->deadline_timer != sim::invalid_event)
    rt_->cancel(rec->deadline_timer);
  const time_point activation = rec->activation;
  release_instance(te, k);

  const task_graph& g = *te.graph;
  const node_id home = g.home_node();
  for (node_id n : te.involved) {
    if (n == home) {
      if (!disp(n).halted()) disp(n).abort_shard(t, k, reason);
    } else {
      // Remote shards die by token, mirroring how they were created.
      control_token tok;
      tok.k = control_token::kind::abort_shard;
      tok.task = t;
      tok.instance = k;
      std::snprintf(tok.reason, sizeof tok.reason, "%.*s",
                    static_cast<int>(reason.size()), reason.data());
      net(home).send(n, control_channel, tok, 64);
    }
  }

  if (as_rejection) {
    ++te.stats.rejections;
    monitor_event ev;
    ev.kind = monitor_event_kind::instance_rejected;
    ev.at = rt_->now();
    ev.node = g.home_node();
    ev.task = t;
    ev.instance = k;
    ev.subject = monitor_.intern(g.name());
    ev.detail = monitor_.intern(reason);
    monitor_.record(ev);
  }

  if (!disp(home).halted())
    if (const auto& retire = disp(home).retire_hook())
      retire(t, k, activation, rt_->now(), /*completed=*/false);
}

void system::on_activate_request(node_id home, const control_token& tok) {
  activation_origin origin;
  origin.k = activation_origin::kind::invocation;
  if (tok.flag) {
    origin.waiter_node = tok.waiter_node;
    origin.waiter_task = tok.waiter_task;
    origin.waiter_instance = tok.waiter_instance;
    origin.waiter_inv = tok.waiter_inv;
  }
  const auto child = activate_internal(tok.task, origin);
  if (!tok.flag) return;
  // Answer a synchronous invoker: sync_started carries the child instance
  // (for the deadlock scan's inv-wait edge); a rejection unblocks the
  // invoker immediately with sync_return, matching the local path where a
  // failed activate_internal finishes the Inv_EU at once.
  control_token back;
  back.task = tok.waiter_task;
  back.instance = tok.waiter_instance;
  back.to = tok.waiter_inv;
  if (child.has_value()) {
    back.k = control_token::kind::sync_started;
    back.aux = *child;
  } else {
    back.k = control_token::kind::sync_return;
  }
  net(home).send(tok.waiter_node, control_channel, back, 32);
}

// ------------------------------------------------------ condition variables --

namespace {
// The condition authority: a fixed home keeps single-setter timing
// identical across node counts and makes ownership backend-independent.
constexpr node_id cond_home = 0;
}  // namespace

void system::apply_condition_home(condition_id c, bool v) {
  // Runs on the authority's shard. Dedupe before broadcasting: a no-op
  // set/clear must not generate wire traffic (or wakeups).
  bool& cur = node_conditions_[cond_home][c];
  if (cur == v) return;
  cur = v;
  if (v && !disp(cond_home).halted()) disp(cond_home).on_condition_set(c);
  if (nodes_.size() == 1) return;
  control_token tok;
  tok.k = control_token::kind::cond_update;
  tok.cond = c;
  tok.flag = v;
  net(cond_home).send_all(control_channel, tok, 32);
}

void system::apply_condition_everywhere(condition_id c, bool v) {
  // Outside event execution every shard is quiescent: update all views at
  // once (the historical serial semantics of the public setters).
  for (std::size_t n = 0; n < nodes_.size(); ++n) {
    bool& cur = node_conditions_[n][c];
    if (cur == v) continue;
    cur = v;
    if (v && !nodes_[n]->disp->halted())
      nodes_[n]->disp->on_condition_set(c);
  }
}

void system::set_condition(condition_id c) {
  if (rt_->in_event_context())
    apply_condition_home(c, true);
  else
    apply_condition_everywhere(c, true);
}

void system::clear_condition(condition_id c) {
  if (rt_->in_event_context())
    apply_condition_home(c, false);
  else
    apply_condition_everywhere(c, false);
}

void system::set_condition_from(node_id origin, condition_id c) {
  if (!rt_->in_event_context()) {
    apply_condition_everywhere(c, true);
    return;
  }
  if (origin == cond_home) {
    apply_condition_home(c, true);
    return;
  }
  control_token tok;
  tok.k = control_token::kind::cond_set;
  tok.cond = c;
  net(origin).send(cond_home, control_channel, tok, 32);
}

void system::clear_condition_from(node_id origin, condition_id c) {
  if (!rt_->in_event_context()) {
    apply_condition_everywhere(c, false);
    return;
  }
  if (origin == cond_home) {
    apply_condition_home(c, false);
    return;
  }
  control_token tok;
  tok.k = control_token::kind::cond_clear;
  tok.cond = c;
  net(origin).send(cond_home, control_channel, tok, 32);
}

void system::on_condition_token(node_id n, const control_token& tok) {
  switch (tok.k) {
    case control_token::kind::cond_set:
      apply_condition_home(tok.cond, true);
      return;
    case control_token::kind::cond_clear:
      apply_condition_home(tok.cond, false);
      return;
    case control_token::kind::cond_update: {
      node_conditions_[n][tok.cond] = tok.flag;
      if (tok.flag) disp(n).on_condition_set(tok.cond);
      return;
    }
    default:
      return;
  }
}

bool system::condition(condition_id c) const {
  return condition_on(cond_home, c);
}

bool system::condition_on(node_id n, condition_id c) const {
  const auto& view = node_conditions_.at(n);
  auto it = view.find(c);
  return it != view.end() && it->second;
}

// ------------------------------------------------------------------- faults --

void system::crash_node(node_id n) {
  if (crashed(n)) return;
  // A dead node's oscillator interrupts no one.
  rt_->cancel(nodes_[n]->clk_timer);
  nodes_[n]->clk_timer = sim::invalid_event;
  // Symmetric wire silence: outbound frames from stale timers die at submit
  // time, inbound frames at delivery time (regression: sim/network_test
  // NodeDownSilencesOutbound).
  net_->set_node_down(n, true);
  monitor_event ev;
  ev.kind = monitor_event_kind::node_crash;
  ev.at = rt_->now();
  ev.node = n;
  monitor_.record(ev);
  disp(n).halt();
}

void system::recover_node(node_id n) {
  if (!crashed(n)) return;
  disp(n).restart();
  net_->set_node_down(n, false);
  arm_clock_interrupts(n);
  monitor_event ev;
  ev.kind = monitor_event_kind::node_recover;
  ev.at = rt_->now();
  ev.node = n;
  monitor_.record(ev);
}

// -------------------------------------------------------- deadlock detection --

std::size_t system::detect_deadlocks() {
  std::vector<stalled_eu> all;
  for (std::size_t n = 0; n < nodes_.size(); ++n) {
    if (crashed(static_cast<node_id>(n))) continue;
    for (auto& w : disp(static_cast<node_id>(n)).waiting_eus())
      all.push_back({static_cast<node_id>(n), std::move(w)});
  }
  return analyze_stalled(all);
}

std::size_t system::analyze_stalled(std::vector<stalled_eu>& all) {
  // Index stalled EUs by (task, instance, eu).
  std::map<std::tuple<task_id, instance_number, eu_index>, std::size_t> index;
  for (std::size_t i = 0; i < all.size(); ++i)
    index[{all[i].w.task, all[i].w.instance, all[i].w.eu}] = i;

  // Condition setters: map condition -> stalled EUs that would set it.
  std::map<condition_id, std::vector<std::size_t>> stalled_setters;
  for (std::size_t i = 0; i < all.size(); ++i) {
    const auto* c = graph(all[i].w.task).as_code(all[i].w.eu);
    if (c == nullptr) continue;
    for (condition_id cd : c->sets) stalled_setters[cd].push_back(i);
  }

  std::vector<std::vector<std::size_t>> adj(all.size());
  for (std::size_t i = 0; i < all.size(); ++i) {
    const auto& w = all[i].w;
    for (eu_index p : w.waiting_preds) {
      auto it = index.find({w.task, w.instance, p});
      if (it != index.end()) adj[i].push_back(it->second);
    }
    for (condition_id c : w.waiting_conds) {
      auto it = stalled_setters.find(c);
      if (it != stalled_setters.end())
        for (std::size_t s : it->second)
          if (s != i) adj[i].push_back(s);
    }
    if (w.sync_target.has_value()) {
      for (std::size_t j = 0; j < all.size(); ++j)
        if (all[j].w.task == *w.sync_target &&
            all[j].w.instance == w.sync_target_instance)
          adj[i].push_back(j);
    }
  }

  // Iterative three-colour DFS to find nodes on cycles.
  enum { white, grey, black };
  std::vector<int> colour(all.size(), white);
  std::vector<bool> on_cycle(all.size(), false);
  std::vector<std::size_t> stack;
  for (std::size_t root = 0; root < all.size(); ++root) {
    if (colour[root] != white) continue;
    std::vector<std::pair<std::size_t, std::size_t>> dfs{{root, 0}};
    colour[root] = grey;
    stack.push_back(root);
    while (!dfs.empty()) {
      auto& [v, ei] = dfs.back();
      if (ei < adj[v].size()) {
        const std::size_t u = adj[v][ei++];
        if (colour[u] == white) {
          colour[u] = grey;
          stack.push_back(u);
          dfs.emplace_back(u, 0);
        } else if (colour[u] == grey) {
          // Back edge: everything from u to the stack top is on a cycle.
          for (auto it = stack.rbegin(); it != stack.rend(); ++it) {
            on_cycle[*it] = true;
            if (*it == u) break;
          }
        }
      } else {
        colour[v] = black;
        stack.pop_back();
        dfs.pop_back();
      }
    }
  }

  std::size_t involved = 0;
  for (std::size_t i = 0; i < all.size(); ++i) {
    if (!on_cycle[i]) continue;
    ++involved;
    const auto& w = all[i].w;
    monitor_event ev;
    ev.kind = monitor_event_kind::deadlock_suspected;
    ev.at = rt_->now();
    ev.node = all[i].node;
    ev.task = w.task;
    ev.instance = w.instance;
    ev.subject = monitor_.intern(graph(w.task).eu_name(w.eu));
    ev.detail = monitor_.intern("wait-for cycle");
    monitor_.record(ev);
  }
  return involved;
}

void system::arm_deadlock_scan(duration period) {
  // Anchored at the scan home so every tick — and the analysis it leads
  // to — executes on one shard.
  const node_id scan_home = 0;
  rt_->periodic_at_node(scan_home, rt_->now() + period, period,
                        [this] { deadlock_scan_tick(); });
}

void system::deadlock_scan_tick() {
  const node_id scan_home = 0;
  if (crashed(scan_home)) return;  // resumes on the next tick after recovery
  if (nodes_.size() == 1) {
    // No wire needed: the home's own waiters are the whole graph.
    detect_deadlocks();
    return;
  }
  const std::uint64_t epoch = ++dl_epoch_;
  auto& pending = dl_pending_[epoch];
  for (auto& w : disp(scan_home).waiting_eus())
    pending.push_back({scan_home, std::move(w)});
  control_token tok;
  tok.k = control_token::kind::dl_probe;
  tok.aux = epoch;
  net(scan_home).send_all(control_channel, tok, 32);
  // Probe out plus reply back bounds the collect window: two worst-case
  // hops (with the modeled per-byte cost of the 64-byte reply) plus a
  // margin for net-task processing — a backend-independent date, so the
  // analysis time is identical across shard counts.
  const duration hop =
      cfg_.net.delta_max + cfg_.net.per_byte * 64 + cfg_.costs.w_net * 4;
  rt_->at_node(scan_home, rt_->now() + hop + hop + duration::microseconds(10),
               [this, epoch] { finish_deadlock_scan(epoch); });
}

void system::on_deadlock_probe(node_id n, std::uint64_t epoch,
                               node_id reply_to) {
  dl_reply r;
  r.epoch = epoch;
  r.from = n;
  r.waits = disp(n).waiting_eus();
  net(n).send(reply_to, system_channel, std::move(r), 64);
}

void system::finish_deadlock_scan(std::uint64_t epoch) {
  auto it = dl_pending_.find(epoch);
  if (it == dl_pending_.end()) return;
  std::vector<stalled_eu> all = std::move(it->second);
  dl_pending_.erase(it);
  // Canonical order: cross-link arrival order is a network property, so
  // sort by content before analyzing — the recorded events (and the DFS)
  // then depend only on *what* is stalled, not on reply interleaving.
  std::sort(all.begin(), all.end(),
            [](const stalled_eu& a, const stalled_eu& b) {
              if (a.node != b.node) return a.node < b.node;
              if (a.w.task != b.w.task) return a.w.task < b.w.task;
              if (a.w.instance != b.w.instance)
                return a.w.instance < b.w.instance;
              return a.w.eu < b.w.eu;
            });
  analyze_stalled(all);
}

}  // namespace hades::core
