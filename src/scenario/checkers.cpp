#include "scenario/checkers.hpp"

#include <algorithm>
#include <optional>
#include <span>
#include <sstream>
#include <tuple>

#include "scenario/scenarios.hpp"
#include "util/error.hpp"

namespace hades::scenario {

namespace {

std::string node_pair(node_id o, node_id s) {
  std::ostringstream os;
  os << "observer " << o << " / subject " << s;
  return os.str();
}

/// Glue unreachability windows across sub-heartbeat gaps, in place: when
/// the subject was reachable for less than `min_gap` (one heartbeat period
/// plus delivery, the time observers need to actually hear it again),
/// observers may legitimately hold one continuous suspicion across both
/// windows — no fresh suspect/recover events exist to grade separately.
void glue(std::vector<window>& ws, duration min_gap) {
  std::size_t kept = 0;
  for (const window& w : ws) {
    if (kept > 0 && w.from - ws[kept - 1].to < min_gap)
      ws[kept - 1].to = std::max(ws[kept - 1].to, w.to);
    else
      ws[kept++] = w;
  }
  ws.resize(kept);
}

using suspicion = observation::suspicion;

/// Suspicion-style events bucketed by (observer, subject), each bucket in
/// date order.
std::vector<suspicion> by_pair(std::vector<suspicion> v) {
  std::sort(v.begin(), v.end(), [](const suspicion& a, const suspicion& b) {
    return std::tuple(a.observer, a.subject, a.at) <
           std::tuple(b.observer, b.subject, b.at);
  });
  return v;
}

/// Does `bucketed` hold an event of (o, s) dated in [from, to)?
bool any_between(const std::vector<suspicion>& bucketed, node_id o, node_id s,
                 time_point from, time_point to) {
  const auto it = std::lower_bound(
      bucketed.begin(), bucketed.end(), std::tuple(o, s, from),
      [](const suspicion& e, const std::tuple<node_id, node_id, time_point>& k) {
        return std::tuple(e.observer, e.subject, e.at) < k;
      });
  return it != bucketed.end() && it->observer == o && it->subject == s &&
         it->at < to;
}

}  // namespace

// ------------------------------------------------------------- detector --

std::vector<check_result> check_detector(const plan& p, const observation& o) {
  std::vector<check_result> out;
  const ground_truth truth(p, o.nodes, o.horizon);
  const std::vector<suspicion> suspected = by_pair(o.suspicions);
  const std::vector<suspicion> recovered = by_pair(o.recoveries);
  std::vector<window> ws;  // one pair's windows, refilled per query

  // (1) No false suspicion: every suspicion (obs, sub, t) must fall inside
  // [w.from, w.to + detect_bound) of some window during which `sub` was
  // unreachable from `obs`, or of a disturbance window (a probabilistic
  // omission/performance storm may exceed the omission degree the
  // perfection bound assumes) — outside those, the detector is perfect.
  check_result no_false{"detector.no_false_suspicion", true, ""};
  for (const auto& s : o.suspicions) {
    const auto justifies = [&](const window& w) {
      return w.from <= s.at && s.at < w.to + o.detect_bound;
    };
    truth.unreachable_windows(s.observer, s.subject, ws);
    if (std::any_of(ws.begin(), ws.end(), justifies) ||
        std::any_of(truth.disturbed_windows().begin(),
                    truth.disturbed_windows().end(), justifies))
      continue;
    no_false.passed = false;
    no_false.detail = node_pair(s.observer, s.subject) + " suspected at " +
                      s.at.to_string() + " with no fault in force";
    break;
  }
  out.push_back(std::move(no_false));

  // (2) Completeness: every unreachability window longer than detect_bound
  // is suspected by every observer that was itself up for the whole of
  // [w.from, w.from + detect_bound).
  check_result detects{"detector.crash_detected_within_bound", true, ""};
  for (node_id sub = 0; sub < o.nodes && detects.passed; ++sub) {
    for (node_id obs = 0; obs < o.nodes && detects.passed; ++obs) {
      if (obs == sub) continue;
      truth.unreachable_windows(obs, sub, ws);
      glue(ws, o.recover_bound);
      for (const window& w : ws) {
        const time_point deadline = w.from + o.detect_bound;
        // Detection is only guaranteed when the fault outlives the bound and
        // the bound fits before the horizon; shorter windows may or may not
        // be noticed (check (1) covers any suspicion they do cause).
        if (deadline > w.to || deadline >= o.horizon) continue;
        const std::span<const window> down = truth.down_windows(obs);
        if (std::any_of(down.begin(), down.end(), [&](const window& d) {
              return d.overlaps(w.from, deadline);
            }))
          continue;
        // Every failing window of the pair is visited; the last one found
        // is the one reported.
        if (!any_between(suspected, obs, sub, w.from, deadline)) {
          detects.passed = false;
          detects.detail = node_pair(obs, sub) + " not suspected within " +
                           o.detect_bound.to_string() + " of fault at " +
                           w.from.to_string();
        }
      }
    }
  }
  out.push_back(std::move(detects));

  // (3) Recovery: when an unreachability window ends with margin before the
  // horizon, every observer that suspected during it hears the subject
  // again within recover_bound (observers down at the window end exempt).
  check_result recovers{"detector.recovery_observed_within_bound", true, ""};
  for (const auto& s : o.suspicions) {
    if (!recovers.passed) break;
    truth.unreachable_windows(s.observer, s.subject, ws);
    glue(ws, o.recover_bound);
    for (const window& w : ws) {
      if (!(w.from <= s.at && s.at < w.to + o.detect_bound)) continue;
      const time_point deadline = w.to + o.recover_bound;
      if (w.to >= o.horizon || deadline >= o.horizon) continue;
      if (truth.down_at(s.observer, w.to) || truth.down_at(s.subject, w.to))
        continue;
      if (!any_between(recovered, s.observer, s.subject, w.to, deadline)) {
        recovers.passed = false;
        recovers.detail = node_pair(s.observer, s.subject) +
                          " not un-suspected within " +
                          o.recover_bound.to_string() + " of recovery at " +
                          w.to.to_string();
        break;
      }
    }
  }
  out.push_back(std::move(recovers));
  return out;
}

// ------------------------------------------------------------ broadcast --

std::vector<check_result> check_broadcast(const plan& p, const observation& o,
                                          bool expect_order_faults) {
  using msg_key = svc::delivery_logs::entry;
  using delivery_log = svc::delivery_logs::view;
  std::vector<check_result> out;
  const ground_truth truth(p, o.nodes, o.horizon);
  require(o.sent_at.size() >= o.nodes && o.delivery_logs.size() >= o.nodes,
          "check_broadcast: sent_at and delivery_logs need one entry per node");

  std::vector<node_id> correct;
  for (node_id n = 0; n < o.nodes; ++n)
    if (p.correct_throughout(n)) correct.push_back(n);

  // Every message gets a flat id, base[origin] + seq - 1, so ids run in
  // (origin, seq) order and per-message state lives in flat arrays.
  std::vector<std::size_t> base(o.nodes + 1, 0);
  for (node_id n = 0; n < o.nodes; ++n)
    base[n + 1] = base[n] + o.sent_at[n].size();
  const std::size_t messages = base[o.nodes];
  auto id_of = [&](const msg_key& m) { return base[m.first] + m.second - 1; };

  // A message is gradeable when it was sent in quiet time by a then-up
  // origin, with enough margin before the horizon for worst-case delivery.
  std::vector<bool> gradeable(messages);
  for (node_id origin = 0; origin < o.nodes; ++origin)
    for (std::size_t i = 0; i < o.sent_at[origin].size(); ++i) {
      const time_point t = o.sent_at[origin][i];
      gradeable[base[origin] + i] = truth.quiet(t, o.delivery_bound) &&
                                    !truth.down_at(origin, t) &&
                                    t + o.delivery_bound < o.horizon;
    }

  // How many distinct correct nodes delivered each message.
  std::vector<std::uint32_t> deliverers(messages, 0);
  std::vector<node_id> last_deliverer(messages, invalid_node);
  for (node_id n : correct)
    for (const msg_key& m : o.delivery_logs[n]) {
      require(m.first < o.nodes && m.second >= 1 &&
                  m.second <= o.sent_at[m.first].size(),
              [&] {
                return "check_broadcast: node " + std::to_string(n) +
                       " delivered (" + std::to_string(m.first) + ", " +
                       std::to_string(m.second) + "), which was never sent";
              });
      const std::size_t id = id_of(m);
      if (last_deliverer[id] == n) continue;  // a duplicate counts once
      last_deliverer[id] = n;
      ++deliverers[id];
    }

  // (1) Validity + agreement over gradeable messages: any gradeable message
  // delivered by one correct node is delivered by every correct node, and a
  // gradeable message from a correct-throughout origin is delivered, full
  // stop (flood diffusion masks scripted bursts deterministically).
  check_result agree{"broadcast.agreement", true, ""};
  for (node_id origin = 0; origin < o.nodes && agree.passed; ++origin)
    for (std::size_t i = 0; i < o.sent_at[origin].size(); ++i) {
      const std::size_t id = base[origin] + i;
      if (deliverers[id] == 0 || !gradeable[id]) continue;
      if (deliverers[id] != correct.size()) {
        agree.passed = false;
        std::ostringstream os;
        os << "message (" << origin << ", " << i + 1 << ") delivered by "
           << deliverers[id] << "/" << correct.size() << " correct nodes";
        agree.detail = os.str();
        break;
      }
    }
  out.push_back(std::move(agree));

  check_result valid{"broadcast.validity", true, ""};
  for (node_id origin = 0; origin < o.nodes && valid.passed; ++origin) {
    if (!p.correct_throughout(origin)) continue;
    for (std::size_t i = 0; i < o.sent_at[origin].size(); ++i) {
      const std::size_t id = base[origin] + i;
      if (!gradeable[id]) continue;
      if (deliverers[id] == 0 || deliverers[id] != correct.size()) {
        valid.passed = false;
        std::ostringstream os;
        os << "quiet message (" << origin << ", " << i + 1
           << ") not delivered everywhere";
        valid.detail = os.str();
        break;
      }
    }
  }
  out.push_back(std::move(valid));

  // (2) Total order: common messages appear in the same relative order on
  // every correct node (Delta-delivery), except when the scenario
  // deliberately breaches the hold-back with performance faults. Up to 64
  // correct nodes every pair is compared; above that the O(N²·L) sweep is
  // replaced by comparing each node against one *reference log* — the
  // longest correct log, which at that scale the plans keep complete, so
  // consistency-with-the-reference carries the pairwise property.
  if (!expect_order_faults) {
    check_result order{"broadcast.total_order", true, ""};
    // pos[id]: the last position of message `id` in the log being compared
    // against, npos when it is not there. Filled and emptied per log.
    constexpr std::size_t npos = ~std::size_t{0};
    std::vector<std::size_t> pos(messages, npos);
    auto fill = [&](const delivery_log& l) {
      for (std::size_t k = 0; k < l.size(); ++k) pos[id_of(l[k])] = k;
    };
    auto empty = [&](const delivery_log& l) {
      for (const msg_key& m : l) pos[id_of(m)] = npos;
    };
    // Does log `la` respect the filled log's order on their common
    // messages? Returns the first out-of-order message if not.
    auto against = [&](const delivery_log& la) -> std::optional<msg_key> {
      std::size_t last = 0;
      bool first = true;
      for (const msg_key& m : la) {
        const std::size_t at = pos[id_of(m)];
        if (at == npos) continue;
        if (!first && at < last) return m;
        last = at;
        first = false;
      }
      return std::nullopt;
    };
    auto flag = [&](node_id a, node_id b, const msg_key& m) {
      order.passed = false;
      std::ostringstream os;
      os << "nodes " << a << " and " << b << " deliver (" << m.first << ", "
         << m.second << ") in different relative order";
      order.detail = os.str();
    };
    constexpr std::size_t pairwise_limit = 64;
    if (correct.size() <= pairwise_limit) {
      for (std::size_t i = 0; i < correct.size() && order.passed; ++i)
        for (std::size_t j = i + 1; j < correct.size(); ++j) {
          const delivery_log& lb = o.delivery_logs[correct[j]];
          fill(lb);
          const auto m = against(o.delivery_logs[correct[i]]);
          empty(lb);
          if (m) {
            flag(correct[i], correct[j], *m);
            break;
          }
        }
    } else if (!correct.empty()) {
      node_id ref = correct.front();
      for (node_id n : correct)
        if (o.delivery_logs[n].size() > o.delivery_logs[ref].size()) ref = n;
      fill(o.delivery_logs[ref]);
      for (node_id n : correct) {
        if (n == ref) continue;
        if (auto m = against(o.delivery_logs[n])) {
          flag(n, ref, *m);
          break;
        }
      }
    }
    out.push_back(std::move(order));

    check_result no_breach{"broadcast.no_order_faults", o.order_faults == 0,
                           ""};
    if (!no_breach.passed)
      no_breach.detail =
          std::to_string(o.order_faults) +
          " hold-back breaches on a network without performance faults";
    out.push_back(std::move(no_breach));
  }
  return out;
}

// ---------------------------------------------------------------- modes --

std::vector<check_result> check_modes(const plan& p, const observation& o,
                                      svc::op_mode expected_final,
                                      duration switch_latency) {
  (void)p;
  std::vector<check_result> out;

  check_result final_mode{"modes.final_mode", o.final_mode == expected_final,
                          ""};
  if (!final_mode.passed)
    final_mode.detail = std::string("expected ") + to_string(expected_final) +
                        ", ended in " + to_string(o.final_mode);
  out.push_back(std::move(final_mode));

  // Every switch must be explained by a monitor trigger within the latency
  // bound — mode management reacts to the monitor stream, it does not act
  // spontaneously, and it must not lag the trigger.
  check_result latency{"modes.switch_latency", true, ""};
  for (const auto& sw : o.mode_switches) {
    const bool triggered = std::any_of(
        o.trigger_events.begin(), o.trigger_events.end(), [&](time_point t) {
          return t <= sw.at && sw.at - t <= switch_latency;
        });
    if (!triggered) {
      latency.passed = false;
      latency.detail = std::string("switch to ") + to_string(sw.to) + " at " +
                       sw.at.to_string() + " has no trigger within " +
                       switch_latency.to_string();
      break;
    }
  }
  out.push_back(std::move(latency));
  return out;
}

// --------------------------------------------------------------- clocks --

std::vector<check_result> check_clocks(const observation& o) {
  std::vector<check_result> out;
  if (!o.skew_checked) return out;
  check_result skew{"clocks.skew_within_bound", o.max_skew <= o.skew_bound,
                    ""};
  skew.detail = "max skew " + o.max_skew.to_string() + " (bound " +
                o.skew_bound.to_string() + ")";
  out.push_back(std::move(skew));
  return out;
}

// --------------------------------------------------------------- traffic --

std::vector<check_result> check_miss_budget(const observation& o) {
  std::vector<check_result> out;
  if (!o.traffic_checked) return out;

  check_result acct{"traffic.accounting", true, ""};
  const std::uint64_t in = o.traffic_admitted + o.traffic_rejected;
  const std::uint64_t done = o.traffic_completed + o.traffic_missed +
                             o.traffic_shed + o.traffic_outstanding;
  if (in != o.traffic_offered || done != o.traffic_admitted) {
    acct.passed = false;
    acct.detail = "offered " + std::to_string(o.traffic_offered) +
                  " != admitted+rejected " + std::to_string(in) +
                  " or admitted " + std::to_string(o.traffic_admitted) +
                  " != completed+missed+shed+outstanding " +
                  std::to_string(done);
  } else if (o.traffic_admitted == 0) {
    acct.passed = false;
    acct.detail = "no traffic admitted (offered " +
                  std::to_string(o.traffic_offered) + ")";
  }
  out.push_back(std::move(acct));

  check_result reval{"traffic.revalidation",
                     o.traffic_revalidations > 0 &&
                         o.traffic_revalidation_failures == 0,
                     std::to_string(o.traffic_revalidations) +
                         " revalidations, " +
                         std::to_string(o.traffic_revalidation_failures) +
                         " disagreed with the accumulator"};
  out.push_back(std::move(reval));

  // The budget is on *admitted* work: the edge may reject or shed as much
  // as overload demands, but what it accepted it must overwhelmingly serve
  // by the deadline — that is the admission controller's whole promise.
  check_result budget{"traffic.miss_budget", true, ""};
  const auto allowed = static_cast<std::uint64_t>(
      o.miss_budget * static_cast<double>(o.traffic_admitted));
  budget.passed = o.traffic_missed <= allowed;
  budget.detail = std::to_string(o.traffic_missed) + " deadline-aborted of " +
                  std::to_string(o.traffic_admitted) + " admitted (budget " +
                  std::to_string(allowed) + ")";
  out.push_back(std::move(budget));
  return out;
}

// ----------------------------------------------------------------- grade --

void sort_suspicions(std::vector<observation::suspicion>& v) {
  std::sort(v.begin(), v.end(), [](const auto& a, const auto& b) {
    return std::tuple(a.at, a.observer, a.subject) <
           std::tuple(b.at, b.observer, b.subject);
  });
}

std::vector<check_result> grade(const scenario_spec& spec,
                                const observation& obs,
                                duration switch_latency) {
  std::vector<check_result> checks;
  for (auto& c : check_detector(spec.p, obs)) checks.push_back(c);
  for (auto& c : check_broadcast(spec.p, obs, spec.expect_order_faults))
    checks.push_back(c);
  for (auto& c :
       check_modes(spec.p, obs, spec.modes.final_mode, switch_latency))
    checks.push_back(c);
  for (auto& c : check_clocks(obs)) checks.push_back(c);
  for (auto& c : check_miss_budget(obs)) checks.push_back(c);
  return checks;
}

}  // namespace hades::scenario
