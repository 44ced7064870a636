#include "scenario/plan.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <set>
#include <sstream>
#include <utility>

#include "core/system.hpp"
#include "scenario/fault_injector.hpp"
#include "scenario/json_min.hpp"

namespace hades::scenario {

const char* to_string(action_kind k) {
  switch (k) {
    case action_kind::crash_node: return "crash-node";
    case action_kind::recover_node: return "recover-node";
    case action_kind::partition: return "partition";
    case action_kind::heal_partition: return "heal-partition";
    case action_kind::omission_burst: return "omission-burst";
    case action_kind::omission_rate: return "omission-rate";
    case action_kind::perf_fault: return "perf-fault";
    case action_kind::clock_drift: return "clock-drift";
    case action_kind::clock_step: return "clock-step";
    case action_kind::link_down: return "link-down";
    case action_kind::link_up: return "link-up";
    case action_kind::clock_fault: return "clock-fault";
  }
  return "?";
}

// ------------------------------------------------------------- builders --

plan& plan::crash(time_point at, node_id n) {
  action a;
  a.at = at;
  a.kind = action_kind::crash_node;
  a.a = n;
  actions.push_back(std::move(a));
  return *this;
}

plan& plan::recover(time_point at, node_id n) {
  action a;
  a.at = at;
  a.kind = action_kind::recover_node;
  a.a = n;
  actions.push_back(std::move(a));
  return *this;
}

plan& plan::split(time_point at, std::vector<std::vector<node_id>> groups) {
  action a;
  a.at = at;
  a.kind = action_kind::partition;
  a.groups = std::move(groups);
  actions.push_back(std::move(a));
  return *this;
}

plan& plan::heal(time_point at) {
  action a;
  a.at = at;
  a.kind = action_kind::heal_partition;
  actions.push_back(std::move(a));
  return *this;
}

plan& plan::omission_burst(time_point at, node_id src, node_id dst, int count,
                           int channel) {
  action a;
  a.at = at;
  a.kind = action_kind::omission_burst;
  a.a = src;
  a.b = dst;
  a.count = count;
  a.channel = channel;
  actions.push_back(std::move(a));
  return *this;
}

plan& plan::omission_rate(time_point at, double rate) {
  action a;
  a.at = at;
  a.kind = action_kind::omission_rate;
  a.rate = rate;
  actions.push_back(std::move(a));
  return *this;
}

plan& plan::perf_fault(time_point at, double rate, duration extra) {
  action a;
  a.at = at;
  a.kind = action_kind::perf_fault;
  a.rate = rate;
  a.extra = extra;
  actions.push_back(std::move(a));
  return *this;
}

plan& plan::clock_drift(time_point at, node_id n, double rho) {
  action a;
  a.at = at;
  a.kind = action_kind::clock_drift;
  a.a = n;
  a.rate = rho;
  actions.push_back(std::move(a));
  return *this;
}

plan& plan::clock_step(time_point at, node_id n, duration step) {
  action a;
  a.at = at;
  a.kind = action_kind::clock_step;
  a.a = n;
  a.extra = step;
  actions.push_back(std::move(a));
  return *this;
}

plan& plan::link_down(time_point at, node_id src, node_id dst) {
  action a;
  a.at = at;
  a.kind = action_kind::link_down;
  a.a = src;
  a.b = dst;
  actions.push_back(std::move(a));
  return *this;
}

plan& plan::link_up(time_point at, node_id src, node_id dst) {
  action a;
  a.at = at;
  a.kind = action_kind::link_up;
  a.a = src;
  a.b = dst;
  actions.push_back(std::move(a));
  return *this;
}

plan& plan::clock_byzantine(time_point at, node_id n, double rate,
                            duration offset) {
  action a;
  a.at = at;
  a.kind = action_kind::clock_fault;
  a.a = n;
  a.rate = rate;
  a.extra = offset;
  actions.push_back(std::move(a));
  return *this;
}

// ------------------------------------------------------ ground truth -----

namespace {

// The actions in date order, same-date actions in plan order. References,
// not copies: grading asks these queries once per node pair, and copying
// every action (partition groups included) on each call dominated the
// detector check at 1000 nodes.
std::vector<std::reference_wrapper<const action>> sorted_by_date(
    const std::vector<action>& in) {
  std::vector<std::reference_wrapper<const action>> out(in.begin(), in.end());
  std::stable_sort(out.begin(), out.end(),
                   [](const action& x, const action& y) { return x.at < y.at; });
  return out;
}

std::vector<window> merge(std::vector<window> ws) {
  std::sort(ws.begin(), ws.end(),
            [](const window& x, const window& y) { return x.from < y.from; });
  std::vector<window> out;
  for (const window& w : ws) {
    if (!out.empty() && w.from <= out.back().to)
      out.back().to = std::max(out.back().to, w.to);
    else
      out.push_back(w);
  }
  return out;
}

}  // namespace

std::vector<window> plan::down_windows(node_id n, time_point horizon) const {
  std::vector<window> out;
  bool down = false;
  time_point since;
  for (const action& a : sorted_by_date(actions)) {
    if (a.a != n) continue;
    if (a.kind == action_kind::crash_node && !down) {
      down = true;
      since = a.at;
    } else if (a.kind == action_kind::recover_node && down) {
      down = false;
      out.push_back({since, a.at});
    }
  }
  if (down) out.push_back({since, horizon});
  return out;
}

bool plan::down_at(node_id n, time_point t) const {
  for (const window& w : down_windows(n, time_point::infinity()))
    if (w.contains(t)) return true;
  return false;
}

bool plan::ever_down(node_id n) const {
  for (const action& a : actions)
    if (a.kind == action_kind::crash_node && a.a == n) return true;
  return false;
}

std::vector<window> plan::separated_windows(node_id a, node_id b,
                                            time_point horizon) const {
  auto group_of = [](const std::vector<std::vector<node_id>>& groups,
                     node_id n) -> int {
    for (std::size_t g = 0; g < groups.size(); ++g)
      for (node_id m : groups[g])
        if (m == n) return static_cast<int>(g);
    return -1;  // unlisted: connected to everyone
  };
  std::vector<window> out;
  bool apart = false;
  time_point since;
  for (const action& act : sorted_by_date(actions)) {
    bool now_apart = apart;
    if (act.kind == action_kind::partition) {
      const int ga = group_of(act.groups, a);
      const int gb = group_of(act.groups, b);
      now_apart = ga >= 0 && gb >= 0 && ga != gb;
    } else if (act.kind == action_kind::heal_partition) {
      now_apart = false;
    } else {
      continue;
    }
    if (now_apart && !apart) since = act.at;
    if (!now_apart && apart) out.push_back({since, act.at});
    apart = now_apart;
  }
  if (apart) out.push_back({since, horizon});
  return out;
}

std::vector<window> plan::link_down_windows(node_id src, node_id dst,
                                            time_point horizon) const {
  std::vector<window> out;
  bool down = false;
  time_point since;
  for (const action& a : sorted_by_date(actions)) {
    if (a.a != src || a.b != dst) continue;
    if (a.kind == action_kind::link_down && !down) {
      down = true;
      since = a.at;
    } else if (a.kind == action_kind::link_up && down) {
      down = false;
      out.push_back({since, a.at});
    }
  }
  if (down) out.push_back({since, horizon});
  return out;
}

std::vector<window> plan::unreachable_windows(node_id o, node_id s,
                                              time_point horizon) const {
  std::vector<window> ws = down_windows(s, horizon);
  const std::vector<window> sep = separated_windows(o, s, horizon);
  ws.insert(ws.end(), sep.begin(), sep.end());
  // s's heartbeats reach o over the directed link s -> o; its down windows
  // silence s for o even though the reverse direction still works.
  const std::vector<window> link = link_down_windows(s, o, horizon);
  ws.insert(ws.end(), link.begin(), link.end());
  return merge(std::move(ws));
}

bool plan::clock_faulty(node_id n) const {
  for (const action& a : actions)
    if (a.kind == action_kind::clock_fault && a.a == n) return true;
  return false;
}

std::vector<window> plan::disturbed_windows(time_point horizon) const {
  std::vector<window> out;
  bool rate_on = false, perf_on = false, part_on = false;
  time_point rate_since, perf_since, part_since;
  // Directed link-downs disturb like partitions do: traffic whose diffusion
  // would cross a dead direction cannot be graded for validity/agreement.
  std::set<std::pair<node_id, node_id>> links_down;
  time_point links_since;
  for (const action& a : sorted_by_date(actions)) {
    switch (a.kind) {
      case action_kind::link_down:
        if (links_down.empty()) links_since = a.at;
        links_down.insert({a.a, a.b});
        break;
      case action_kind::link_up:
        if (links_down.erase({a.a, a.b}) > 0 && links_down.empty())
          out.push_back({links_since, a.at});
        break;
      default:
        break;
    }
    switch (a.kind) {
      case action_kind::omission_rate:
        if (a.rate > 0.0 && !rate_on) {
          rate_on = true;
          rate_since = a.at;
        } else if (a.rate <= 0.0 && rate_on) {
          rate_on = false;
          out.push_back({rate_since, a.at});
        }
        break;
      case action_kind::perf_fault:
        if (a.rate > 0.0 && !perf_on) {
          perf_on = true;
          perf_since = a.at;
        } else if (a.rate <= 0.0 && perf_on) {
          perf_on = false;
          out.push_back({perf_since, a.at});
        }
        break;
      case action_kind::partition:
        if (!part_on) {
          part_on = true;
          part_since = a.at;
        }
        break;
      case action_kind::heal_partition:
        if (part_on) {
          part_on = false;
          out.push_back({part_since, a.at});
        }
        break;
      default:
        break;
    }
  }
  if (rate_on) out.push_back({rate_since, horizon});
  if (perf_on) out.push_back({perf_since, horizon});
  if (part_on) out.push_back({part_since, horizon});
  if (!links_down.empty()) out.push_back({links_since, horizon});
  return merge(std::move(out));
}

bool plan::quiet(time_point t, duration pad, time_point horizon) const {
  for (const window& w : disturbed_windows(horizon))
    if (w.overlaps(t, t + pad)) return false;
  return true;
}

// -------------------------------------------------------- validation -----

std::vector<std::string> plan::validate(std::size_t nodes,
                                        time_point horizon) const {
  std::vector<std::string> out;
  auto flag = [&](const action& a, const std::string& why) {
    out.push_back(std::string(to_string(a.kind)) + " at " + a.at.to_string() +
                  ": " + why);
  };
  auto node_ok = [&](node_id n) {
    return n != invalid_node && static_cast<std::size_t>(n) < nodes;
  };

  // Replayed state machine over the date-sorted timeline: each pairing rule
  // (crash/recover, partition/heal, link_down/link_up) is checked against
  // the state the earlier actions left behind, so "recover without a prior
  // crash" and friends are caught wherever they hide in the sequence.
  std::set<node_id> down;
  std::set<std::pair<node_id, node_id>> links_down;
  bool partitioned = false;
  for (const action& a : sorted_by_date(actions)) {
    if (a.at.is_infinite() || a.at < time_point::zero())
      flag(a, "date must be finite and non-negative");
    else if (a.at >= horizon)
      flag(a, "at or past the horizon " + horizon.to_string());
    switch (a.kind) {
      case action_kind::crash_node:
        if (!node_ok(a.a))
          flag(a, "node " + std::to_string(a.a) + " out of range");
        else if (!down.insert(a.a).second)
          flag(a, "node " + std::to_string(a.a) + " is already down");
        break;
      case action_kind::recover_node:
        if (!node_ok(a.a))
          flag(a, "node " + std::to_string(a.a) + " out of range");
        else if (down.erase(a.a) == 0)
          flag(a, "node " + std::to_string(a.a) + " was never crashed");
        break;
      case action_kind::partition: {
        std::set<node_id> listed;
        if (a.groups.empty()) flag(a, "no groups");
        for (const auto& g : a.groups) {
          if (g.empty()) flag(a, "empty group");
          for (node_id m : g) {
            if (!node_ok(m))
              flag(a, "group node " + std::to_string(m) + " out of range");
            else if (!listed.insert(m).second)
              flag(a, "node " + std::to_string(m) + " listed twice");
          }
        }
        partitioned = true;
        break;
      }
      case action_kind::heal_partition:
        if (!partitioned) flag(a, "no partition in force");
        partitioned = false;
        break;
      case action_kind::link_down:
      case action_kind::link_up: {
        if (!node_ok(a.a) || !node_ok(a.b)) {
          flag(a, "link endpoints out of range");
          break;
        }
        if (a.a == a.b) {
          flag(a, "link endpoints must differ");
          break;
        }
        if (a.kind == action_kind::link_down) {
          if (!links_down.insert({a.a, a.b}).second)
            flag(a, "direction already down");
        } else if (links_down.erase({a.a, a.b}) == 0) {
          flag(a, "direction was never taken down");
        }
        break;
      }
      case action_kind::omission_burst:
        if (!node_ok(a.a) || !node_ok(a.b) || a.a == a.b)
          flag(a, "burst endpoints invalid");
        if (a.count < 1) flag(a, "burst count must be >= 1");
        if (a.channel < -1) flag(a, "channel must be >= -1");
        break;
      case action_kind::omission_rate:
        if (!(a.rate >= 0.0 && a.rate <= 1.0))
          flag(a, "rate outside [0, 1]");
        break;
      case action_kind::perf_fault:
        if (!(a.rate >= 0.0 && a.rate <= 1.0))
          flag(a, "rate outside [0, 1]");
        if (a.extra < duration::zero()) flag(a, "negative extra delay");
        break;
      case action_kind::clock_drift:
      case action_kind::clock_step:
      case action_kind::clock_fault:
        if (!node_ok(a.a))
          flag(a, "node " + std::to_string(a.a) + " out of range");
        if (!std::isfinite(a.rate)) flag(a, "rate must be finite");
        break;
    }
  }
  return out;
}

// --------------------------------------------------------------- JSON ----

namespace {

/// Rates ride as exact ppm integers: every curated and generated rate is
/// ppm-representable, one correctly-rounded division reconstructs the
/// identical double on any compiler, and the repro replays bit-identically.
std::int64_t to_ppm(double rate) {
  return static_cast<std::int64_t>(std::llround(rate * 1e6));
}
double from_ppm(std::int64_t ppm) { return static_cast<double>(ppm) / 1e6; }

action_kind kind_from_string(const std::string& s) {
  for (int k = 0; k <= static_cast<int>(action_kind::clock_fault); ++k)
    if (s == to_string(static_cast<action_kind>(k)))
      return static_cast<action_kind>(k);
  throw invariant_violation("plan json: unknown action kind \"" + s + '"');
}

}  // namespace

std::string plan_to_json(const plan& p, int indent) {
  const std::string pad(static_cast<std::size_t>(indent), ' ');
  std::ostringstream os;
  os << pad << "{\n"
     << pad << "  \"format\": \"hades-plan v1\",\n"
     << pad << "  \"name\": \"" << jmin::escape(p.name) << "\",\n"
     << pad << "  \"actions\": [";
  for (std::size_t i = 0; i < p.actions.size(); ++i) {
    const action& a = p.actions[i];
    os << (i == 0 ? "\n" : ",\n") << pad << "    {\"kind\": \""
       << to_string(a.kind) << "\", \"at_ns\": " << a.at.nanoseconds();
    switch (a.kind) {
      case action_kind::crash_node:
      case action_kind::recover_node:
        os << ", \"a\": " << a.a;
        break;
      case action_kind::partition:
        os << ", \"groups\": [";
        for (std::size_t g = 0; g < a.groups.size(); ++g) {
          os << (g == 0 ? "[" : ", [");
          for (std::size_t m = 0; m < a.groups[g].size(); ++m)
            os << (m == 0 ? "" : ", ") << a.groups[g][m];
          os << "]";
        }
        os << "]";
        break;
      case action_kind::heal_partition:
        break;
      case action_kind::omission_burst:
        os << ", \"a\": " << a.a << ", \"b\": " << a.b
           << ", \"count\": " << a.count << ", \"channel\": " << a.channel;
        break;
      case action_kind::omission_rate:
        os << ", \"rate_ppm\": " << to_ppm(a.rate);
        break;
      case action_kind::perf_fault:
        os << ", \"rate_ppm\": " << to_ppm(a.rate)
           << ", \"extra_ns\": " << a.extra.count();
        break;
      case action_kind::clock_drift:
        os << ", \"a\": " << a.a << ", \"rate_ppm\": " << to_ppm(a.rate);
        break;
      case action_kind::clock_step:
        os << ", \"a\": " << a.a << ", \"extra_ns\": " << a.extra.count();
        break;
      case action_kind::link_down:
      case action_kind::link_up:
        os << ", \"a\": " << a.a << ", \"b\": " << a.b;
        break;
      case action_kind::clock_fault:
        os << ", \"a\": " << a.a << ", \"rate_ppm\": " << to_ppm(a.rate)
           << ", \"extra_ns\": " << a.extra.count();
        break;
    }
    os << "}";
  }
  os << (p.actions.empty() ? "]" : "\n" + pad + "  ]") << "\n" << pad << "}";
  return os.str();
}

namespace {

plan plan_from_value(const jmin::value& v) {
  require(v.k == jmin::value::kind::object, "plan json: expected object");
  require(v.at("format").as_string() == "hades-plan v1",
          "plan json: unsupported format");
  plan p;
  p.name = v.at("name").as_string();
  const jmin::value& actions = v.at("actions");
  require(actions.k == jmin::value::kind::array,
          "plan json: \"actions\" must be an array");
  for (const jmin::value& av : actions.arr) {
    action a;
    a.kind = kind_from_string(av.at("kind").as_string());
    a.at = time_point::at(duration::nanoseconds(av.at("at_ns").as_int()));
    if (const auto* f = av.find("a"))
      a.a = static_cast<node_id>(f->as_int());
    if (const auto* f = av.find("b"))
      a.b = static_cast<node_id>(f->as_int());
    if (const auto* f = av.find("count"))
      a.count = static_cast<int>(f->as_int());
    if (const auto* f = av.find("channel"))
      a.channel = static_cast<int>(f->as_int());
    if (const auto* f = av.find("rate_ppm")) a.rate = from_ppm(f->as_int());
    if (const auto* f = av.find("extra_ns"))
      a.extra = duration::nanoseconds(f->as_int());
    if (const auto* f = av.find("groups")) {
      require(f->k == jmin::value::kind::array,
              "plan json: \"groups\" must be an array");
      for (const jmin::value& gv : f->arr) {
        require(gv.k == jmin::value::kind::array,
                "plan json: each group must be an array");
        std::vector<node_id> g;
        for (const jmin::value& mv : gv.arr)
          g.push_back(static_cast<node_id>(mv.as_int()));
        a.groups.push_back(std::move(g));
      }
    }
    p.actions.push_back(std::move(a));
  }
  return p;
}

}  // namespace

plan plan_from_json(const std::string& text) {
  const jmin::value root = jmin::parse(text);
  // Accept enclosing documents (e.g. "hades-fuzz-case v1") that embed the
  // timeline as a "plan" member: anything that isn't itself a plan document
  // but carries one delegates to it.
  if (root.k == jmin::value::kind::object) {
    const jmin::value* fmt = root.find("format");
    if (fmt == nullptr || fmt->as_string() != "hades-plan v1")
      if (const jmin::value* inner = root.find("plan"))
        return plan_from_value(*inner);
  }
  return plan_from_value(root);
}

// ---------------------------------------------------------- injector -----

namespace {

/// Globally-read wire toggles handled entirely by pre-registration: they
/// mutate a time-indexed network timeline and schedule nothing at run time.
bool globally_preregistered(action_kind k) {
  switch (k) {
    case action_kind::partition:
    case action_kind::heal_partition:
    case action_kind::omission_rate:
    case action_kind::perf_fault:
      return true;
    default:
      return false;
  }
}

}  // namespace

void preregister(fault_injector& inj, const plan& p) {
  // Globally-read wire state (node silence, partitions, omission and
  // performance rates) is *pre-registered* into the injector's time-indexed
  // state right now, dated at each action's own date. Reads are date-keyed,
  // so this is semantically identical to flipping each toggle at the action
  // date — but by the time the run starts the whole plan's wire truth is in
  // force, so a send on another shard that a serial round runs before the
  // action's own shard reads the same answer. (The scheduled crash/recover
  // actions in `apply` re-register the same same-date entries; the
  // last-write-wins rule makes that idempotent.)
  for (const action& a : p.actions) {
    switch (a.kind) {
      case action_kind::crash_node:
        inj.set_node_down_at(a.at, a.a, true);
        break;
      case action_kind::recover_node:
        inj.set_node_down_at(a.at, a.a, false);
        break;
      case action_kind::partition:
        inj.partition_at(a.at, a.groups);
        break;
      case action_kind::heal_partition:
        inj.heal_partition_at(a.at);
        break;
      case action_kind::omission_rate:
        inj.set_omission_rate_at(a.at, a.rate);
        break;
      case action_kind::perf_fault:
        inj.set_performance_fault_at(a.at, a.rate, a.extra);
        break;
      default:
        break;
    }
  }
}

void apply(core::system& sys, const plan& p, time_point horizon) {
  // Fail loudly on ill-formed timelines: a recover that never pairs with a
  // crash (or an action dated past the horizon) would otherwise silently
  // no-op and the checkers would grade a run the plan never described.
  const std::vector<std::string> violations =
      p.validate(sys.node_count(), horizon);
  if (!violations.empty()) {
    std::string msg = "scenario::apply: ill-formed plan \"" + p.name + "\"";
    for (const std::string& v : violations) msg += "\n  " + v;
    throw invariant_violation(msg);
  }

  preregister(sys.network(), p);

  for (const action& a : p.actions) {
    // Node- and link-scoped actions are anchored on the node whose state
    // (or whose send stream, for bursts) they touch, so the sharded backend
    // executes them on the owning shard in date order with that node's
    // other events. Purely-global actions were fully handled by the
    // pre-registration above and schedule nothing.
    if (globally_preregistered(a.kind)) continue;
    const node_id anchor = a.a != invalid_node ? a.a : 0;
    sys.engine().at_node(anchor, a.at, [&sys, a] {
      switch (a.kind) {
        case action_kind::crash_node:
          sys.crash_node(a.a);
          break;
        case action_kind::recover_node:
          sys.recover_node(a.a);
          break;
        case action_kind::omission_burst:
          sys.network().drop_next(a.a, a.b, a.count, a.channel);
          break;
        case action_kind::clock_drift:
          sys.clock(a.a).set_drift_rate(a.rate);
          break;
        case action_kind::clock_step:
          sys.clock(a.a).adjust(a.extra);
          break;
        case action_kind::link_down:
          sys.network().set_link_down(a.a, a.b, true);
          break;
        case action_kind::link_up:
          sys.network().set_link_down(a.a, a.b, false);
          break;
        case action_kind::clock_fault:
          sys.clock(a.a).set_fault([rate = a.rate,
                                    offset = a.extra](time_point t) {
            return duration::nanoseconds(static_cast<std::int64_t>(
                       static_cast<double>(t.nanoseconds()) * rate)) +
                   offset;
          });
          break;
        default:
          break;  // globally_preregistered kinds never get here
      }
    });
  }
}

}  // namespace hades::scenario
