#include "scenario/plan.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <set>
#include <sstream>
#include <utility>

#include "core/system.hpp"
#include "util/json.hpp"

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
// not copies: partition groups stay where they are.
std::vector<std::reference_wrapper<const action>> sorted_by_date(
    const std::vector<action>& in) {
  std::vector<std::reference_wrapper<const action>> out(in.begin(), in.end());
  std::stable_sort(out.begin(), out.end(),
                   [](const action& x, const action& y) { return x.at < y.at; });
  return out;
}

/// One fault that is either in force or not: it opens at the first
/// set(true) while off and closes at the first set(false) while on. Still
/// open at the end, it runs to the horizon.
struct timeline {
  bool on = false;
  time_point since;
  void set(time_point at, bool now_on, std::vector<window>& out) {
    if (now_on && !on) since = at;
    if (!now_on && on) out.push_back({since, at});
    on = now_on;
  }
  void finish(time_point horizon, std::vector<window>& out) const {
    if (on) out.push_back({since, horizon});
  }
};

/// Sort by start and coalesce overlapping windows, in place.
void merge(std::vector<window>& ws) {
  std::sort(ws.begin(), ws.end(),
            [](const window& x, const window& y) { return x.from < y.from; });
  std::size_t kept = 0;
  for (const window& w : ws) {
    if (kept > 0 && w.from <= ws[kept - 1].to)
      ws[kept - 1].to = std::max(ws[kept - 1].to, w.to);
    else
      ws[kept++] = w;
  }
  ws.resize(kept);
}

std::uint64_t link_key(node_id src, node_id dst) {
  return std::uint64_t{src} << 32 | dst;
}

}  // namespace

ground_truth::ground_truth(const plan& p, std::size_t nodes,
                           time_point horizon)
    : horizon_(horizon) {
  // Every node some crash/recover names, and every direction some link
  // action names, gets a timeline; both lists are sorted for lookup.
  for (const action& a : p.actions) {
    if (a.kind == action_kind::crash_node ||
        a.kind == action_kind::recover_node)
      down_.push_back({a.a, {}, false});
    if (a.kind == action_kind::link_down || a.kind == action_kind::link_up)
      links_.push_back({link_key(a.a, a.b), {}, false});
  }
  for (auto* v : {&down_, &links_}) {
    std::sort(v->begin(), v->end(), [](const auto& x, const auto& y) {
      return x.key < y.key;
    });
    v->erase(std::unique(v->begin(), v->end(),
                         [](const auto& x, const auto& y) {
                           return x.key == y.key;
                         }),
             v->end());
  }
  std::vector<timeline> node_down(down_.size());
  std::vector<timeline> link_down(links_.size());
  auto slot = [](std::vector<keyed_windows>& v, std::uint64_t key) {
    return static_cast<std::size_t>(find(v, key) - v.data());
  };

  timeline rate, perf, part, any_link;
  // Directed link-downs disturb like partitions do: traffic whose diffusion
  // would cross a dead direction cannot be graded for validity/agreement.
  int dead_links = 0;
  for (const action& a : sorted_by_date(p.actions)) {
    switch (a.kind) {
      case action_kind::crash_node:
      case action_kind::recover_node: {
        const std::size_t i = slot(down_, a.a);
        node_down[i].set(a.at, a.kind == action_kind::crash_node,
                         down_[i].windows);
        break;
      }
      case action_kind::link_down:
      case action_kind::link_up: {
        const bool now_down = a.kind == action_kind::link_down;
        const std::size_t i = slot(links_, link_key(a.a, a.b));
        if (now_down != link_down[i].on) dead_links += now_down ? 1 : -1;
        link_down[i].set(a.at, now_down, links_[i].windows);
        any_link.set(a.at, dead_links > 0, disturbed_);
        break;
      }
      case action_kind::omission_rate:
        rate.set(a.at, a.rate > 0.0, disturbed_);
        break;
      case action_kind::perf_fault:
        perf.set(a.at, a.rate > 0.0, disturbed_);
        break;
      case action_kind::partition: {
        part.set(a.at, true, disturbed_);
        split s{a.at, false, std::vector<int>(nodes, -1)};
        // A node listed twice belongs to the first group listing it.
        for (std::size_t g = 0; g < a.groups.size(); ++g)
          for (node_id m : a.groups[g])
            if (m < nodes && s.group_of[m] < 0)
              s.group_of[m] = static_cast<int>(g);
        splits_.push_back(std::move(s));
        break;
      }
      case action_kind::heal_partition:
        part.set(a.at, false, disturbed_);
        splits_.push_back({a.at, true, {}});
        break;
      default:
        break;
    }
  }
  for (std::size_t i = 0; i < down_.size(); ++i) {
    node_down[i].finish(horizon, down_[i].windows);
    down_[i].open_at_end = node_down[i].on;
  }
  for (std::size_t i = 0; i < links_.size(); ++i)
    link_down[i].finish(horizon, links_[i].windows);
  rate.finish(horizon, disturbed_);
  perf.finish(horizon, disturbed_);
  part.finish(horizon, disturbed_);
  any_link.finish(horizon, disturbed_);
  merge(disturbed_);
}

const ground_truth::keyed_windows* ground_truth::find(
    const std::vector<keyed_windows>& v, std::uint64_t key) {
  const auto it = std::lower_bound(
      v.begin(), v.end(), key,
      [](const keyed_windows& e, std::uint64_t k) { return e.key < k; });
  return it != v.end() && it->key == key ? &*it : nullptr;
}

std::span<const window> ground_truth::down_windows(node_id n) const {
  const keyed_windows* d = find(down_, n);
  if (d == nullptr) return {};
  return d->windows;
}

bool ground_truth::down_at(node_id n, time_point t) const {
  const keyed_windows* d = find(down_, n);
  if (d == nullptr) return false;
  for (const window& w : d->windows)
    if (w.contains(t)) return true;
  return d->open_at_end && d->windows.back().from <= t;
}

bool ground_truth::quiet(time_point t, duration pad) const {
  for (const window& w : disturbed_)
    if (w.overlaps(t, t + pad)) return false;
  return true;
}

void ground_truth::append_separated(node_id a, node_id b,
                                    std::vector<window>& out) const {
  timeline apart;
  for (const split& s : splits_) {
    bool now_apart = false;
    if (!s.heal) {
      const std::size_t n = s.group_of.size();
      const int ga = a < n ? s.group_of[a] : -1;
      const int gb = b < n ? s.group_of[b] : -1;
      now_apart = ga >= 0 && gb >= 0 && ga != gb;
    }
    apart.set(s.at, now_apart, out);
  }
  apart.finish(horizon_, out);
}

void ground_truth::separated_windows(node_id a, node_id b,
                                     std::vector<window>& out) const {
  out.clear();
  append_separated(a, b, out);
}

void ground_truth::link_down_windows(node_id src, node_id dst,
                                     std::vector<window>& out) const {
  out.clear();
  if (const keyed_windows* l = find(links_, link_key(src, dst)))
    out.assign(l->windows.begin(), l->windows.end());
}

void ground_truth::unreachable_windows(node_id o, node_id s,
                                       std::vector<window>& out) const {
  const std::span<const window> down = down_windows(s);
  out.assign(down.begin(), down.end());
  append_separated(o, s, out);
  // s's heartbeats reach o over the directed link s -> o; its down windows
  // silence s for o even though the reverse direction still works.
  if (const keyed_windows* l = find(links_, link_key(s, o)))
    out.insert(out.end(), l->windows.begin(), l->windows.end());
  merge(out);
}

bool plan::down_at(node_id n, time_point t) const {
  return ground_truth(*this, 0, time_point::infinity()).down_at(n, t);
}

bool plan::ever_down(node_id n) const {
  for (const action& a : actions)
    if (a.kind == action_kind::crash_node && a.a == n) return true;
  return false;
}

bool plan::clock_faulty(node_id n) const {
  for (const action& a : actions)
    if (a.kind == action_kind::clock_fault && a.a == n) return true;
  return false;
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
     << pad << "  \"name\": \"" << json::escape(p.name) << "\",\n"
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

plan plan_from_value(const json::value& v) {
  require(v.k == json::value::kind::object, "plan json: expected object");
  require(v.at("format").as_string() == "hades-plan v1",
          "plan json: unsupported format");
  plan p;
  p.name = v.at("name").as_string();
  const json::value& actions = v.at("actions");
  require(actions.k == json::value::kind::array,
          "plan json: \"actions\" must be an array");
  for (const json::value& av : actions.arr) {
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
      require(f->k == json::value::kind::array,
              "plan json: \"groups\" must be an array");
      for (const json::value& gv : f->arr) {
        require(gv.k == json::value::kind::array,
                "plan json: each group must be an array");
        std::vector<node_id> g;
        for (const json::value& mv : gv.arr)
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
  const json::value root = json::parse(text);
  // Accept enclosing documents (e.g. "hades-fuzz-case v1") that embed the
  // timeline as a "plan" member: anything that isn't itself a plan document
  // but carries one delegates to it.
  if (root.k == json::value::kind::object) {
    const json::value* fmt = root.find("format");
    if (fmt == nullptr || fmt->as_string() != "hades-plan v1")
      if (const json::value* inner = root.find("plan"))
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

/// Pre-register the plan's globally-read wire state (node silence,
/// partitions, omission and performance rates) into the network's
/// time-indexed state right now, dated at each action's own date. Reads are
/// date-keyed, so this is semantically identical to flipping each toggle at
/// the action date — but by the time the run starts the whole plan's wire
/// truth is in force, so a send on another shard that a serial round runs
/// before the action's own shard reads the same answer. (The scheduled
/// crash/recover actions in `apply` re-register the same same-date entries;
/// the last-write-wins rule makes that idempotent.)
void preregister(sim::network& net, const plan& p) {
  for (const action& a : p.actions) {
    switch (a.kind) {
      case action_kind::crash_node:
        net.set_node_down_at(a.at, a.a, true);
        break;
      case action_kind::recover_node:
        net.set_node_down_at(a.at, a.a, false);
        break;
      case action_kind::partition:
        net.partition_at(a.at, a.groups);
        break;
      case action_kind::heal_partition:
        net.heal_partition_at(a.at);
        break;
      case action_kind::omission_rate:
        net.set_omission_rate_at(a.at, a.rate);
        break;
      case action_kind::perf_fault:
        net.set_performance_fault_at(a.at, a.rate, a.extra);
        break;
      default:
        break;
    }
  }
}

}  // namespace

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
