#include "scenario/observation_io.hpp"

#include <algorithm>
#include <fstream>
#include <sstream>

#include "util/error.hpp"

namespace hades::scenario {

namespace {

constexpr const char* magic = "hades-observation v1";

std::int64_t ns(time_point t) { return t.nanoseconds(); }
time_point tp(std::int64_t v) {
  return time_point::at(duration::nanoseconds(v));
}

}  // namespace

void write_partial_observation(const std::string& path, const observation& obs,
                               const std::vector<bool>& owned, bool has_mode,
                               const std::vector<std::string>& extra) {
  std::ofstream f(path);
  validate(f.good(), "write_partial_observation: cannot open " + path);
  f << magic << '\n';
  f << "nodes " << obs.nodes << '\n';
  f << "horizon " << ns(obs.horizon) << '\n';
  f << "detect_bound " << obs.detect_bound.count() << '\n';
  f << "recover_bound " << obs.recover_bound.count() << '\n';
  f << "delivery_bound " << obs.delivery_bound.count() << '\n';
  f << "skew_bound " << obs.skew_bound.count() << '\n';
  f << "has_mode " << (has_mode ? 1 : 0) << '\n';
  const auto is_owned = [&](node_id n) {
    return n < owned.size() && owned[n];
  };
  // Suspicions fire on the observer's node: the owner of the observer
  // recorded them.
  for (const auto& s : obs.suspicions)
    if (is_owned(s.observer))
      f << "suspicion " << s.observer << ' ' << s.subject << ' ' << ns(s.at)
        << '\n';
  for (const auto& r : obs.recoveries)
    if (is_owned(r.observer))
      f << "recovery " << r.observer << ' ' << r.subject << ' ' << ns(r.at)
        << '\n';
  // Deliveries and sends happen on the node itself.
  for (node_id n = 0; n < obs.delivery_logs.size(); ++n)
    if (is_owned(n))
      for (const auto& [origin, seq] : obs.delivery_logs[n])
        f << "delivery " << n << ' ' << origin << ' ' << seq << '\n';
  for (node_id n = 0; n < obs.sent_at.size(); ++n)
    if (is_owned(n))
      for (time_point t : obs.sent_at[n]) f << "sent " << n << ' ' << ns(t) << '\n';
  // Order faults are counted at the delivering node — each worker's total
  // covers exactly its owned nodes, so the merged sum is the global count.
  f << "order_faults " << obs.order_faults << '\n';
  f << "deadline_misses " << obs.deadline_misses << '\n';
  for (time_point t : obs.trigger_events) f << "trigger " << ns(t) << '\n';
  if (has_mode) {
    f << "final_mode " << static_cast<int>(obs.final_mode) << '\n';
    for (const auto& sw : obs.mode_switches)
      f << "mode_switch " << static_cast<int>(sw.from) << ' '
        << static_cast<int>(sw.to) << ' ' << ns(sw.at) << '\n';
    f << "skew_checked " << (obs.skew_checked ? 1 : 0) << '\n';
    if (obs.skew_checked) f << "max_skew " << obs.max_skew.count() << '\n';
  }
  for (const auto& line : extra) f << "x " << line << '\n';
  validate(f.good(), "write_partial_observation: write failed: " + path);
}

merged_observation merge_partial_observations(
    const std::vector<std::string>& paths) {
  validate(!paths.empty(), "merge_partial_observations: no files");
  merged_observation m;
  observation& obs = m.obs;
  bool first = true;
  for (const auto& path : paths) {
    std::ifstream f(path);
    validate(f.good(), "merge_partial_observations: cannot open " + path);
    std::string line;
    validate(std::getline(f, line) && line == magic,
             "merge_partial_observations: bad header in " + path);
    while (std::getline(f, line)) {
      std::istringstream is(line);
      std::string key;
      is >> key;
      if (key == "nodes") {
        std::size_t n = 0;
        is >> n;
        if (first) {
          obs.nodes = n;
          obs.delivery_logs = svc::delivery_logs(n);
          obs.sent_at.resize(n);
        } else {
          validate(obs.nodes == n,
                   "merge_partial_observations: node count disagrees");
        }
      } else if (key == "horizon") {
        std::int64_t v = 0;
        is >> v;
        obs.horizon = tp(v);
      } else if (key == "detect_bound") {
        std::int64_t v = 0;
        is >> v;
        obs.detect_bound = duration::nanoseconds(v);
      } else if (key == "recover_bound") {
        std::int64_t v = 0;
        is >> v;
        obs.recover_bound = duration::nanoseconds(v);
      } else if (key == "delivery_bound") {
        std::int64_t v = 0;
        is >> v;
        obs.delivery_bound = duration::nanoseconds(v);
      } else if (key == "skew_bound") {
        std::int64_t v = 0;
        is >> v;
        obs.skew_bound = duration::nanoseconds(v);
      } else if (key == "has_mode") {
        int v = 0;
        is >> v;
      } else if (key == "suspicion" || key == "recovery") {
        observation::suspicion s;
        std::int64_t at = 0;
        is >> s.observer >> s.subject >> at;
        s.at = tp(at);
        (key == "suspicion" ? obs.suspicions : obs.recoveries).push_back(s);
      } else if (key == "delivery") {
        node_id n = 0, origin = 0;
        std::uint64_t seq = 0;
        is >> n >> origin >> seq;
        validate(n < obs.delivery_logs.size(),
                 "merge_partial_observations: delivery node out of range");
        obs.delivery_logs.append(n, {origin, seq});
      } else if (key == "sent") {
        node_id n = 0;
        std::int64_t at = 0;
        is >> n >> at;
        validate(n < obs.sent_at.size(),
                 "merge_partial_observations: sent node out of range");
        obs.sent_at[n].push_back(tp(at));
      } else if (key == "order_faults") {
        std::uint64_t v = 0;
        is >> v;
        obs.order_faults += v;
      } else if (key == "deadline_misses") {
        std::size_t v = 0;
        is >> v;
        obs.deadline_misses += v;
      } else if (key == "trigger") {
        std::int64_t at = 0;
        is >> at;
        obs.trigger_events.push_back(tp(at));
      } else if (key == "final_mode") {
        int v = 0;
        is >> v;
        obs.final_mode = static_cast<svc::op_mode>(v);
      } else if (key == "mode_switch") {
        int from = 0, to = 0;
        std::int64_t at = 0;
        is >> from >> to >> at;
        obs.mode_switches.push_back({static_cast<svc::op_mode>(from),
                                     static_cast<svc::op_mode>(to), tp(at)});
      } else if (key == "skew_checked") {
        int v = 0;
        is >> v;
        obs.skew_checked = v != 0;
      } else if (key == "max_skew") {
        std::int64_t v = 0;
        is >> v;
        obs.max_skew = duration::nanoseconds(v);
      } else if (key == "x") {
        std::string rest;
        std::getline(is, rest);
        if (!rest.empty() && rest.front() == ' ') rest.erase(0, 1);
        m.extra.push_back(rest);
      } else if (!key.empty()) {
        throw error("merge_partial_observations: unknown key \"" + key +
                    "\" in " + path);
      }
      validate(!is.fail(), "merge_partial_observations: malformed line \"" +
                               line + "\" in " + path);
    }
    first = false;
  }
  // Records that name other records are checked once every file is in: a
  // delivery may name a message whose `sent` line another worker wrote.
  for (node_id n = 0; n < obs.delivery_logs.size(); ++n)
    for (const auto& [origin, seq] : obs.delivery_logs[n])
      validate(origin < obs.sent_at.size() && seq >= 1 &&
                   seq <= obs.sent_at[origin].size(),
               [&] {
                 return "merge_partial_observations: node " +
                        std::to_string(n) + " delivered (" +
                        std::to_string(origin) + ", " + std::to_string(seq) +
                        "), which no file sent";
               });
  auto check_nodes = [&](const std::vector<observation::suspicion>& events,
                         const char* what) {
    for (const auto& s : events)
      validate(s.observer < obs.nodes && s.subject < obs.nodes, [&] {
        return std::string("merge_partial_observations: ") + what +
               " between nodes " + std::to_string(s.observer) + " and " +
               std::to_string(s.subject) + " of " + std::to_string(obs.nodes);
      });
  };
  check_nodes(obs.suspicions, "suspicion");
  check_nodes(obs.recoveries, "recovery");
  sort_suspicions(obs.suspicions);
  sort_suspicions(obs.recoveries);
  std::sort(obs.trigger_events.begin(), obs.trigger_events.end());
  std::sort(obs.mode_switches.begin(), obs.mode_switches.end(),
            [](const auto& a, const auto& b) { return a.at < b.at; });
  return m;
}

}  // namespace hades::scenario
