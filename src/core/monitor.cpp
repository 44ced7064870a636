#include "core/monitor.hpp"

#include <algorithm>
#include <sstream>

namespace hades::core {

namespace {

bool before(const monitor_event& a, const monitor_event& b) {
  return a.at != b.at ? a.at < b.at : a.shard < b.shard;
}

std::string node_name(node_id n) { return "node" + std::to_string(n); }

bool is_suspicion(monitor_event_kind k) {
  return k == monitor_event_kind::node_suspected ||
         k == monitor_event_kind::node_unsuspected;
}

}  // namespace

name_id monitor::intern(std::string_view text) {
  if (text.empty()) return no_name;
  if (const auto it = name_index_.find(text); it != name_index_.end())
    return it->second;
  const auto id = static_cast<name_id>(names_.size() + 1);
  const auto it = name_index_.emplace(std::string(text), id).first;
  names_.push_back(&it->first);
  return id;
}

std::string monitor::subject_text(const monitor_event& e) const {
  if (e.subject != no_name) return std::string(name(e.subject));
  switch (e.kind) {
    case monitor_event_kind::node_crash:
    case monitor_event_kind::node_recover:
      return node_name(e.node);
    case monitor_event_kind::node_suspected:
    case monitor_event_kind::node_unsuspected:
      return node_name(e.subject_node);
    default:
      return {};
  }
}

std::string monitor::detail_text(const monitor_event& e) const {
  if (e.detail != no_name) return std::string(name(e.detail));
  if (is_suspicion(e.kind)) return "observer " + node_name(e.node);
  return {};
}

void monitor::record(monitor_event e) {
  e.shard = rt_ != nullptr ? rt_->executing_shard() : 0;
  if (!events_.empty() && before(e, events_.back())) sorted_ = false;
  events_.push_back(e);
  // Listeners see `e`, never a reference into the vector: a synchronous
  // listener may re-enter record (dependency_tracker aborting instances
  // records fresh orphan events), and the resulting push_back would
  // invalidate any reference held across the callback.
  for (const auto& l : listeners_) l(e);
  // Redeliver on each home shard at a backend-independent date. One wire
  // frame per foreign home: the receiving process fans the event out to
  // every listener at that home that wants it, so duplicates would
  // double-deliver.
  std::vector<node_id> forwarded_homes;
  for (std::size_t i = 0; i < routed_.size(); ++i) {
    const routed_listener& r = routed_[i];
    if (!r.kinds.contains(e.kind)) continue;
    if (forwarder_ != nullptr) {
      const bool already =
          std::find(forwarded_homes.begin(), forwarded_homes.end(), r.home) !=
          forwarded_homes.end();
      if (already) continue;
      if (forwarder_(e, r.home, r.delay)) {
        forwarded_homes.push_back(r.home);
        continue;
      }
    }
    redeliver(i, e);
  }
}

void monitor::redeliver(std::size_t listener_index, const monitor_event& e) {
  const routed_listener& r = routed_[listener_index];
  if (rt_ == nullptr) {
    r.fn(e);
    return;
  }
  // `this`, an index and the 48-byte record: inline in the event core.
  rt_->at_node(r.home, rt_->now() + r.delay,
               [this, listener_index, e] { routed_[listener_index].fn(e); });
}

void monitor::deliver_forwarded(monitor_event e, std::string_view subject,
                                std::string_view detail, node_id home) {
  e.subject = intern(subject);
  e.detail = intern(detail);
  for (std::size_t i = 0; i < routed_.size(); ++i)
    if (routed_[i].home == home && routed_[i].kinds.contains(e.kind))
      redeliver(i, e);
}

const std::vector<monitor_event>& monitor::events() const {
  // Stable: equal {time, shard} keys keep append order, which is each
  // shard's own sequence.
  if (!sorted_) {
    std::stable_sort(events_.begin(), events_.end(), before);
    sorted_ = true;
  }
  return events_;
}

std::string monitor::render() const {
  std::ostringstream os;
  for (const auto& e : events()) {
    os << e.at.to_string() << "  n";
    if (e.node == invalid_node)
      os << '?';
    else
      os << e.node;
    os << "  [" << to_string(e.kind) << "] " << subject_text(e);
    const std::string detail = detail_text(e);
    if (!detail.empty()) os << " : " << detail;
    os << '\n';
  }
  return os.str();
}

}  // namespace hades::core
