#include "core/monitor.hpp"

#include <algorithm>
#include <memory>
#include <sstream>

namespace hades::core {

namespace {

bool before(const monitor_event& a, const monitor_event& b) {
  return a.at != b.at ? a.at < b.at : a.shard < b.shard;
}

}  // namespace

void monitor::record(monitor_event e) {
  e.shard = rt_ != nullptr ? rt_->executing_shard() : 0;
  if (!events_.empty() && before(e, events_.back())) sorted_ = false;
  if (listeners_.empty() && routed_.empty()) {
    events_.push_back(std::move(e));
    return;
  }
  // The log keeps a copy, whose strings are sized to fit however the
  // caller built them, and listeners are notified from the caller's event,
  // never from a reference into the vector: a synchronous listener may
  // re-enter record (dependency_tracker aborting instances records fresh
  // orphan events), and the resulting push_back would invalidate any
  // reference held across the callback.
  events_.push_back(e);
  if (routed_.empty() || rt_ == nullptr) {
    for (const auto& l : listeners_) l(e);
    for (const auto& r : routed_) r.fn(e);
    return;
  }
  // With routed listeners the caller's event moves into the block every
  // redelivery shares, so each scheduled closure is `this`, an index and a
  // shared_ptr: inline in the event core, and no copy of the listener.
  auto shared = std::make_shared<const monitor_event>(std::move(e));
  for (const auto& l : listeners_) l(*shared);
  // Redeliver on each home shard at a backend-independent date. One wire
  // frame per foreign home: the receiving process fans the event out to
  // every listener at that home, so duplicates would double-deliver.
  std::vector<node_id> forwarded_homes;
  for (std::size_t i = 0; i < routed_.size(); ++i) {
    const routed_listener& r = routed_[i];
    if (forwarder_ != nullptr) {
      const bool already =
          std::find(forwarded_homes.begin(), forwarded_homes.end(), r.home) !=
          forwarded_homes.end();
      if (already) continue;
      if (forwarder_(*shared, r.home, r.delay)) {
        forwarded_homes.push_back(r.home);
        continue;
      }
    }
    rt_->at_node(r.home, rt_->now() + r.delay,
                 [this, i, shared] { routed_[i].fn(*shared); });
  }
}

void monitor::deliver_forwarded(const monitor_event& e, node_id home) {
  if (rt_ == nullptr) {
    for (const auto& r : routed_)
      if (r.home == home) r.fn(e);
    return;
  }
  auto shared = std::make_shared<const monitor_event>(e);
  for (std::size_t i = 0; i < routed_.size(); ++i)
    if (routed_[i].home == home)
      rt_->at_node(home, rt_->now() + routed_[i].delay,
                   [this, i, shared] { routed_[i].fn(*shared); });
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
    os << "  [" << to_string(e.kind) << "] " << e.subject;
    if (!e.detail.empty()) os << " : " << e.detail;
    os << '\n';
  }
  return os.str();
}

}  // namespace hades::core
