#include "core/monitor.hpp"

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <sstream>
#include <utility>

#include "util/error.hpp"

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

void monitor_log::block_free::operator()(monitor_event* block) const noexcept {
  std::allocator<monitor_event>{}.deallocate(block, records);
}

void monitor_log::add_block() {
  const std::size_t records =
      blocks_.empty() ? first_block_records : block_records;
  // Uninitialized storage: `push_back` copy-constructs each record in place.
  block b(std::allocator<monitor_event>{}.allocate(records),
          block_free{records});
  blocks_.push_back(std::move(b));
  capacity_ += records;
}

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

void monitor::append(monitor_event& e) {
  const std::uint32_t shard = rt_ != nullptr ? rt_->executing_shard() : 0;
  // The sharded backend caps at 64 shards; the realtime backend tags the
  // process index.
  require(shard <= UINT16_MAX, "monitor: shard index exceeds 16 bits");
  e.shard = static_cast<std::uint16_t>(shard);
  if (!events_.empty() && before(e, events_.back())) sorted_ = false;
  events_.push_back(e);
}

void monitor::trace(time_point at, node_id node, monitor_event_kind kind,
                    std::string_view subject, std::string_view detail) {
  if (!tracing_) return;
  monitor_event e;
  e.kind = kind;
  e.at = at;
  e.node = node;
  e.subject = intern(subject);
  e.detail = intern(detail);
  append(e);
}

void monitor::record(monitor_event e) {
  require(!traced_kinds.contains(e.kind),
          "monitor::record: trace kinds enter through monitor::trace");
  append(e);
  // Listeners see `e`, never the log's copy: blocks never move, but
  // `events()` sorts the log in place. A synchronous listener may re-enter
  // record (dependency_tracker aborting instances records fresh orphan
  // events).
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
  // `this`, an index and the 40-byte record (56 bytes): inline in the
  // event core.
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

const monitor_log& monitor::events() const {
  // Stable: equal {time, shard} keys keep append order, which is each
  // shard's own sequence.
  if (!sorted_) {
    std::stable_sort(events_.begin(), events_.end(), before);
    sorted_ = true;
  }
  return events_;
}

std::string monitor::render(kind_set kinds) const {
  std::ostringstream os;
  for (const auto& e : events()) {
    if (!kinds.contains(e.kind)) continue;
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

std::string monitor::render_gantt(time_point t0, time_point t1,
                                  duration column) const {
  // Running intervals per subject, from the thread state transitions.
  // Subjects are name-table views, which stay valid as long as the monitor.
  std::map<std::string_view, std::vector<std::pair<time_point, time_point>>>
      runs;
  std::map<std::string_view, time_point> open;
  for (const auto& e : events()) {
    const std::string_view subject = name(e.subject);
    if (e.kind == monitor_event_kind::thread_running) {
      open[subject] = e.at;
    } else if (e.kind == monitor_event_kind::thread_preempted ||
               e.kind == monitor_event_kind::thread_blocked ||
               e.kind == monitor_event_kind::thread_done ||
               e.kind == monitor_event_kind::thread_killed) {
      auto it = open.find(subject);
      if (it != open.end()) {
        runs[subject].emplace_back(it->second, e.at);
        open.erase(it);
      }
    }
  }
  for (const auto& [subject, start] : open)
    runs[subject].emplace_back(start, t1);

  std::size_t name_width = 8;
  for (const auto& [subject, r] : runs)
    name_width = std::max(name_width, subject.size());

  const auto span = t1 - t0;
  const auto cols = static_cast<std::size_t>(std::max<std::int64_t>(
      1, span.count() / std::max<std::int64_t>(1, column.count())));

  std::ostringstream os;
  os << std::string(name_width + 2, ' ') << t0.to_string() << " ... "
     << t1.to_string() << "  (one column = " << column.to_string() << ")\n";
  for (const auto& [subject, intervals] : runs) {
    std::string row(cols, '.');
    bool any = false;
    for (const auto& [s, e] : intervals) {
      const auto from = std::max(s, t0);
      const auto to = std::min(e, t1);
      if (to <= from) continue;
      any = true;
      auto c0 = static_cast<std::size_t>((from - t0).count() / column.count());
      auto c1 = static_cast<std::size_t>((to - t0).count() / column.count());
      c0 = std::min(c0, cols - 1);
      c1 = std::min(std::max(c1, c0 + 1), cols);
      for (std::size_t c = c0; c < c1; ++c) row[c] = '#';
    }
    if (!any) continue;  // subject never ran inside the window
    os << subject << std::string(name_width - subject.size() + 2, ' ') << row
       << '\n';
  }
  return os.str();
}

}  // namespace hades::core
