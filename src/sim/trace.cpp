#include "sim/trace.hpp"

#include <algorithm>
#include <map>
#include <sstream>

namespace hades::sim {

std::string_view to_string(trace_kind k) {
  switch (k) {
    case trace_kind::thread_created: return "created";
    case trace_kind::thread_runnable: return "runnable";
    case trace_kind::thread_running: return "running";
    case trace_kind::thread_preempted: return "preempted";
    case trace_kind::thread_blocked: return "blocked";
    case trace_kind::thread_done: return "done";
    case trace_kind::thread_killed: return "killed";
    case trace_kind::notification: return "notification";
    case trace_kind::priority_change: return "priority-change";
    case trace_kind::earliest_change: return "earliest-change";
    case trace_kind::instance_activated: return "instance-activated";
    case trace_kind::instance_completed: return "instance-completed";
    case trace_kind::instance_aborted: return "instance-aborted";
    case trace_kind::message_sent: return "msg-sent";
    case trace_kind::message_delivered: return "msg-delivered";
    case trace_kind::service_event: return "service";
    case trace_kind::custom: return "custom";
  }
  return "?";
}

namespace {

bool before(const trace_event& a, const trace_event& b) {
  return a.t != b.t ? a.t < b.t : a.shard < b.shard;
}

}  // namespace

void trace_recorder::append(time_point t, node_id node, trace_kind kind,
                            std::string_view subject,
                            std::string_view detail) {
  trace_event e{t, node, kind, rt_ != nullptr ? rt_->executing_shard() : 0,
                std::string(subject), std::string(detail)};
  if (!events_.empty() && before(e, events_.back())) sorted_ = false;
  events_.push_back(std::move(e));
}

const std::vector<trace_event>& trace_recorder::events() const {
  // Stable: equal {time, shard} keys keep append order, which is each
  // shard's own sequence.
  if (!sorted_) {
    std::stable_sort(events_.begin(), events_.end(), before);
    sorted_ = true;
  }
  return events_;
}

std::vector<trace_event> trace_recorder::of_kind(trace_kind k) const {
  std::vector<trace_event> out;
  for (const auto& e : events())
    if (e.kind == k) out.push_back(e);
  return out;
}

std::vector<trace_event> trace_recorder::for_subject(
    std::string_view subject) const {
  std::vector<trace_event> out;
  for (const auto& e : events())
    if (e.subject == subject) out.push_back(e);
  return out;
}

std::string trace_recorder::render_log() const {
  std::ostringstream os;
  for (const auto& e : events()) {
    os << e.t.to_string() << "  n" << e.node << "  [" << to_string(e.kind)
       << "] " << e.subject;
    if (!e.detail.empty()) os << " : " << e.detail;
    os << '\n';
  }
  return os.str();
}

std::string trace_recorder::render_gantt(time_point t0, time_point t1,
                                         duration column) const {
  // Build running intervals per subject from the state-transition events.
  struct open_run {
    time_point start;
  };
  std::map<std::string, std::vector<std::pair<time_point, time_point>>> runs;
  std::map<std::string, open_run> open;

  for (const auto& e : events()) {
    if (e.kind == trace_kind::thread_running) {
      open[e.subject] = {e.t};
    } else if (e.kind == trace_kind::thread_preempted ||
               e.kind == trace_kind::thread_blocked ||
               e.kind == trace_kind::thread_done ||
               e.kind == trace_kind::thread_killed) {
      auto it = open.find(e.subject);
      if (it != open.end()) {
        runs[e.subject].emplace_back(it->second.start, e.t);
        open.erase(it);
      }
    }
  }
  for (const auto& [subject, o] : open) runs[subject].emplace_back(o.start, t1);

  std::size_t name_width = 8;
  for (const auto& [subject, r] : runs)
    name_width = std::max(name_width, subject.size());

  const auto span = t1 - t0;
  const auto cols =
      static_cast<std::size_t>(std::max<std::int64_t>(1, span.count() / std::max<std::int64_t>(1, column.count())));

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

}  // namespace hades::sim
