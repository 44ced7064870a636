// Shard-partitioned append-only event log (DESIGN.md, "Shard confinement").
//
// The common machinery behind the observation sinks (`core::monitor`,
// `sim::trace_recorder`): one vector per shard, appends routed by
// `runtime::executing_shard()`, and a lazily-rebuilt merged view ordered by
// the deterministic key {time, shard, per-shard sequence}, so the merged
// order does not depend on the order a serial round runs its shards in.
// Query between runs, not from inside event handlers.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "sim/runtime.hpp"

namespace hades::sim {

/// `TimeOf` projects an entry to its date: `time_point operator()(const T&)`.
template <typename T, typename TimeOf>
class shard_log {
 public:
  shard_log() { parts_.push_back(std::make_unique<partition>()); }

  /// Attach to a runtime: grows one partition per shard and routes
  /// `append` by the executing shard. Call before the run starts.
  void bind(const hades::runtime& rt) {
    rt_ = &rt;
    while (parts_.size() < rt.shard_count())
      parts_.push_back(std::make_unique<partition>());
  }

  /// Append to the executing shard's partition. The returned reference is
  /// invalidated by any further append (including re-entrant ones) — copy
  /// before calling out.
  T& append(T v) {
    const std::uint32_t s = rt_ != nullptr ? rt_->executing_shard() : 0;
    auto& events = parts_[s]->events;
    events.push_back(std::move(v));
    return events.back();
  }

  /// Merged view over all partitions, ordered by {time, shard, sequence}.
  [[nodiscard]] const std::vector<T>& merged() const {
    std::size_t total = 0;
    for (const auto& p : parts_) total += p->events.size();
    if (total != merged_from_) {
      // Concatenate in shard order, then stable-sort on time alone: ties
      // keep concatenation order, i.e. exactly the {time, shard, per-shard
      // sequence} key (per-shard streams are already time-ordered — engine
      // time is monotonic within a shard).
      merged_.clear();
      merged_.reserve(total);
      for (const auto& p : parts_)
        merged_.insert(merged_.end(), p->events.begin(), p->events.end());
      std::stable_sort(merged_.begin(), merged_.end(),
                       [this](const T& a, const T& b) {
                         return time_of_(a) < time_of_(b);
                       });
      merged_from_ = total;
    }
    return merged_;
  }

  /// Order-independent scan (counters, filters that re-sort anyway).
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const auto& p : parts_)
      for (const T& e : p->events) fn(e);
  }

  void clear() {
    for (auto& p : parts_) p->events.clear();
    merged_.clear();
    merged_from_ = 0;
  }

 private:
  struct partition {
    std::vector<T> events;
  };

  TimeOf time_of_{};
  const hades::runtime* rt_ = nullptr;
  std::vector<std::unique_ptr<partition>> parts_;
  mutable std::vector<T> merged_;
  mutable std::size_t merged_from_ = 0;  // total size at last merge
};

}  // namespace hades::sim
