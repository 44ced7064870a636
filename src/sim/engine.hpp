// Discrete-event simulation engine: the pooled backend of hades::runtime.
//
// This is the substrate that replaces the paper's Pentium/ATM testbed (see
// DESIGN.md, substitution table). It provides a deterministic, totally
// ordered event timeline: events scheduled at the same instant fire in the
// order they were scheduled, so every run of a HADES experiment is exactly
// reproducible.
//
// Storage design (DESIGN.md, "Event pool"). There is one event kind, the
// dated one-shot event; periodic work is a `periodic_at_node` chain of them.
//   * events live in slab-allocated pool slots reached through a free list
//     — after warm-up, scheduling allocates nothing;
//   * the ready structure is a 4-ary min-heap of 24-byte
//     {time, seq, slot, gen} records — no closures move during sift;
//   * an event dated now() skips the heap: it joins the same-instant lane,
//     a FIFO threaded through the slots' free-list links. Every heap record
//     dated now() was scheduled before the clock reached now(), so running
//     those first and then the lane is exactly the {time, seq} order;
//   * cancellation bumps the slot's generation and frees it immediately
//     (O(1), no tombstone sets); the heap record becomes stale and is
//     dropped lazily on pop, with a compaction pass once stale records
//     outnumber live ones so long cancel-heavy runs stay bounded. A
//     cancelled lane slot drops its closure at once and is freed when the
//     lane reaches it.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "sim/runtime.hpp"
#include "util/error.hpp"
#include "util/time.hpp"

namespace hades::sim {

class engine final : public runtime {
 public:
  engine() = default;

  // --- runtime interface ---------------------------------------------------
  [[nodiscard]] time_point now() const override { return now_; }
  event_id at(time_point t, event_fn fn) override;
  /// Single engine: the placement hint is moot, so skip the base class's
  /// second virtual dispatch through `at` (the wire schedules one delivery
  /// per message through here).
  event_id at_node(node_id, time_point t, event_fn fn) override {
    return at(t, std::move(fn));
  }
  void cancel(event_id id) override;

  bool step() override;
  std::size_t run_until(time_point t) override;
  std::size_t run(std::size_t max_events = 100'000'000) override;

  [[nodiscard]] bool empty() const override { return live_ == 0; }
  [[nodiscard]] std::size_t pending() const override { return live_; }
  [[nodiscard]] std::uint64_t executed() const override { return executed_; }
  /// True while an event callback is on the stack. The single engine must
  /// report this honestly: core::system routes in-event cross-node effects
  /// (condition tokens, activation placement) by this flag, and the dates
  /// those routes produce must be identical on every backend.
  [[nodiscard]] bool in_event_context() const override { return in_event_; }

  /// Timestamp of the next pending event (now() while the same-instant lane
  /// holds work), or infinity when idle. Skims cancelled records and lane
  /// slots off the front as a side effect — used by the sharded backend to
  /// compute the conservative horizon and by the realtime backend's wait.
  [[nodiscard]] time_point peek_time();

  /// Unlink the next event dated <= `limit`, move the clock to its date,
  /// count it as executed and hand its callback to the caller, who runs
  /// it; empty when none is due. The realtime backend runs the callback
  /// with its own lock released.
  [[nodiscard]] event_fn take_due(time_point limit);

  // --- pool observability ---------------------------------------------------
  struct pool_stats {
    std::size_t slabs = 0;          // slabs ever allocated
    std::size_t slots = 0;          // total pooled slots
    std::size_t live_events = 0;    // scheduled, not cancelled/fired
    std::size_t heap_records = 0;   // ready-heap entries, stale included
    std::size_t stale_records = 0;  // entries awaiting lazy purge
    std::size_t compactions = 0;    // stale-purge passes performed
  };
  [[nodiscard]] pool_stats pool() const;

 private:
  static constexpr std::uint32_t npos = 0xFFFFFFFFu;
  static constexpr std::size_t slab_size = 256;

  struct slot {
    event_fn fn;
    std::uint32_t gen = 1;
    std::uint32_t next = npos;  // free-list link, or same-instant lane link
    bool live = false;          // scheduled, not yet fired or cancelled
    bool lane = false;          // linked into the same-instant lane
  };

  // Ready-heap record. Closures never move during sift — only these 24-byte
  // records do.
  struct heap_rec {
    time_point t;
    std::uint64_t seq;
    std::uint32_t slot;
    std::uint32_t gen;
  };

  static bool sooner(const heap_rec& a, const heap_rec& b) {
    if (a.t != b.t) return a.t < b.t;
    return a.seq < b.seq;
  }

  [[nodiscard]] slot& slot_at(std::uint32_t i) {
    return slabs_[i / slab_size][i % slab_size];
  }
  [[nodiscard]] const slot& slot_at(std::uint32_t i) const {
    return slabs_[i / slab_size][i % slab_size];
  }

  static event_id id_of(std::uint32_t slot, std::uint32_t gen) {
    return event_id{(static_cast<std::uint64_t>(slot) + 1) << 32 | gen};
  }

  std::uint32_t alloc_slot();
  void free_slot(std::uint32_t i);

  void push_rec(time_point t, std::uint32_t slot, std::uint32_t gen);
  void pop_rec();
  void sift_up(std::size_t i);
  void sift_down(std::size_t i);
  void compact();

  /// Drop stale records off the top; return the next live record, or null.
  const heap_rec* peek_valid();
  /// Free cancelled slots off the lane head; true while a live one waits.
  bool lane_ready();
  /// Unlink the next event dated <= `limit` in {time, seq} order and move
  /// the clock to its date; npos when none is due.
  std::uint32_t pop_due(time_point limit);

  /// Free a just-unlinked slot, count its event as executed, and return
  /// its callback.
  event_fn claim(std::uint32_t slot);
  /// Execute the event held by a just-unlinked slot.
  void fire(std::uint32_t slot);

  std::vector<std::unique_ptr<slot[]>> slabs_;
  std::vector<heap_rec> heap_;
  std::uint32_t free_head_ = npos;
  std::uint32_t lane_head_ = npos;  // same-instant lane, all dated now_
  std::uint32_t lane_tail_ = npos;
  bool in_event_ = false;  // an event callback is on the stack
  std::size_t live_ = 0;
  std::size_t stale_ = 0;
  std::size_t compactions_ = 0;
  time_point now_ = time_point::zero();
  std::uint64_t next_seq_ = 1;
  std::uint64_t executed_ = 0;
};

}  // namespace hades::sim
