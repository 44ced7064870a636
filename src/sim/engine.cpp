#include "sim/engine.hpp"

#include <algorithm>

namespace hades::sim {

// --- pool ------------------------------------------------------------------

std::uint32_t engine::alloc_slot() {
  if (free_head_ == npos) {
    require(slabs_.size() < npos / slab_size, "engine: event pool exhausted");
    auto slab = std::make_unique<slot[]>(slab_size);
    const auto base = static_cast<std::uint32_t>(slabs_.size() * slab_size);
    for (std::size_t k = slab_size; k-- > 0;) {
      slab[k].next = free_head_;
      free_head_ = base + static_cast<std::uint32_t>(k);
    }
    slabs_.push_back(std::move(slab));
  }
  const std::uint32_t i = free_head_;
  slot& s = slot_at(i);
  free_head_ = s.next;
  s.next = npos;
  return i;
}

void engine::free_slot(std::uint32_t i) {
  slot& s = slot_at(i);
  s.fn.reset();
  ++s.gen;
  s.live = false;
  s.lane = false;
  s.next = free_head_;
  free_head_ = i;
}

// --- 4-ary ready heap ------------------------------------------------------

void engine::push_rec(time_point t, std::uint32_t slot, std::uint32_t gen) {
  heap_.push_back(heap_rec{t, next_seq_++, slot, gen});
  sift_up(heap_.size() - 1);
}

void engine::pop_rec() {
  heap_[0] = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) sift_down(0);
}

void engine::sift_up(std::size_t i) {
  const heap_rec tmp = heap_[i];
  while (i > 0) {
    const std::size_t parent = (i - 1) / 4;
    if (!sooner(tmp, heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = tmp;
}

void engine::sift_down(std::size_t i) {
  const std::size_t n = heap_.size();
  const heap_rec tmp = heap_[i];
  for (;;) {
    const std::size_t first_child = 4 * i + 1;
    if (first_child >= n) break;
    std::size_t best = first_child;
    const std::size_t last = std::min(first_child + 4, n);
    for (std::size_t c = first_child + 1; c < last; ++c)
      if (sooner(heap_[c], heap_[best])) best = c;
    if (!sooner(heap_[best], tmp)) break;
    heap_[i] = heap_[best];
    i = best;
  }
  heap_[i] = tmp;
}

void engine::compact() {
  std::size_t out = 0;
  for (const heap_rec& r : heap_)
    if (slot_at(r.slot).gen == r.gen) heap_[out++] = r;
  heap_.resize(out);
  stale_ = 0;
  ++compactions_;
  if (heap_.size() >= 2)
    for (std::size_t i = (heap_.size() - 2) / 4 + 1; i-- > 0;) sift_down(i);
}

const engine::heap_rec* engine::peek_valid() {
  while (!heap_.empty()) {
    const heap_rec& top = heap_[0];
    if (slot_at(top.slot).gen == top.gen) return &heap_[0];
    pop_rec();
    --stale_;  // the cancel that left this record counted it
  }
  return nullptr;
}

// --- same-instant lane -----------------------------------------------------

bool engine::lane_ready() {
  while (lane_head_ != npos) {
    const std::uint32_t i = lane_head_;
    const slot& s = slot_at(i);
    if (s.live) return true;
    lane_head_ = s.next;
    free_slot(i);  // cancelled while queued
  }
  lane_tail_ = npos;
  return false;
}

std::uint32_t engine::pop_due(time_point limit) {
  if (lane_ready()) {
    // A live heap record dated now_ was scheduled before the clock reached
    // now_, so it runs before the whole lane. The raw top's date settles
    // the common case without reading its slot.
    const bool heap_first = !heap_.empty() && heap_[0].t == now_ &&
                            peek_valid() != nullptr && heap_[0].t == now_;
    if (!heap_first) {
      if (now_ > limit) return npos;
      const std::uint32_t i = lane_head_;
      lane_head_ = slot_at(i).next;
      if (lane_head_ == npos) lane_tail_ = npos;
      return i;
    }
  }
  const heap_rec* top = peek_valid();
  if (top == nullptr || top->t > limit) return npos;
  now_ = top->t;
  const std::uint32_t i = top->slot;
  pop_rec();
  return i;
}

time_point engine::peek_time() {
  if (lane_ready()) return now_;
  const heap_rec* top = peek_valid();
  return top != nullptr ? top->t : time_point::infinity();
}

// --- scheduling ------------------------------------------------------------

event_id engine::at(time_point t, event_fn fn) {
  require(!t.is_infinite(), "engine::at: cannot schedule at infinity");
  require(t >= now_, "engine::at: cannot schedule in the past");
  require(static_cast<bool>(fn), "engine::at: empty event function");
  const std::uint32_t s = alloc_slot();
  slot& sl = slot_at(s);
  sl.fn = std::move(fn);
  sl.live = true;
  if (t == now_) {
    // Same-instant lane: FIFO is scheduling order, which is {time, seq}
    // order here. The sequence still advances so heap keys stay unchanged.
    sl.lane = true;
    ++next_seq_;
    (lane_tail_ == npos ? lane_head_ : slot_at(lane_tail_).next) = s;
    lane_tail_ = s;
  } else {
    push_rec(t, s, sl.gen);
  }
  ++live_;
  return id_of(s, sl.gen);
}

void engine::cancel(event_id id) {
  if (id.value == 0) return;
  const auto slot_idx = static_cast<std::uint32_t>((id.value >> 32) - 1);
  const auto gen = static_cast<std::uint32_t>(id.value & 0xFFFFFFFFu);
  if (slot_idx >= slabs_.size() * slab_size) return;
  slot& s = slot_at(slot_idx);
  if (!s.live || s.gen != gen) return;
  --live_;
  if (s.lane) {
    // The lane still links the slot: drop the closure and the id now, and
    // free the slot when the lane reaches it. No heap record turns stale.
    s.fn.reset();
    ++s.gen;
    s.live = false;
    return;
  }
  // A live event's record is still in the heap: it turns stale.
  free_slot(slot_idx);
  ++stale_;
  if (stale_ > 64 && stale_ * 2 > heap_.size()) compact();
}

// --- execution -------------------------------------------------------------

event_fn engine::claim(std::uint32_t i) {
  event_fn fn = std::move(slot_at(i).fn);
  free_slot(i);
  --live_;
  ++executed_;
  return fn;
}

void engine::fire(std::uint32_t i) {
  const bool was_in_event = in_event_;
  in_event_ = true;
  struct reset {
    bool* flag;
    bool prev;
    ~reset() { *flag = prev; }
  } guard{&in_event_, was_in_event};
  claim(i)();
}

event_fn engine::take_due(time_point limit) {
  const std::uint32_t i = pop_due(limit);
  if (i == npos) return nullptr;
  return claim(i);
}

bool engine::step() {
  const std::uint32_t i = pop_due(time_point::infinity());
  if (i == npos) return false;
  fire(i);
  return true;
}

std::size_t engine::run_until(time_point t) {
  std::size_t n = 0;
  for (std::uint32_t i; (i = pop_due(t)) != npos; ++n) fire(i);
  if (!t.is_infinite() && t > now_) now_ = t;
  return n;
}

std::size_t engine::run(std::size_t max_events) {
  std::size_t n = 0;
  while (n < max_events && step()) ++n;
  return n;
}

engine::pool_stats engine::pool() const {
  pool_stats st;
  st.slabs = slabs_.size();
  st.slots = slabs_.size() * slab_size;
  st.live_events = live_;
  st.heap_records = heap_.size();
  st.stale_records = stale_;
  st.compactions = compactions_;
  return st;
}

std::unique_ptr<runtime> make_engine() { return std::make_unique<engine>(); }

}  // namespace hades::sim
