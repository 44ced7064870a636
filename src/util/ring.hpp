// Growable FIFO ring for the simulated kernel's per-event queues.
//
// A power-of-two circular buffer: push at the tail, pop at the head, and
// grow by doubling (the queued elements move over in FIFO order) when full.
// It never shrinks, so once a run has reached its high-water mark every
// push and pop reuses storage. Unlike std::deque, an empty ring owns no
// heap block, so a per-node member costs nothing until the node first
// queues something.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "util/error.hpp"

namespace hades {

template <typename T>
class ring_fifo {
 public:
  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t size() const { return size_; }

  void push_back(T v) {
    if (size_ == slots_.size()) grow();
    slots_[(head_ + size_) & (slots_.size() - 1)] = std::move(v);
    ++size_;
  }

  /// Move the head element out. Its slot is reset to `T{}` so the ring
  /// holds no resource (payload refcount, closure) past the pop.
  T pop_front() {
    require(size_ > 0, "ring_fifo: pop from an empty ring");
    T out = std::move(slots_[head_]);
    slots_[head_] = T{};
    head_ = (head_ + 1) & (slots_.size() - 1);
    --size_;
    return out;
  }

  /// Drop every element; the storage stays for reuse.
  void clear() {
    while (size_ > 0) (void)pop_front();
    head_ = 0;
  }

 private:
  void grow() {
    std::vector<T> next(slots_.empty() ? 4 : 2 * slots_.size());
    for (std::size_t i = 0; i < size_; ++i)
      next[i] = std::move(slots_[(head_ + i) & (slots_.size() - 1)]);
    slots_ = std::move(next);
    head_ = 0;
  }

  std::vector<T> slots_;  // size is zero or a power of two
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace hades
