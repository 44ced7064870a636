// Pooled, type-erased wire payload — the zero-allocation replacement for
// `std::any` on the simulated network's hot path (DESIGN.md, "Wire fast
// path").
//
// A `wire_payload` is a 16-byte handle {storage word, ops pointer}, so a
// `sim::message` stays small enough that the delivery closure fits the
// event pool's inline buffer (`event_callback::inline_capacity`) — putting
// a frame on the wire never pushes the event core onto its heap fallback.
// Two storage strategies sit behind the handle:
//
//   * inline  — trivially-copyable values of at most 8 bytes (heartbeat
//     counters, test ints) live in the storage word itself; copying the
//     handle copies the value, nothing is ever allocated;
//   * pooled  — larger values live in slab blocks drawn from striped
//     lock-free free lists (below) and are *shared by atomic refcount*:
//     copying the handle — which `network::broadcast` does once per
//     destination, and receivers do when they stash a message — bumps a
//     counter instead of deep-copying the value. Payloads are therefore
//     immutable once sent; receivers only ever observe `const T&`.
//
// The slab pool is the same preallocated-resource discipline as the event
// core (PR 1) applied to frames: fixed power-of-two size classes, blocks
// carved from chunks that are allocated once and recycled forever, free
// lists per (class, stripe) so the threads sharing the pool (campaign
// cells, the realtime receiver) rarely contend. Each free list is a
// Treiber stack over 32-bit *block indices* with a 32-bit ABA tag
// packed into one 64-bit CAS word — lock-free for any number of producers
// and consumers, which is what lets a payload allocated on one thread be
// released on another (the realtime socket receiver thread, campaign cells
// on a thread pool) without a lock anywhere on the steady-state path. Only
// chunk growth takes a mutex, and growth stops once the pool is warm;
// `wire_payload::stats()` exposes the growth counters so benches and tests
// can assert the steady state allocates nothing.
//
// Values bigger than the largest size class (or over-aligned beyond
// max_align_t) fall back to the heap, refcounted the same way, and are
// counted in `stats().oversize_allocs` — nothing HADES sends steady-state
// is oversized.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace hades::sim {

namespace detail {

/// Header preceding every pooled or heap payload block. 16 bytes, keeping
/// the value that follows aligned to max_align_t.
struct payload_block {
  std::atomic<std::uint32_t> refs{1};
  std::uint32_t index = 0;  // global block index within its size class
  // Free-list link (index + 1; 0 = end). Atomic because a racing pop may
  // read it while a concurrent push rewrites it; the ABA tag discards the
  // stale read (see pop() in wire_payload.cpp).
  std::atomic<std::uint32_t> next{0};
  std::uint8_t size_class = 0;
  std::uint8_t on_heap = 0;  // oversize fallback: free with operator delete
  std::uint16_t padding_ = 0;

  [[nodiscard]] void* data() noexcept { return this + 1; }
};
static_assert(sizeof(payload_block) == 16);

/// Striped lock-free slab pool, one free list per (size class, stripe).
class payload_pool {
 public:
  /// Payload byte capacities of the size classes. Chosen around what HADES
  /// actually sends: clock-sync readings (16), control tokens and p2p
  /// frames (32), broadcast envelopes and replication wire records (64),
  /// then headroom for application payloads.
  static constexpr std::size_t class_sizes[] = {16, 32, 64, 128, 256, 512, 1024};
  static constexpr std::size_t num_classes =
      sizeof(class_sizes) / sizeof(class_sizes[0]);
  static constexpr std::size_t max_pooled = class_sizes[num_classes - 1];

  /// Acquire a block whose payload area holds at least `bytes`, or nullptr
  /// when `bytes` exceeds every size class (caller falls back to the heap).
  static payload_block* acquire(std::size_t bytes);
  /// Return a block to its class's free list (refcount already at zero).
  static void release(payload_block* b) noexcept;

  struct pool_stats {
    std::uint64_t chunk_allocs = 0;    // slab growth events (warm-up only)
    std::uint64_t oversize_allocs = 0; // heap-fallback payloads
    std::uint64_t pooled_live = 0;     // blocks currently handed out
  };
  [[nodiscard]] static pool_stats stats() noexcept;

  static void count_oversize() noexcept;
};

}  // namespace detail

/// Type-erased, immutable-once-sent message payload. See file comment.
class wire_payload {
 public:
  constexpr wire_payload() noexcept = default;

  template <typename T>
    requires(!std::is_same_v<std::decay_t<T>, wire_payload>)
  wire_payload(T&& value) {  // NOLINT(google-explicit-constructor)
    emplace<std::decay_t<T>>(std::forward<T>(value));
  }

  wire_payload(const wire_payload& o) noexcept : word_(o.word_), ops_(o.ops_) {
    if (ops_ != nullptr && !ops_->is_inline)
      block()->refs.fetch_add(1, std::memory_order_relaxed);
  }
  wire_payload(wire_payload&& o) noexcept : word_(o.word_), ops_(o.ops_) {
    o.ops_ = nullptr;
  }
  wire_payload& operator=(const wire_payload& o) noexcept {
    if (this != &o) {
      wire_payload tmp(o);
      swap(tmp);
    }
    return *this;
  }
  wire_payload& operator=(wire_payload&& o) noexcept {
    if (this != &o) {
      reset();
      word_ = o.word_;
      ops_ = o.ops_;
      o.ops_ = nullptr;
    }
    return *this;
  }
  ~wire_payload() { reset(); }

  void swap(wire_payload& o) noexcept {
    std::swap(word_, o.word_);
    std::swap(ops_, o.ops_);
  }

  [[nodiscard]] bool has_value() const noexcept { return ops_ != nullptr; }
  [[nodiscard]] explicit operator bool() const noexcept { return has_value(); }

  /// Typed read access: the stored value if it is exactly a T, else nullptr
  /// (the `std::any_cast<T>(&payload)` idiom services demultiplex with).
  template <typename T>
  [[nodiscard]] const T* get() const noexcept {
    if (ops_ != &ops_for<T>) return nullptr;
    if constexpr (is_inline_v<T>)
      return std::launder(reinterpret_cast<const T*>(&word_));
    else
      return static_cast<const T*>(block()->data());
  }

  void reset() noexcept {
    if (ops_ == nullptr) return;
    if (!ops_->is_inline) {
      detail::payload_block* b = block();
      // Unique-ref fast path: observing 1 while holding a reference means
      // no other owner exists, so the block can be reclaimed without an
      // atomic RMW (the common unicast case).
      if (b->refs.load(std::memory_order_acquire) == 1 ||
          b->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        ops_->destroy(b->data());
        if (b->on_heap != 0) {
          b->~payload_block();
          ::operator delete(b);
        } else {
          detail::payload_pool::release(b);
        }
      }
    }
    ops_ = nullptr;
  }

  struct stats_t {
    std::uint64_t chunk_allocs = 0;
    std::uint64_t oversize_allocs = 0;
    std::uint64_t pooled_live = 0;
  };
  /// Pool growth / fallback counters: `chunk_allocs` and `oversize_allocs`
  /// stay flat across a warmed-up steady state — the zero-allocation
  /// assertion benches and tests gate on.
  [[nodiscard]] static stats_t stats() noexcept {
    const auto s = detail::payload_pool::stats();
    return {s.chunk_allocs, s.oversize_allocs, s.pooled_live};
  }

 private:
  template <typename T>
  static constexpr bool is_inline_v =
      std::is_trivially_copyable_v<T> && sizeof(T) <= sizeof(std::uint64_t) &&
      alignof(T) <= alignof(std::uint64_t);

  struct ops_t {
    void (*destroy)(void*) noexcept;
    bool is_inline;
  };

  template <typename T>
  static constexpr ops_t ops_for{
      [](void* p) noexcept {
        if constexpr (!std::is_trivially_destructible_v<T>)
          static_cast<T*>(p)->~T();
        else
          (void)p;
      },
      is_inline_v<T>};

  [[nodiscard]] detail::payload_block* block() const noexcept {
    detail::payload_block* b;
    std::memcpy(&b, &word_, sizeof b);
    return b;
  }

  template <typename T, typename V>
  void emplace(V&& value) {
    static_assert(alignof(T) <= alignof(std::max_align_t),
                  "wire_payload: over-aligned payload types are unsupported");
    if constexpr (is_inline_v<T>) {
      word_ = 0;
      ::new (static_cast<void*>(&word_)) T(std::forward<V>(value));
    } else {
      detail::payload_block* b = nullptr;
      if constexpr (sizeof(T) <= detail::payload_pool::max_pooled &&
                    alignof(T) <= alignof(std::max_align_t)) {
        b = detail::payload_pool::acquire(sizeof(T));
      }
      if (b == nullptr) {  // oversized or over-aligned: heap fallback
        void* raw = ::operator new(sizeof(detail::payload_block) + sizeof(T));
        b = ::new (raw) detail::payload_block{};
        b->on_heap = 1;
        detail::payload_pool::count_oversize();
      }
      try {
        ::new (b->data()) T(std::forward<V>(value));
      } catch (...) {
        if (b->on_heap != 0) {
          b->~payload_block();
          ::operator delete(b);
        } else {
          detail::payload_pool::release(b);
        }
        throw;
      }
      std::memcpy(&word_, &b, sizeof b);
    }
    ops_ = &ops_for<T>;
  }

  // 16 bytes: the value itself (inline path) or the block pointer (pooled
  // and heap paths), plus the per-type ops used for downcast and teardown.
  std::uint64_t word_ = 0;
  const ops_t* ops_ = nullptr;
};

static_assert(sizeof(wire_payload) == 16);
static_assert(std::is_nothrow_move_constructible_v<wire_payload>);

}  // namespace hades::sim
