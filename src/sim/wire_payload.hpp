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
//   * pooled  — larger values live in slab blocks and are *shared by
//     refcount*: copying the handle — which `network::broadcast` does once
//     per destination, and receivers do when they stash a message — bumps
//     a counter instead of deep-copying the value. Payloads are therefore
//     immutable once sent; receivers only ever observe `const T&`.
//
// One thread owns each payload. Every backend runs a process's events on
// one thread, a campaign cell runs wholly on one pool thread, and the
// realtime socket transport hands received bytes to the engine thread,
// which decodes them there. So the slab pool is the calling thread's own:
// fixed power-of-two size classes, blocks carved 256 at a time from chunks
// the pool allocates once and recycles forever, one plain intrusive free
// list per class, and plain-integer refcounts and counters. A block
// records the pool that acquired it, and releasing it on any other thread
// fails `require` — always on, like every invariant (util/error.hpp). A
// thread's pool frees its chunks when the thread exits; one that still has
// live blocks then is kept instead, so a late release fails the check
// rather than reading freed memory.
//
// Values bigger than the largest size class fall back to the heap,
// refcounted and owned the same way, and are counted in
// `stats().oversize_allocs` — nothing HADES sends steady-state is
// oversized. `wire_payload::stats()` reports the calling thread's pool, so
// benches and tests read it on the thread that did the work and can assert
// that the steady state allocates nothing.
#pragma once

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
  std::uint32_t refs = 1;
  std::uint8_t size_class = 0;
  std::uint8_t on_heap = 0;  // oversize fallback: freed with operator delete
  std::uint16_t padding_ = 0;
  const void* owner = nullptr;  // the thread pool that acquired the block

  [[nodiscard]] void* data() noexcept { return this + 1; }
};
static_assert(sizeof(payload_block) == 16);

/// The calling thread's slab pool (see file comment).
struct payload_pool {
  /// A block with room for `bytes` and a refcount of 1: pooled up to the
  /// largest size class, a counted heap block above it.
  static payload_block* acquire(std::size_t bytes);
  /// Return a block whose refcount reached zero. Fails `require` unless the
  /// calling thread acquired it.
  static void release(payload_block* b);
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
    if (ops_ != nullptr && !ops_->is_inline) ++block()->refs;
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

  /// Drop this handle's reference. Releasing the last one on a thread that
  /// did not acquire the block terminates: the owner check throws here.
  void reset() noexcept {
    if (ops_ == nullptr) return;
    if (!ops_->is_inline) {
      detail::payload_block* b = block();
      if (--b->refs == 0) {
        ops_->destroy(b->data());
        detail::payload_pool::release(b);
      }
    }
    ops_ = nullptr;
  }

  struct stats_t {
    std::uint64_t chunk_allocs = 0;     // slab growth events (warm-up only)
    std::uint64_t oversize_allocs = 0;  // heap-fallback payloads
    std::uint64_t pooled_live = 0;      // pooled blocks currently handed out
  };
  /// The calling thread's pool counters: `chunk_allocs` and
  /// `oversize_allocs` stay flat across a warmed-up steady state — the
  /// zero-allocation assertion benches and tests gate on.
  [[nodiscard]] static stats_t stats() noexcept;

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
      detail::payload_block* b = detail::payload_pool::acquire(sizeof(T));
      try {
        ::new (b->data()) T(std::forward<V>(value));
      } catch (...) {
        detail::payload_pool::release(b);
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
