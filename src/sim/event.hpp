// Event vocabulary types shared by the runtime interface and its backends.
//
// `event_id` is a generation-counted handle: the low 32 bits are a
// generation counter, the high 32 bits a pool-slot index (+1 so that the
// all-zero id stays invalid). A slot's generation is bumped every time the
// slot is freed, so a stale handle (already fired, already cancelled) can
// never alias a newer event occupying the same slot — this is what makes
// `runtime::cancel` O(1) and idempotent with no tombstone bookkeeping.
//
// `event_callback` is a move-only callable with inline storage sized for
// the closures HADES actually schedules (a `this` pointer plus a few ids).
// Closures that fit are stored in place — scheduling them performs no heap
// allocation — while oversized closures fall back to the heap and are
// counted, so tests can assert the steady state allocates nothing.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <utility>

namespace hades::sim {

/// Opaque handle allowing cancellation of a scheduled event.
struct event_id {
  std::uint64_t value = 0;
  friend constexpr bool operator==(event_id, event_id) = default;
};

inline constexpr event_id invalid_event{0};

/// Move-only `void()` callable with small-buffer storage.
class event_callback {
 public:
  static constexpr std::size_t inline_capacity = 64;

  event_callback() noexcept = default;
  event_callback(std::nullptr_t) noexcept {}  // NOLINT: an empty callback

  template <typename F>
    requires(!std::is_same_v<std::decay_t<F>, event_callback> &&
             std::is_invocable_r_v<void, std::decay_t<F>&>)
  event_callback(F&& f) {  // NOLINT(google-explicit-constructor)
    emplace(std::forward<F>(f));
  }

  event_callback(event_callback&& o) noexcept { move_from(o); }
  event_callback& operator=(event_callback&& o) noexcept {
    if (this != &o) {
      reset();
      move_from(o);
    }
    return *this;
  }
  event_callback(const event_callback&) = delete;
  event_callback& operator=(const event_callback&) = delete;
  ~event_callback() { reset(); }

  void operator()() { vt_->invoke(ptr()); }

  [[nodiscard]] explicit operator bool() const noexcept {
    return vt_ != nullptr;
  }

  void reset() noexcept {
    if (vt_ != nullptr) {
      vt_->destroy(ptr());
      vt_ = nullptr;
      heap_ = nullptr;
    }
  }

  /// Process-wide count of closures that were too big for the inline buffer
  /// and hit the heap. Zero in a warmed-up simulation. Atomic: campaign
  /// cells on a thread pool and the realtime receiver thread schedule
  /// concurrently.
  [[nodiscard]] static std::uint64_t heap_allocations() noexcept {
    return heap_allocs_.load(std::memory_order_relaxed);
  }

 private:
  struct vtable {
    void (*invoke)(void*);
    void (*relocate)(void* src, void* dst) noexcept;  // null when on heap
    void (*destroy)(void*) noexcept;
    bool on_heap;
  };

  template <typename D>
  static const vtable* inline_vtable() noexcept {
    static constexpr vtable vt{
        [](void* p) { (*static_cast<D*>(p))(); },
        [](void* src, void* dst) noexcept {
          ::new (dst) D(std::move(*static_cast<D*>(src)));
          static_cast<D*>(src)->~D();
        },
        [](void* p) noexcept { static_cast<D*>(p)->~D(); },
        false};
    return &vt;
  }

  template <typename D>
  static const vtable* heap_vtable() noexcept {
    static constexpr vtable vt{[](void* p) { (*static_cast<D*>(p))(); },
                               nullptr,
                               [](void* p) noexcept { delete static_cast<D*>(p); },
                               true};
    return &vt;
  }

  [[nodiscard]] void* ptr() noexcept {
    return heap_ != nullptr ? heap_ : static_cast<void*>(buf_);
  }

  template <typename F>
  void emplace(F&& f) {
    using D = std::decay_t<F>;
    if constexpr (sizeof(D) <= inline_capacity &&
                  alignof(D) <= alignof(std::max_align_t) &&
                  std::is_nothrow_move_constructible_v<D>) {
      ::new (static_cast<void*>(buf_)) D(std::forward<F>(f));
      vt_ = inline_vtable<D>();
    } else {
      heap_ = new D(std::forward<F>(f));
      heap_allocs_.fetch_add(1, std::memory_order_relaxed);
      vt_ = heap_vtable<D>();
    }
  }

  void move_from(event_callback& o) noexcept {
    vt_ = o.vt_;
    if (vt_ == nullptr) return;
    if (vt_->on_heap) {
      heap_ = o.heap_;
    } else {
      vt_->relocate(o.buf_, buf_);
    }
    o.vt_ = nullptr;
    o.heap_ = nullptr;
  }

  alignas(std::max_align_t) unsigned char buf_[inline_capacity];
  void* heap_ = nullptr;
  const vtable* vt_ = nullptr;
  static inline std::atomic<std::uint64_t> heap_allocs_{0};
};

using event_fn = event_callback;

/// Parameter type of `runtime::open_batch`, `batch_add` and `commit`, which
/// every backend rejects. It carries nothing and goes with them.
struct event_batch {};

}  // namespace hades::sim
