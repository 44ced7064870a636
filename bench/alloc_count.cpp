#include "bench/alloc_count.hpp"

#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <new>

namespace {

// Relaxed loads and stores, not read-modify-writes: a locked increment per
// call would add ~15 ns to every new/delete pair on the paths the benches
// time. The binaries that link this allocate from one thread, so no count
// is lost; the atomics only keep a stray concurrent allocation free of
// data races.
std::atomic<std::uint64_t> g_calls{0};
std::atomic<std::uint64_t> g_live{0};
std::atomic<std::uint64_t> g_peak{0};

void add(std::atomic<std::uint64_t>& counter, std::uint64_t v) {
  counter.store(counter.load(std::memory_order_relaxed) + v,
                std::memory_order_relaxed);
}

void* counted(void* p) {
  add(g_calls, 1);
  if (p == nullptr) return nullptr;
  add(g_live, malloc_usable_size(p));
  const std::uint64_t live = g_live.load(std::memory_order_relaxed);
  if (live > g_peak.load(std::memory_order_relaxed))
    g_peak.store(live, std::memory_order_relaxed);
  return p;
}

void* plain(std::size_t size) noexcept {
  return counted(std::malloc(size == 0 ? 1 : size));
}

void* aligned(std::size_t size, std::align_val_t al) noexcept {
  const std::size_t a = std::max(static_cast<std::size_t>(al), sizeof(void*));
  void* p = nullptr;
  if (posix_memalign(&p, a, size == 0 ? a : size) != 0) p = nullptr;
  return counted(p);
}

void* or_throw(void* p) {
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void release(void* p) noexcept {
  if (p == nullptr) return;
  g_live.store(g_live.load(std::memory_order_relaxed) - malloc_usable_size(p),
               std::memory_order_relaxed);
  std::free(p);
}

}  // namespace

namespace hades::alloc_count {

std::uint64_t calls() { return g_calls.load(std::memory_order_relaxed); }
std::uint64_t live_bytes() { return g_live.load(std::memory_order_relaxed); }
std::uint64_t peak_bytes() { return g_peak.load(std::memory_order_relaxed); }
void reset_peak() { g_peak.store(live_bytes(), std::memory_order_relaxed); }

}  // namespace hades::alloc_count

void* operator new(std::size_t n) { return or_throw(plain(n)); }
void* operator new[](std::size_t n) { return or_throw(plain(n)); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return plain(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return plain(n);
}
void* operator new(std::size_t n, std::align_val_t al) {
  return or_throw(aligned(n, al));
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return or_throw(aligned(n, al));
}
void* operator new(std::size_t n, std::align_val_t al,
                   const std::nothrow_t&) noexcept {
  return aligned(n, al);
}
void* operator new[](std::size_t n, std::align_val_t al,
                     const std::nothrow_t&) noexcept {
  return aligned(n, al);
}

void operator delete(void* p) noexcept { release(p); }
void operator delete[](void* p) noexcept { release(p); }
void operator delete(void* p, std::size_t) noexcept { release(p); }
void operator delete[](void* p, std::size_t) noexcept { release(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { release(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  release(p);
}
void operator delete(void* p, std::align_val_t) noexcept { release(p); }
void operator delete[](void* p, std::align_val_t) noexcept { release(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  release(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  release(p);
}
void operator delete(void* p, std::align_val_t, const std::nothrow_t&) noexcept {
  release(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  release(p);
}
