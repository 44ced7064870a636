// The one counting global allocator of the allocation gates.
//
// Linking `bench/alloc_count.cpp` into an executable (CMake target
// `hades_alloc_count`) replaces every replaceable global operator new and
// delete form with a thin wrapper around malloc/free: scalar, array,
// aligned and nothrow, and their combinations. Each call of any new form
// counts once, and the bytes the allocator really holds for a block
// (malloc_usable_size, not the request) count as live until it is freed.
// Every form stays on malloc/free, so no pairing of a new form with a
// delete form can mismatch, under ASan or without it.
//
// The counters are process-wide and exact as long as one thread allocates
// at a time, which holds in every binary that links this. Only the
// allocation gates link it: replacing operator new also switches off
// ASan's new/delete mismatch checks in that binary, and nothing under src/
// may define one (the benchmark library compiles every src/ file).
#pragma once

#include <cstdint>

namespace hades::alloc_count {

/// Calls of any global operator new form since the process started.
[[nodiscard]] std::uint64_t calls();
/// Bytes held by the blocks operator new handed out and delete has not
/// taken back.
[[nodiscard]] std::uint64_t live_bytes();
/// The highest live_bytes() since the last reset_peak().
[[nodiscard]] std::uint64_t peak_bytes();
/// Restart the peak from the current live bytes.
void reset_peak();

/// The operator new calls `phase()` makes.
template <typename F>
std::uint64_t calls_during(F&& phase) {
  const std::uint64_t before = calls();
  phase();
  return calls() - before;
}

}  // namespace hades::alloc_count
