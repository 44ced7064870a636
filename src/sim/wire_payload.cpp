#include "sim/wire_payload.hpp"

#include <iterator>
#include <vector>

#include "util/error.hpp"

namespace hades::sim {

namespace {

using detail::payload_block;

/// Payload byte capacities of the size classes. Chosen around what HADES
/// actually sends: clock-sync readings (16), control tokens and p2p frames
/// (32), broadcast envelopes and replication wire records (64), then
/// headroom for application payloads.
constexpr std::size_t class_sizes[] = {16, 32, 64, 128, 256, 512, 1024};
constexpr std::size_t num_classes = std::size(class_sizes);
constexpr std::size_t blocks_per_chunk = 256;

constexpr std::size_t stride_of(std::size_t cls) {
  return sizeof(payload_block) + class_sizes[cls];
}

/// One thread's pool. A free block keeps its free-list link in its payload
/// area.
struct pool {
  payload_block* free[num_classes] = {};
  std::vector<std::byte*> chunks;
  wire_payload::stats_t st;
  std::uint64_t heap_live = 0;  // oversize blocks currently handed out

  pool() = default;
  pool(const pool&) = delete;
  pool& operator=(const pool&) = delete;
  ~pool() {
    for (std::byte* c : chunks) ::operator delete(c);
  }

  void push(payload_block* b) {
    std::memcpy(b->data(), &free[b->size_class], sizeof(payload_block*));
    free[b->size_class] = b;
  }

  payload_block* pop(std::size_t cls) {
    payload_block* b = free[cls];
    if (b == nullptr) return grow(cls);
    std::memcpy(&free[cls], b->data(), sizeof(payload_block*));
    return b;
  }

  /// Carve one more chunk for `cls`: its first block is returned, the rest
  /// go on the free list. Growth stops once the pool matches the working
  /// set.
  payload_block* grow(std::size_t cls) {
    chunks.push_back(nullptr);  // the slot first: a failed push leaks nothing
    std::byte* base = chunks.back() = static_cast<std::byte*>(
        ::operator new(blocks_per_chunk * stride_of(cls)));
    ++st.chunk_allocs;
    for (std::size_t i = blocks_per_chunk; i-- > 0;) {
      auto* b = ::new (base + i * stride_of(cls)) payload_block{};
      b->size_class = static_cast<std::uint8_t>(cls);
      b->owner = this;
      if (i > 0) push(b);
    }
    return reinterpret_cast<payload_block*>(base);
  }
};

// The calling thread's pool, made on first use. A plain pointer stays
// readable after the thread's thread_local destructors have run, when the
// main thread's static destructors may still release payloads.
thread_local pool* t_pool = nullptr;

// Frees the thread's pool when the thread exits. A pool with live blocks is
// kept with its chunks: no later pool can take its address, so a late
// release fails the owner check instead of reading freed memory.
struct pool_reaper {
  pool_reaper() = default;
  pool_reaper(const pool_reaper&) = delete;
  pool_reaper& operator=(const pool_reaper&) = delete;
  ~pool_reaper() {
    const pool* p = t_pool;
    if (p == nullptr || p->st.pooled_live != 0 || p->heap_live != 0) return;
    delete p;
    t_pool = nullptr;
  }
};
thread_local pool_reaper t_reaper;

pool& local() {
  if (t_pool == nullptr) {
    t_pool = new pool;
    (void)&t_reaper;  // first use registers the reaper's destructor
  }
  return *t_pool;
}

}  // namespace

payload_block* detail::payload_pool::acquire(std::size_t bytes) {
  pool& p = local();
  std::size_t cls = 0;
  while (cls < num_classes && class_sizes[cls] < bytes) ++cls;
  if (cls == num_classes) {
    auto* b = ::new (::operator new(sizeof(payload_block) + bytes))
        payload_block{};
    b->on_heap = 1;
    b->owner = &p;
    ++p.st.oversize_allocs;
    ++p.heap_live;
    return b;
  }
  payload_block* b = p.pop(cls);
  b->refs = 1;
  ++p.st.pooled_live;
  return b;
}

void detail::payload_pool::release(payload_block* b) {
  pool* p = t_pool;
  require(b->owner == p,
          "wire_payload: block released on a thread that did not acquire it");
  if (b->on_heap != 0) {
    --p->heap_live;
    ::operator delete(b);
    return;
  }
  --p->st.pooled_live;
  p->push(b);
}

wire_payload::stats_t wire_payload::stats() noexcept {
  return t_pool != nullptr ? t_pool->st : stats_t{};
}

}  // namespace hades::sim
