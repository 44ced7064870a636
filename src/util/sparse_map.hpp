// Open-addressed hash map for sparse keyed state (DESIGN.md, "Scalable
// topology layer" and "Simulated kernel").
//
// The flat protocols kept per-(source, destination) state in dense
// reserve_nodes-sized vectors: O(N) per node, O(N²) system-wide — 10k nodes
// put the wire's FIFO floors alone in the gigabytes. The scalable
// topologies talk to a bounded neighbour set (cluster members, tree
// children, aggregator peers), so per-node state is keyed by the handful of
// nodes actually communicated with. `sparse_node_map` is the shared
// container for that. The dispatcher finds its live shards by
// `(task, instance)` through the same map. Linear-probe open addressing
// over power-of-two slot arrays; empty slots are marked by a reserved
// sentinel key (`sparse_key<Key>::empty`), and the backing array doubles at
// 70% load.
//
// Ownership: a sparse_map instance is confined to the shard that owns its
// enclosing per-node state (the same rule as every other per-node
// structure, DESIGN.md "Shard confinement"). Growth allocates on the owning
// shard while it executes that node's events. After warm-up (each node has
// met its neighbour set) lookups and updates allocate nothing.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "util/types.hpp"

namespace hades::util {

/// Key traits of `sparse_map`: the sentinel marking an empty slot (a key
/// never stored) and the hash. Specialize for each key type.
template <typename Key>
struct sparse_key;

template <>
struct sparse_key<node_id> {
  static constexpr node_id empty = std::numeric_limits<node_id>::max();
  [[nodiscard]] static std::size_t hash(node_id k) noexcept {
    // Fibonacci multiplicative hash: node ids are sequential, so identity
    // hashing would cluster every cluster's members into one probe run.
    std::uint64_t x = static_cast<std::uint64_t>(k) + 1;
    x *= 0x9E3779B97F4A7C15ull;
    return static_cast<std::size_t>(x >> 32);
  }
};

/// Sequence numbers (task instance numbers), hashed like node ids.
template <>
struct sparse_key<std::uint64_t> {
  static constexpr std::uint64_t empty =
      std::numeric_limits<std::uint64_t>::max();
  [[nodiscard]] static std::size_t hash(std::uint64_t k) noexcept {
    return static_cast<std::size_t>(((k + 1) * 0x9E3779B97F4A7C15ull) >> 32);
  }
};

template <typename Key, typename T>
class sparse_map {
 public:
  static constexpr Key empty_key = sparse_key<Key>::empty;

  sparse_map() = default;

  /// Value for `key`, default-constructing the slot on first touch.
  T& operator[](const Key& key) {
    if (slots_.empty()) rehash(8);
    std::size_t i = probe(key);
    if (slots_[i].key == empty_key) {
      if ((size_ + 1) * 10 > slots_.size() * 7) {
        rehash(slots_.size() * 2);
        i = probe(key);
      }
      slots_[i].key = key;
      slots_[i].value = T{};
      ++size_;
    }
    return slots_[i].value;
  }

  /// Pointer to the value for `key`, or nullptr. Never allocates.
  [[nodiscard]] T* find(const Key& key) noexcept {
    if (slots_.empty()) return nullptr;
    const std::size_t i = probe(key);
    return slots_[i].key == key ? &slots_[i].value : nullptr;
  }
  [[nodiscard]] const T* find(const Key& key) const noexcept {
    return const_cast<sparse_map*>(this)->find(key);
  }

  [[nodiscard]] bool contains(const Key& key) const noexcept {
    return find(key) != nullptr;
  }

  /// Remove `key` if present (backward-shift deletion keeps probes intact).
  void erase(const Key& key) noexcept {
    if (slots_.empty()) return;
    std::size_t i = probe(key);
    if (slots_[i].key != key) return;
    const std::size_t mask = slots_.size() - 1;
    std::size_t hole = i;
    for (std::size_t j = (hole + 1) & mask; slots_[j].key != empty_key;
         j = (j + 1) & mask) {
      const std::size_t home = hash(slots_[j].key) & mask;
      // Slot j may shift back into the hole if the hole lies on j's probe
      // path (cyclic distance test).
      if (((hole - home) & mask) <= ((j - home) & mask)) {
        slots_[hole] = std::move(slots_[j]);
        hole = j;
      }
    }
    slots_[hole].key = empty_key;
    slots_[hole].value = T{};
    --size_;
  }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }

  /// Bytes of backing storage — the scaling benches' memory accounting.
  [[nodiscard]] std::size_t capacity_bytes() const noexcept {
    return slots_.capacity() * sizeof(slot);
  }

  void clear() noexcept {
    for (auto& s : slots_) {
      s.key = empty_key;
      s.value = T{};
    }
    size_ = 0;
  }

  /// Visit every (key, value) pair; order is unspecified but deterministic
  /// for a given insertion history (no pointer-keyed hashing anywhere).
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const auto& s : slots_)
      if (s.key != empty_key) fn(s.key, s.value);
  }
  template <typename Fn>
  void for_each(Fn&& fn) {
    for (auto& s : slots_)
      if (s.key != empty_key) fn(s.key, s.value);
  }

 private:
  struct slot {
    Key key = empty_key;
    T value{};
  };

  [[nodiscard]] static std::size_t hash(const Key& k) noexcept {
    return sparse_key<Key>::hash(k);
  }

  /// Index of `key`'s slot, or of the empty slot where it would insert.
  [[nodiscard]] std::size_t probe(const Key& key) const noexcept {
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = hash(key) & mask;
    while (slots_[i].key != empty_key && slots_[i].key != key)
      i = (i + 1) & mask;
    return i;
  }

  void rehash(std::size_t new_cap) {
    // Value-initialized rather than copied from a prototype slot, so a
    // move-only T works.
    std::vector<slot> old = std::exchange(slots_, std::vector<slot>(new_cap));
    size_ = 0;
    for (auto& s : old)
      if (s.key != empty_key) (*this)[s.key] = std::move(s.value);
  }

  std::vector<slot> slots_;
  std::size_t size_ = 0;
};

/// Per-node protocol state keyed by node id.
template <typename T>
using sparse_node_map = sparse_map<node_id, T>;

}  // namespace hades::util
