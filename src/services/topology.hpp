// Deterministic communication topologies for the scalable generic services
// (DESIGN.md, "Scalable topology layer").
//
// The flat reproductions of the paper's services talk all-to-all: O(N²)
// messages and per-pair state. At 1k-10k nodes the services instead derive
// bounded neighbour sets from two pure functions of (node count, a small
// parameter) — no membership protocol, no shared state, so every node on
// every shard computes the identical topology and the scenario campaign's
// cross-backend checksum gate is untouched:
//
//   * cluster_map — contiguous clusters of `cluster_size` nodes. The fault
//     detector supervises within a cluster through an elected aggregator
//     and across clusters through aggregator digest exchange; clock sync
//     aggregates readings per cluster the same way.
//   * origin-rotated k-ary spanning tree — for reliable broadcast. Node v's
//     tree position for a broadcast from `origin` is label
//     (v - origin) mod N in a complete k-ary tree: children of label l are
//     k*l + 1 .. k*l + k. Rotating by the origin spreads relay load evenly
//     across origins while keeping the tree a pure function both sender and
//     receiver can evaluate locally.
#pragma once

#include <cstddef>

#include "util/types.hpp"

namespace hades::svc::topo {

/// Contiguous clustering of nodes [0, N) into groups of `cluster_size`
/// (the last cluster may be smaller). Everything is index arithmetic; a
/// cluster id is itself a small integer usable as a sparse-map key.
struct cluster_map {
  std::size_t nodes = 0;
  std::size_t cluster_size = 0;

  [[nodiscard]] std::size_t cluster_count() const {
    return (nodes + cluster_size - 1) / cluster_size;
  }
  [[nodiscard]] std::size_t cluster_of(node_id v) const {
    return v / cluster_size;
  }
  /// First node of cluster `c`.
  [[nodiscard]] node_id first(std::size_t c) const {
    return static_cast<node_id>(c * cluster_size);
  }
  /// One past the last node of cluster `c`.
  [[nodiscard]] node_id end(std::size_t c) const {
    const std::size_t e = (c + 1) * cluster_size;
    return static_cast<node_id>(e < nodes ? e : nodes);
  }
};

/// Origin-rotated complete k-ary broadcast tree over nodes [0, N).
struct kary_tree {
  std::size_t nodes = 0;
  std::size_t fanout = 4;

  /// Tree label of node v for a broadcast rooted at `origin` (root = 0).
  [[nodiscard]] std::size_t label_of(node_id origin, node_id v) const {
    return (static_cast<std::size_t>(v) + nodes -
            static_cast<std::size_t>(origin)) % nodes;
  }
  /// Node holding tree label `l` for a broadcast rooted at `origin`.
  [[nodiscard]] node_id node_at(node_id origin, std::size_t l) const {
    return static_cast<node_id>((static_cast<std::size_t>(origin) + l) %
                                nodes);
  }
  [[nodiscard]] std::size_t first_child(std::size_t l) const {
    return fanout * l + 1;
  }
  /// Height of the tree: the depth of the deepest label, i.e. the number of
  /// relay hops a leaf-bound message traverses below the root.
  [[nodiscard]] std::size_t height() const {
    std::size_t h = 0;
    std::size_t level_end = 1;  // labels [0, level_end) fit in height h
    while (level_end < nodes) {
      level_end = fanout * level_end + 1;  // 1 + k + k^2 + ...
      ++h;
    }
    return h;
  }
};

}  // namespace hades::svc::topo
