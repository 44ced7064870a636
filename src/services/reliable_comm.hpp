// Time-bounded reliable communication (paper section 2.2.1, services (i):
// time-bounded point-to-point communication and time-bounded
// multicast/broadcast — "Rel. Bcast" / "Rel. Mcast" of Figure 1).
//
// Point-to-point: omission failures of degree k are masked by sending k+1
// copies spaced by `retry_spacing`; receivers deduplicate on (src, seq),
// with sequence numbers counted per (src, dst) link so the dedup state can
// be kept as a contiguous-prefix watermark plus a bounded out-of-order
// window (`dedup_window`) instead of an ever-growing set. A window is 24
// bytes, and its out-of-order set is allocated only when a number first
// arrives early, so an in-order stream costs the watermark alone. Per-link
// send and dedup state lives in open-addressed sparse maps keyed by the
// peers actually talked to (util/sparse_map.hpp) — O(active links), never
// O(N) per node. Worst-case delivery latency is
//     k * retry_spacing + delta_max + per-byte cost
// which `p2p_bound()` exposes for feasibility integration.
//
// Broadcast diffusion comes in two modes (params::diffusion):
//
//   * flood (default) — on first receipt every node relays the message once
//     (at the message's true size: relays pay the same wire cost as the
//     original copy), so if any correct node delivers, every correct node
//     delivers even when the sender crashes mid-broadcast (agreement).
//     O(N²) sends per broadcast; worst-case diffusion is one direct hop
//     plus one relay hop.
//   * tree — deterministic origin-rotated k-ary spanning-tree relay
//     (topo::kary_tree, DESIGN.md "Scalable topology layer"): every node
//     forwards its first copy to its tree children AND grandchildren, so a
//     single crashed-but-not-yet-suspected interior node is masked
//     deterministically — the orphaned subtree hears the message from its
//     grandparent with no detector latency in the delivery bound. Nodes the
//     relayer currently *suspects* (via `set_suspicion_oracle`, wired to
//     the fault detector) are additionally resolved through: their children
//     are adopted into the forward set transitively (re-parenting), while
//     the suspect itself still gets its copy in case the suspicion is
//     false. ~2N sends per broadcast; worst-case diffusion is the tree
//     height in hops.
//
// Optional Delta-delivery imposes total order with a per-node hold-back
// queue: a message becomes releasable at
//     sent_at + max(stability_delay, worst-case diffusion for its size)
// and messages are released strictly in (sent_at, origin, seq) order. The
// max() term is what keeps the order total when the relay path exceeds
// stability_delay (a relay arriving after sent_at + Delta used to be
// delivered at arrival, interleaving behind younger messages); the
// worst-case diffusion term is hop-count-aware — two hops under flooding,
// `tree height` hops under tree relay — and `delivery_bound()` reports the
// same max, so the advertised bound and the release rule agree. Only a
// performance-faulty network (delivery beyond delta_max) can breach the
// hold-back; such stragglers are delivered immediately and counted in
// `order_faults()`.
//
// The per-node delivery logs kept for grading (`delivery_logs`) store a
// sequence the nodes share once: Delta-delivery releases the same sequence
// on every correct node, so the logs are one shared trunk plus a tail for
// each node that departed from it (a crash gap, a partition, an order
// fault). They grow with the trunk and with the forked nodes' tails, not
// by one entry per delivery.
//
// Each service registers one handler per channel with the system
// (`core::system::on_channel`), which every node's net_mngt task calls
// with its own id. Shard confinement (DESIGN.md): every container is
// indexed by the node the handler executes on — dedup windows, hold-back
// queues and delivery-log prefixes and tails by receiver, broadcast
// sequence numbers by origin — and pre-sized at construction, so
// different shards never share a map node (sparse-map slot growth and a
// window's first out-of-order set happen on the owning node's shard). The
// one exception is the delivery logs' trunk, which every shard appends to
// (see `delivery_logs`). The counters are plain totals: every backend runs
// one process's events on one thread, so their increments never race.
// `on_deliver` handlers run on the delivering node's shard and must stay
// shard-confined. The suspicion oracle is called as (observer = relaying
// node, subject) from the relayer's shard — the fault detector's
// observer-confined state satisfies this by construction.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <iterator>
#include <map>
#include <memory>
#include <set>
#include <span>
#include <utility>
#include <vector>

#include "core/system.hpp"
#include "services/channels.hpp"
#include "services/topology.hpp"
#include "util/sparse_map.hpp"

namespace hades::svc {

/// Bounded duplicate-suppression state for one (receiver, source) stream:
/// the highest sequence number below which everything was seen, plus a
/// bounded out-of-order window above it. When the window overflows (more
/// than `max_window` gaps outstanding — message loss beyond the masked
/// omission degree), the oldest gap is declared lost and the watermark
/// advances, so state stays bounded under unbounded traffic.
///
/// 24 bytes: most streams arrive in order and only ever move the
/// watermark, so the out-of-order set is allocated on the first number
/// that arrives early, and kept from then on.
class dedup_window {
 public:
  explicit dedup_window(std::uint32_t max_window = 1024)
      : max_window_(max_window) {}

  /// Returns true iff `seq` was never seen before (and records it).
  bool insert(std::uint64_t seq) {
    if (seq <= contiguous_) return false;
    // In order, the watermark moves without a tree node. After an overflow
    // the next number may already be held, which makes it a duplicate.
    if (seq == contiguous_ + 1 && (held() == 0 || *pending_->begin() != seq))
      ++contiguous_;
    else if (!pending().insert(seq).second)
      return false;
    if (held() == 0) return true;
    while (!pending_->empty() && *pending_->begin() == contiguous_ + 1) {
      ++contiguous_;
      pending_->erase(pending_->begin());
    }
    while (pending_->size() > max_window_) {
      contiguous_ = *pending_->begin();
      pending_->erase(pending_->begin());
    }
    return true;
  }

  [[nodiscard]] std::uint64_t watermark() const { return contiguous_; }
  [[nodiscard]] std::size_t state_bytes() const {
    // The set's per-node overhead (3 pointers + colour, rounded up) plus
    // the key — an estimate, for growth assertions rather than accounting.
    return sizeof(*this) + held() * (sizeof(std::uint64_t) + 32);
  }

 private:
  using seq_set = std::set<std::uint64_t>;

  [[nodiscard]] std::size_t held() const {
    return pending_ ? pending_->size() : 0;
  }
  seq_set& pending() {
    if (!pending_) pending_ = std::make_unique<seq_set>();
    return *pending_;
  }

  std::uint64_t contiguous_ = 0;  // every seq <= contiguous_ was seen
  std::uint32_t max_window_;
  std::unique_ptr<seq_set> pending_;  // seen out of order, above the prefix
};

class reliable_p2p {
 public:
  struct params {
    int omission_degree = 1;  // k: copies sent = k+1
    duration retry_spacing = duration::microseconds(200);
  };

  using deliver_fn =
      std::function<void(node_id src, const sim::wire_payload& payload)>;

  reliable_p2p(core::system& sys, params p);

  void on_deliver(node_id n, deliver_fn fn) { handlers_[n] = std::move(fn); }
  void send(node_id src, node_id dst, sim::wire_payload payload,
            std::size_t size_bytes = 64);

  /// Worst-case fault-free + <=k-omission delivery bound for `size` bytes.
  [[nodiscard]] duration p2p_bound(std::size_t size_bytes) const;

  [[nodiscard]] std::uint64_t duplicates_suppressed() const { return dups_; }
  [[nodiscard]] std::uint64_t delivered() const { return delivered_; }
  /// Approximate bytes of dedup state held — bounded under sustained
  /// traffic (watermark + window per active (receiver, src) pair).
  [[nodiscard]] std::size_t state_bytes() const;

 private:
  struct frame {
    std::uint64_t seq;
    sim::wire_payload payload;  // nested: the user's pooled payload, shared
  };
  void on_message(node_id n, const sim::message& m);

  core::system* sys_;
  params params_;
  std::map<node_id, deliver_fn> handlers_;
  // Sparse per-link state, keyed by the peers actually communicated with.
  std::vector<util::sparse_node_map<std::uint64_t>> next_seq_;  // [src]: dst
  std::vector<util::sparse_node_map<dedup_window>> seen_;       // [recv]: src
  std::uint64_t dups_ = 0;
  std::uint64_t delivered_ = 0;
};

/// Per-node (origin, seq) delivery logs that store a shared sequence once:
/// one trunk of entries, and for each node how many trunk entries it
/// delivered (its prefix) plus a tail of its own. `append(n, e)` extends
/// the trunk when `n` is at the trunk's end, advances `n`'s prefix when `e`
/// is `n`'s next trunk entry, and otherwise forks `n`: `e` and every later
/// entry of `n` go to its tail. `(*this)[n]` reads back exactly the
/// sequence appended for `n`, and no more entries are held than appended.
///
/// The trunk is the one broadcast structure every shard appends to. Its
/// content follows execution order, which differs across shard layouts, so
/// only views are ever compared. Every backend runs one process's events
/// on one thread, so appends from different shards never race (the rule
/// the monitor's name table relies on too).
class delivery_logs {
 public:
  using entry = std::pair<node_id, std::uint64_t>;  // (origin, seq)

  /// One node's log, read-only: its trunk prefix, then its tail. Valid
  /// until the next append to the container it was taken from.
  class view {
   public:
    class iterator {
     public:
      using iterator_category = std::forward_iterator_tag;
      using value_type = entry;
      using difference_type = std::ptrdiff_t;
      using pointer = const entry*;
      using reference = const entry&;

      iterator() = default;
      reference operator*() const {
        return i_ < prefix_.size() ? prefix_[i_] : tail_[i_ - prefix_.size()];
      }
      iterator& operator++() {
        ++i_;
        return *this;
      }
      iterator operator++(int) {
        iterator old = *this;
        ++i_;
        return old;
      }
      friend bool operator==(const iterator& a, const iterator& b) {
        return a.i_ == b.i_;
      }

     private:
      friend class view;
      iterator(const view& v, std::size_t i)
          : prefix_(v.prefix_), tail_(v.tail_), i_(i) {}
      std::span<const entry> prefix_, tail_;
      std::size_t i_ = 0;
    };
    using const_iterator = iterator;

    [[nodiscard]] std::size_t size() const {
      return prefix_.size() + tail_.size();
    }
    const entry& operator[](std::size_t i) const {
      return *iterator(*this, i);
    }
    [[nodiscard]] iterator begin() const { return {*this, 0}; }
    [[nodiscard]] iterator end() const { return {*this, size()}; }
    friend bool operator==(const view& a, const view& b) {
      return a.size() == b.size() && std::equal(a.begin(), a.end(), b.begin());
    }

   private:
    friend class delivery_logs;
    view(std::span<const entry> prefix, std::span<const entry> tail)
        : prefix_(prefix), tail_(tail) {}
    std::span<const entry> prefix_, tail_;
  };

  delivery_logs() = default;
  explicit delivery_logs(std::size_t nodes) : nodes_(nodes) {}

  /// The number of nodes.
  [[nodiscard]] std::size_t size() const { return nodes_.size(); }
  void append(node_id n, entry e);
  [[nodiscard]] view operator[](node_id n) const {
    const node_log& l = nodes_[n];
    return {std::span(trunk_).first(l.prefix), l.tail};
  }
  /// `(*this)[n]`, or std::out_of_range when `n` is not a node.
  [[nodiscard]] view at(node_id n) const {
    (void)nodes_.at(n);
    return (*this)[n];
  }
  /// Entries stored: the trunk plus every tail.
  [[nodiscard]] std::size_t entries_held() const;

 private:
  struct node_log {
    std::size_t prefix = 0;   // trunk entries this node delivered
    std::vector<entry> tail;  // every entry since the fork; empty: unforked
  };
  std::vector<entry> trunk_;
  std::vector<node_log> nodes_;
};

class reliable_broadcast {
 public:
  enum class diffusion_kind {
    flood,  // every node relays once to everyone: O(N²) sends, 2 hops
    tree,   // origin-rotated k-ary tree relay: ~2N sends, height hops
  };

  struct params {
    bool total_order = false;
    duration stability_delay = duration::milliseconds(2);  // Delta
    /// Largest payload admitted under Delta-delivery. The hold-back release
    /// date must outwait the worst-case diffusion of ANY message that could
    /// carry an earlier key — a later small message must not be released
    /// while an earlier large one is still legitimately in flight — so the
    /// horizon is computed from this bound, and `broadcast` rejects larger
    /// total-order payloads.
    std::size_t max_message_bytes = 64;
    /// Keep per-node (origin, seq) delivery logs for test assertions and
    /// grading. Nodes that deliver the same sequence share it, so the logs
    /// grow with that shared trunk and with the tails of nodes that forked
    /// from it, not by one entry per delivery; they are still unbounded
    /// over the horizon — disable for long soaks. `state_bytes()` charges
    /// the entries held while enabled.
    bool record_deliveries = true;
    diffusion_kind diffusion = diffusion_kind::flood;
    /// k of the spanning tree (diffusion_kind::tree only).
    std::size_t tree_fanout = 4;
  };

  struct bcast_msg {
    node_id origin = invalid_node;
    std::uint64_t seq = 0;  // per-origin, starting at 1
    time_point sent_at;
    std::size_t size_bytes = 64;  // carried so relays pay the true wire cost
    sim::wire_payload payload;    // shared by refcount through relays
  };

  using deliver_fn = std::function<void(const bcast_msg&)>;

  reliable_broadcast(core::system& sys, params p);

  void on_deliver(node_id n, deliver_fn fn) { handlers_[n] = std::move(fn); }
  void broadcast(node_id src, sim::wire_payload payload,
                 std::size_t size_bytes = 64);

  /// Tree mode: consult `fn(observer, subject)` when computing forward
  /// sets — a suspected relay's children are adopted by its parent
  /// (re-parenting). Wire it to `fault_detector::suspects`. The oracle is
  /// called from the observer's shard only.
  void set_suspicion_oracle(std::function<bool(node_id, node_id)> fn) {
    suspicion_ = std::move(fn);
  }

  /// Worst-case delivery bound for `size` bytes: the diffusion path —
  /// direct hop + relay hop under flooding, tree-height hops under tree
  /// relay, all at `size` — and under Delta-delivery the release date
  /// max(stability_delay, diffusion of the largest admitted payload).
  [[nodiscard]] duration delivery_bound(std::size_t size_bytes) const;

  [[nodiscard]] std::uint64_t relays() const { return relays_; }
  [[nodiscard]] std::uint64_t delivered() const { return delivered_; }
  /// Messages that arrived after their release date (performance-faulty
  /// network): delivered immediately, possibly breaching total order.
  [[nodiscard]] std::uint64_t order_faults() const { return order_faults_; }
  /// Approximate bytes of dedup + hold-back state held — bounded under
  /// sustained traffic.
  [[nodiscard]] std::size_t state_bytes() const;
  /// Node `n`'s sequence of delivered (origin, seq) pairs, valid until the
  /// next delivery — for agreement/total-order assertions in tests. Empty
  /// when `params::record_deliveries` is off.
  [[nodiscard]] delivery_logs::view delivery_log(node_id n) const {
    return logs_.at(n);
  }
  /// Hand every node's delivery log over to the caller, leaving the
  /// service's logs empty (recording goes on into them).
  [[nodiscard]] delivery_logs take_delivery_logs();

 private:
  /// Total-order release key: (sent_at, origin, seq), identical on every
  /// node.
  struct order_key {
    time_point sent_at;
    node_id origin = invalid_node;
    std::uint64_t seq = 0;
    friend auto operator<=>(const order_key&, const order_key&) = default;
  };
  /// One held-back message. A node's hold-back queue is a binary min-heap
  /// of these on `key` in a vector that keeps its storage between messages.
  struct held {
    order_key key;
    bcast_msg msg;
    /// Heap order for std::push_heap/pop_heap: the smallest key on top.
    friend bool operator<(const held& a, const held& b) {
      return b.key < a.key;
    }
  };

  void on_message(node_id n, const sim::message& m);
  void accept(node_id n, const bcast_msg& msg);
  void deliver(node_id n, const bcast_msg& msg);
  void flush(node_id n);
  void relay(node_id n, const bcast_msg& msg);
  /// Tree forward set of node `n` for a broadcast rooted at `origin`:
  /// children + grandchildren, suspected entries resolved through to their
  /// children transitively, deduplicated, in label order (deterministic
  /// send order — the per-source rng stream depends on it). Fills and
  /// returns `targets_`, valid until the next call.
  const std::vector<node_id>& relay_targets(node_id n, node_id origin);
  [[nodiscard]] std::size_t diffusion_hops() const;
  [[nodiscard]] time_point release_time(const bcast_msg& msg) const;

  core::system* sys_;
  params params_;
  std::map<node_id, deliver_fn> handlers_;
  std::function<bool(node_id, node_id)> suspicion_;
  std::vector<util::sparse_node_map<dedup_window>> seen_;  // [node]: origin
  std::vector<std::vector<held>> holdback_;  // per node, min-heap on key
  delivery_logs logs_;
  std::vector<std::uint64_t> next_seq_;      // per origin
  std::uint64_t relays_ = 0;
  std::uint64_t delivered_ = 0;
  std::uint64_t order_faults_ = 0;
  // relay_targets' buffers, reused by every tree relay. Events run one at
  // a time on every backend, and a relay's sends only queue frames, so no
  // second relay starts while one walks these.
  std::vector<std::size_t> labels_;
  std::vector<node_id> targets_;
};

}  // namespace hades::svc
