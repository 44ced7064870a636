// Admission controller: the zero-allocation decision path of the traffic
// edge (DESIGN.md, "Traffic edge & admission control").
//
// One controller guards one node's service capacity. Every offered request
// is judged against the incremental feasibility accumulator
// (sched/incremental.hpp); infeasible requests either bounce, or — under
// overload — displace already-admitted work of lower *value density*
// (value / cost, the SPRING planning tradition: when not everything fits,
// keep the work that buys the most value per CPU nanosecond).
//
// Hot-path engineering:
//  * one slot pool is the only per-request structure. It reserves
//    `reserved_slots` (or `max_outstanding`, when smaller) and a slot is
//    created only when every existing one is live, so admit/complete never
//    allocate and the pool is only as deep as the load has gone:
//    bench_gateway peaks at 6-48 slots and no edge_16 gateway held more
//    than 27. A deeper load grows the pool by doubling, which allocates
//    once per doubling, up to `max_outstanding`;
//  * an admit takes the lowest slot that is not live, so handles stay
//    below the pool's high-water and callers can index by handle densely;
//    a shed takes the live slot with the lowest (value density, admission
//    sequence). Both scan the slots that exist, which the shallow load
//    keeps to a few tens; a complete is O(1);
//  * the steady-state offer/complete/shed cycle performs zero heap
//    allocations (asserted by bench_gateway's operator-new counter, on a
//    mix that never sheds as well as on overloaded ones).
//
// Determinism: decisions depend only on the offer/complete order, and the
// shed order is a total order (density, then admission sequence), so the
// admission/shed stream is bit-identical across backends and shard counts;
// the running FNV digest over (client, verdict) is folded into the campaign
// checksum.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "sched/incremental.hpp"
#include "util/fnv.hpp"
#include "util/time.hpp"

namespace hades::traffic {

/// One offered unit of client work.
struct request {
  std::uint64_t client = 0;       // lazily-materialized client id
  std::uint32_t klass = 0;        // request-class index (caller taxonomy)
  duration cost = duration::zero();      // worst-case service time
  duration deadline = duration::zero();  // relative deadline
  std::uint32_t value = 1;        // importance (shed ordering numerator)
};

class admission_controller {
 public:
  using handle = std::uint32_t;
  static constexpr handle no_handle = 0xFFFFFFFFu;

  struct config {
    sched::incremental_feasibility::config feas;
    /// Pooled request slots == max concurrently admitted requests.
    std::uint32_t max_outstanding = 4096;
  };

  /// Request slots reserved up front (capped at `max_outstanding`): above
  /// every measured load depth, so the steady state never grows the pool.
  static constexpr std::uint32_t reserved_slots = 64;

  /// Called once per displaced victim, after its charge is released and its
  /// slot freed (the handle is no longer valid inside the callback — it
  /// identifies which admitted request died).
  using shed_fn = std::function<void(handle)>;

  explicit admission_controller(config c);
  void on_shed(shed_fn f) { shed_cb_ = std::move(f); }

  struct decision {
    bool admitted = false;
    handle h = no_handle;
    std::uint32_t shed_victims = 0;  // displaced to make room (may be > 0
                                     // even when the newcomer still bounced)
  };

  /// The hot path: judge one request at `now`. Zero allocations.
  decision offer(const request& r, time_point now);
  /// An admitted request finished. Zero allocations, O(1).
  void complete(handle h);

  /// Mode-change renegotiation: move the CPU fraction and shed the lowest
  /// value-density work until the remaining set is feasible again.
  /// Returns the number of victims.
  std::uint32_t renegotiate(double available, time_point now);

  /// Exact off-hot-path re-validation: runs the full EDF demand test over
  /// the live request set (sorted scratch, no allocation after warm-up) and
  /// cross-checks the accumulator's integer bookkeeping against the pool.
  /// False means the conservative wheel admitted an infeasible set or the
  /// bookkeeping drifted — both are defects, and the campaign digest folds
  /// the flag.
  bool revalidate(time_point now);

  // --- observability --------------------------------------------------------
  struct counters {
    std::uint64_t offered = 0;
    std::uint64_t admitted = 0;
    std::uint64_t rejected = 0;
    std::uint64_t shed = 0;
    std::uint64_t completed = 0;
    std::uint64_t revalidations = 0;
    std::uint64_t revalidation_failures = 0;
  };
  [[nodiscard]] const counters& stats() const { return stats_; }
  [[nodiscard]] std::uint32_t outstanding() const { return live_; }
  /// Running FNV-1a over the decision stream (client, verdict) — the
  /// cross-backend determinism fold.
  [[nodiscard]] std::uint64_t stream_digest() const { return digest_.value(); }

 private:
  struct slot {
    std::uint64_t density = 0;   // (value << 32) / cost_ns
    std::uint64_t seq = 0;       // admission sequence (shed tie-break)
    sched::incremental_feasibility::ticket ticket;
    std::int64_t deadline_ns = 0;
    bool live = false;
  };

  [[nodiscard]] static std::uint64_t density_of(const request& r);
  /// The live slot that sheds first, or no_handle when none is live.
  [[nodiscard]] handle lowest_live() const;
  void shed(handle h);
  void release(handle h);

  config cfg_;
  sched::incremental_feasibility feas_;
  std::vector<slot> pool_;
  std::vector<std::pair<std::int64_t, std::int64_t>> scratch_;  // revalidate
  shed_fn shed_cb_;
  counters stats_;
  std::uint32_t live_ = 0;
  std::uint64_t next_seq_ = 0;
  fnv1a digest_;
};

}  // namespace hades::traffic
