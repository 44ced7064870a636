// Open-loop arrival process for the traffic edge (DESIGN.md, "Traffic edge
// & admission control").
//
// Models millions of clients without a single byte of per-client state:
// arrivals are a rate process (requests/second into this node), and the
// client id behind each request is materialized lazily by hashing
// (seed, node, arrival counter) into a configured population. Open loop
// means the process never waits on service — a shed or rejected request
// does not slow the stream down, which is exactly the regime where
// admission control earns its keep.
//
// Three rate shapes, all piecewise-constant so inter-arrival gaps stay
// exponential within a segment (memoryless — restarting the draw at a
// segment boundary is distribution-preserving and keeps the stream
// deterministic in the draw count):
//   * poisson  — constant rate;
//   * bursty   — on/off square wave (rate x burst_factor during bursts);
//   * diurnal  — an 8-segment piecewise "day" profile cycling over
//                diurnal_period (integer table, no libm in the path).
//
// Each arrival carries a request class drawn from a weighted mix
// (cost/deadline/value taxonomy the admission controller prices).
// Determinism: the stream is a pure function of (seed, node) — identical
// across backends and shard counts by construction.
#pragma once

#include <cstdint>

#include "traffic/admission.hpp"
#include "util/rng.hpp"
#include "util/time.hpp"

namespace hades::traffic {

enum class arrival_mix : std::uint8_t { poisson, bursty, diurnal };

/// One entry of the request-class taxonomy: what the work costs, how soon
/// it is due, what completing it is worth, and how often it shows up.
struct request_class {
  duration cost = duration::microseconds(200);
  duration deadline = duration::milliseconds(5);
  std::uint32_t value = 1;
  std::uint32_t weight = 1;
};

struct arrival_params {
  arrival_mix mix = arrival_mix::poisson;
  /// Baseline mean arrival rate, requests per second.
  double rate_per_s = 1000.0;
  /// Lazily-materialized client population (ids in [0, population)).
  std::uint64_t population = 1'000'000;
  /// bursty: on/off half-period and the on-phase rate multiplier.
  duration burst_period = duration::milliseconds(50);
  double burst_factor = 8.0;
  /// diurnal: one full "day" for the 8-segment profile.
  duration diurnal_period = duration::milliseconds(800);
  const request_class* classes = nullptr;
  std::uint32_t class_count = 0;
};

class arrival_process {
 public:
  /// The stream is a pure function of (seed, node, params).
  arrival_process(const arrival_params& p, std::uint64_t seed,
                  std::uint32_t node);

  /// Date of the next arrival (>= the previous one; never moves backwards).
  [[nodiscard]] time_point peek() const { return next_; }
  /// Consume the pending arrival and advance the stream.
  request take();
  [[nodiscard]] std::uint64_t generated() const { return count_; }

  /// Rate multiplier (x1000, integer) in effect at `t` — exposed for tests.
  [[nodiscard]] std::uint32_t rate_permille(time_point t) const;

 private:
  void schedule_next(time_point from);
  [[nodiscard]] std::uint64_t client_at(std::uint64_t n) const;

  arrival_params p_;
  std::uint64_t seed_;
  std::uint32_t node_;
  rng rng_;
  std::uint32_t total_weight_ = 0;
  time_point next_ = time_point::zero();
  std::uint64_t count_ = 0;
};

}  // namespace hades::traffic
