#include "traffic/admission.hpp"

#include <algorithm>
#include <tuple>

#include "util/error.hpp"

namespace hades::traffic {

admission_controller::admission_controller(config c)
    : cfg_(c), feas_(c.feas) {
  require(cfg_.max_outstanding > 0,
          "admission_controller: max_outstanding must be positive");
  // Reserved, not filled: a slot is created the first time every existing
  // one is live, so memory is touched only as deep as the load goes.
  const std::uint32_t reserve = std::min(cfg_.max_outstanding, reserved_slots);
  pool_.reserve(reserve);
  scratch_.reserve(reserve);
}

std::uint64_t admission_controller::density_of(const request& r) {
  const std::int64_t c = r.cost.count();
  if (c <= 0) return ~0ull;  // free work never sheds
  return (static_cast<std::uint64_t>(r.value) << 32) /
         static_cast<std::uint64_t>(c);
}

admission_controller::handle admission_controller::lowest_live() const {
  handle best = no_handle;
  for (handle i = 0; i < pool_.size(); ++i) {
    const slot& s = pool_[i];
    if (s.live && (best == no_handle ||
                   std::tie(s.density, s.seq) <
                       std::tie(pool_[best].density, pool_[best].seq)))
      best = i;
  }
  return best;
}

void admission_controller::release(handle h) {
  slot& s = pool_[h];
  feas_.complete(s.ticket);
  s.live = false;
  --live_;
}

void admission_controller::shed(handle h) {
  release(h);
  ++stats_.shed;
  if (shed_cb_) shed_cb_(h);
}

admission_controller::decision admission_controller::offer(const request& r,
                                                           time_point now) {
  ++stats_.offered;
  feas_.advance(now);
  const time_point deadline = now + r.deadline;
  decision d;
  const std::uint64_t density = density_of(r);

  bool fits =
      live_ < cfg_.max_outstanding && feas_.admissible(r.cost, deadline);
  if (!fits) {
    // Overload: displace strictly lower value-density work while that still
    // can make the newcomer fit.
    for (handle v = lowest_live();
         v != no_handle && pool_[v].density < density; v = lowest_live()) {
      shed(v);
      ++d.shed_victims;
      if (live_ < cfg_.max_outstanding &&
          feas_.admissible(r.cost, deadline)) {
        fits = true;
        break;
      }
    }
  }

  if (!fits) {
    ++stats_.rejected;
    digest_.mix(r.client).mix(2).mix(d.shed_victims);  // 2: rejected
    return d;
  }

  // The lowest slot that is not live; with every slot live (so fewer than
  // max_outstanding exist), a new one, inside the reservation unless the
  // load is deeper than reserved_slots.
  handle idx = 0;
  while (idx < pool_.size() && pool_[idx].live) ++idx;
  if (idx == pool_.size()) pool_.emplace_back();
  slot& s = pool_[idx];
  s.density = density;
  s.seq = next_seq_++;
  s.ticket = feas_.admit(r.cost, deadline);
  s.deadline_ns = deadline.nanoseconds();
  s.live = true;
  ++live_;
  ++stats_.admitted;
  d.admitted = true;
  d.h = idx;
  digest_.mix(r.client).mix(1).mix(d.shed_victims);  // 1: admitted
  return d;
}

void admission_controller::complete(handle h) {
  require(h < pool_.size() && pool_[h].live,
          "admission_controller: complete of a dead handle");
  release(h);
  ++stats_.completed;
}

std::uint32_t admission_controller::renegotiate(double available,
                                                time_point now) {
  feas_.advance(now);
  feas_.set_available(available);
  std::uint32_t victims = 0;
  while (!feas_.currently_feasible()) {
    const handle v = lowest_live();
    if (v == no_handle) break;
    shed(v);
    ++victims;
  }
  digest_.mix(3);  // renegotiate marker
  digest_.mix(static_cast<std::uint64_t>(available * 4294967296.0));
  digest_.mix(victims);
  return victims;
}

bool admission_controller::revalidate(time_point now) {
  ++stats_.revalidations;
  feas_.advance(now);
  const bool wheel_ok = feas_.currently_feasible();
  // Exact EDF processor-demand test over the live set: for each future
  // deadline d, the cost of all work due at or before d must fit in
  // (d - now) x available. Already-late work (deadline passed, miss not yet
  // retired) contributes its cost to the cumulative demand but is not itself
  // a check point — the same treatment the wheel gives its carried term.
  scratch_.clear();
  std::int64_t total = 0;
  const std::int64_t t0 = now.nanoseconds();
  std::int64_t late = 0;
  for (const slot& s : pool_) {
    if (!s.live) continue;
    total += s.ticket.cost;
    if (s.deadline_ns <= t0)
      late += s.ticket.cost;
    else
      scratch_.emplace_back(s.deadline_ns, s.ticket.cost);
  }
  std::sort(scratch_.begin(), scratch_.end());
  // Same 32.32 budget arithmetic as the wheel so the comparison below is
  // rounding-identical.
  const auto q32 =
      static_cast<std::uint64_t>(feas_.available() * 4294967296.0);
  bool exact_ok = true;
  std::int64_t cum = late;
  for (const auto& [d, c] : scratch_) {
    cum += c;
    const auto budget = static_cast<std::int64_t>(
        (static_cast<unsigned __int128>(d - t0) * q32) >> 32);
    if (cum > budget) exact_ok = false;
  }
  // Two invariants, both timing-noise free: the integer bookkeeping matches
  // the pool exactly, and the wheel's verdict implies the exact verdict
  // (the wheel quantizes every deadline *down* to its bucket start, so it
  // can only be stricter — a wheel-pass/exact-fail disagreement means the
  // accumulator dropped demand it should still hold). The exact test alone
  // failing is expected mid-flight: a nearly-finished instance still
  // charges its full cost against an almost-expired deadline.
  const bool ok = total == feas_.outstanding() && (!wheel_ok || exact_ok);
  if (!ok) ++stats_.revalidation_failures;
  return ok;
}

}  // namespace hades::traffic
