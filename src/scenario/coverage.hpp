// Checker-signal coverage map for scenario fuzzing (DESIGN.md, "Scenario
// fuzzing & minimization").
//
// One fuzz run folds into a fixed 4096-bit map. Each bit is a *signal*: a
// named family plus up to two integer coordinates, hashed (FNV-1a) into the
// bitmap — the classic coverage-map compromise (collisions possible,
// bookkeeping O(1), new signal families cost nothing). Families:
//
//   kind/<k>            an action of kind k was injected
//   kind-pair/<i>,<j>   kinds i and j (i < j) appeared in the same plan
//   kind-window/<k>,<w> kind k fired in horizon-octile w (timing coverage)
//   concurrent-down/<n> peak number of simultaneously-crashed nodes
//   nodes/<n>, actions/<b>   deployment size and log2 action-count bucket
//   check/<name>,<p>    checker `name` evaluated with verdict p (pass/fail)
//   event/<kind>        a monitor event of this kind was recorded
//   obs/<axis>,<b>      log2 buckets of observed counts (suspicions,
//                       recoveries, mode switches, deadline misses, order
//                       faults, traffic admitted/rejected/shed/missed,
//                       renegotiations, skew band) plus the final mode
//
// The mutator feeds back on novelty: a case that sets a bit no earlier case
// set joins the corpus. The map is order-independent and integer-only, so
// a fuzz campaign's coverage artifact is byte-identical across runs,
// compilers and --jobs values.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "scenario/checkers.hpp"
#include "scenario/scenarios.hpp"
#include "util/fnv.hpp"

namespace hades::scenario {

class coverage_map {
 public:
  static constexpr std::size_t bit_count = 4096;
  static constexpr std::size_t word_count = bit_count / 64;

  void set(std::size_t bit) {
    words_[(bit % bit_count) / 64] |= 1ull << (bit % 64);
  }
  [[nodiscard]] bool test(std::size_t bit) const {
    return (words_[(bit % bit_count) / 64] >> (bit % 64)) & 1ull;
  }
  [[nodiscard]] std::size_t popcount() const {
    std::size_t n = 0;
    for (std::uint64_t w : words_) n += static_cast<std::size_t>(std::popcount(w));
    return n;
  }

  /// OR `o` into this map; returns how many of o's bits were new here —
  /// the novelty score the fuzzer's corpus admission keys on.
  std::size_t merge(const coverage_map& o) {
    std::size_t fresh = 0;
    for (std::size_t i = 0; i < word_count; ++i) {
      fresh += static_cast<std::size_t>(std::popcount(o.words_[i] & ~words_[i]));
      words_[i] |= o.words_[i];
    }
    return fresh;
  }

  /// Hash a (family, a, b) signal to its bit. FNV-1a over the family name
  /// and the two coordinates.
  static std::size_t signal(const char* family, std::uint64_t a = 0,
                            std::uint64_t b = 0) {
    const std::uint64_t h = fnv1a{}.mix_bytes(family).mix(a).mix(b).value();
    return static_cast<std::size_t>(h % bit_count);
  }

  void mark(const char* family, std::uint64_t a = 0, std::uint64_t b = 0) {
    set(signal(family, a, b));
  }

  /// Fold one graded run: which fault combinations x timing windows the
  /// plan injected, and which checker branches / monitor event kinds /
  /// observation bands the run actually exercised.
  void fold(const scenario_spec& spec, const std::vector<check_result>& checks,
            const observation& obs) {
    auto bucket = [](std::uint64_t v) -> std::uint64_t {
      std::uint64_t b = 0;
      while (v > 0 && b < 16) {
        v >>= 1;
        ++b;
      }
      return b;
    };

    // Plan shape: kinds, kind pairs, kind x horizon-octile, crash overlap.
    const std::int64_t horizon_ns = obs.horizon.nanoseconds();
    std::uint32_t kinds = 0;
    int down = 0, peak_down = 0;
    std::vector<action> sorted = spec.p.actions;
    std::stable_sort(sorted.begin(), sorted.end(),
                     [](const action& x, const action& y) {
                       return x.at < y.at;
                     });
    for (const action& a : sorted) {
      const auto k = static_cast<unsigned>(a.kind);
      kinds |= 1u << k;
      const std::int64_t at = a.at.nanoseconds();
      const std::uint64_t octile =
          horizon_ns > 0
              ? static_cast<std::uint64_t>((at * 8) / horizon_ns) % 8
              : 0;
      mark("kind", k);
      mark("kind-window", k, octile);
      if (a.kind == action_kind::crash_node)
        peak_down = std::max(peak_down, ++down);
      else if (a.kind == action_kind::recover_node)
        --down;
    }
    for (unsigned i = 0; i < 12; ++i)
      for (unsigned j = i + 1; j < 12; ++j)
        if ((kinds >> i & 1u) && (kinds >> j & 1u)) mark("kind-pair", i, j);
    mark("concurrent-down", static_cast<std::uint64_t>(peak_down));
    mark("nodes", spec.nodes);
    mark("actions", bucket(spec.p.actions.size()));
    if (spec.traffic.gateway_nodes > 0)
      mark("traffic-mix", static_cast<std::uint64_t>(spec.traffic.mix));
    if (spec.with_clock_sync)
      mark("clock-sync-f",
           static_cast<std::uint64_t>(spec.clock_sync_max_faulty));

    // Checker branches: every (name, verdict) pair is its own signal, so a
    // checker that has never failed anywhere is visibly uncovered.
    for (const check_result& c : checks)
      mark("check", fnv1a{}.mix_bytes(c.name).value(), c.passed ? 1 : 0);

    // Monitor event kinds + observation bands.
    for (unsigned k = 0; k < 32; ++k)
      if (obs.event_kinds >> k & 1u) mark("event", k);
    mark("obs-suspicions", bucket(obs.suspicions.size()));
    mark("obs-recoveries", bucket(obs.recoveries.size()));
    mark("obs-mode-switches", obs.mode_switches.size() % 17);
    mark("obs-final-mode", static_cast<std::uint64_t>(obs.final_mode));
    mark("obs-misses", bucket(obs.deadline_misses));
    mark("obs-order-faults", bucket(obs.order_faults));
    if (obs.skew_checked)
      mark("obs-skew-band",
           bucket(static_cast<std::uint64_t>(
               obs.max_skew.count() > 0 ? obs.max_skew.count() / 10000 : 0)));
    if (obs.traffic_checked) {
      mark("obs-admitted", bucket(obs.traffic_admitted));
      mark("obs-rejected", bucket(obs.traffic_rejected));
      mark("obs-shed", bucket(obs.traffic_shed));
      mark("obs-missed", bucket(obs.traffic_missed));
      mark("obs-renegotiations", bucket(obs.traffic_renegotiations));
    }
  }

  /// "hades-fuzz-coverage v1": popcount plus the raw words in hex —
  /// byte-identical for identical coverage, diffable across nights.
  [[nodiscard]] std::string to_json() const {
    std::ostringstream os;
    os << "{\n  \"format\": \"hades-fuzz-coverage v1\",\n  \"bits\": "
       << bit_count << ",\n  \"set\": " << popcount() << ",\n  \"map\": \"";
    os << std::hex;
    for (std::size_t i = 0; i < word_count; ++i) {
      for (int shift = 60; shift >= 0; shift -= 4)
        os << ((words_[i] >> shift) & 0xF);
    }
    os << std::dec << "\"\n}\n";
    return os.str();
  }

 private:
  std::array<std::uint64_t, word_count> words_{};
};

}  // namespace hades::scenario
