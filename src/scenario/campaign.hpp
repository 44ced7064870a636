// Campaign runner (DESIGN.md, "Scenario layer").
//
// A campaign sweeps scenario × seed × shards cells. Every cell builds a
// fresh 8-node HADES deployment (fault detector, Delta-ordered reliable
// broadcast, mode manager, optionally clock sync and an EDF task load),
// applies the scenario's fault plan, runs to the horizon, grades the
// property checkers, and folds every observable into an order-independent
// FNV checksum. The campaign then asserts that each (scenario, seed)
// produced *bit-identical* checksums across shard counts {1, 2, 4} — the
// single engine against serial sharded rounds, the cross-backend
// determinism gate of DESIGN.md, "Shard confinement". One machine-readable
// JSON verdict per cell plus a summary.
// `hades_campaign` is the CLI; CI runs `hades_campaign --smoke` as a
// required step.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "scenario/checkers.hpp"
#include "scenario/scenarios.hpp"

namespace hades::scenario {

/// Run fn(i) for every i in [0, n) on a bounded thread pool. jobs = 0 picks
/// half the hardware threads capped at 4, jobs = 1 runs serially on the
/// calling thread, jobs = n uses exactly n pool threads. Work items must be
/// independent; completion order is unspecified, so callers keep ordered
/// effects in a serial post-pass over their own index space (the pattern
/// run_campaign and the fuzzer's matrix replays share).
void parallel_for(std::size_t n, std::size_t jobs,
                  const std::function<void(std::size_t)>& fn);

struct cell_result {
  std::string scenario;
  std::uint64_t seed = 0;
  std::size_t shards = 1;     // 1 = single engine, > 1 = sharded backend
  std::uint64_t checksum = 0;
  std::uint64_t events = 0;  // informational; excluded from the checksum
  bool passed = false;       // every checker green
  std::vector<check_result> checks;
  /// The graded observation, minus `delivery_logs` and `sent_at`: run_cell
  /// frees those once the checksum and the checkers have read them.
  observation obs;
};

/// One verdict JSON document (schema in DESIGN.md, "Scenario layer").
[[nodiscard]] std::string render_verdict_json(const cell_result& c);

struct campaign_options {
  std::vector<std::string> scenarios;  // empty = every registered scenario
  /// Add the 1k-node scale family (scale_scenarios) to an empty selection.
  bool include_scale = false;
  std::vector<std::uint64_t> seeds{1, 2};
  std::vector<std::size_t> shard_counts{1, 2, 4};
  std::string out_dir;   // when set, write per-cell verdicts + summary.json
  bool verbose = false;  // one progress line per cell on stdout
  /// Cells are independent deployments, so the sweep runs them on a bounded
  /// thread pool: 0 = auto (half the hardware threads, capped at 4), 1 =
  /// the historical serial sweep, n = exactly n pool threads. Verdicts,
  /// progress lines, JSON files and the checksum gate are all emitted in
  /// cell-enumeration order regardless of completion order.
  std::size_t jobs = 0;
};

struct campaign_result {
  std::vector<cell_result> cells;
  /// Gate violations: failed checkers and cross-shard checksum mismatches.
  std::vector<std::string> failures;
  /// One entry per (scenario, seed) group whose checksum diverged across
  /// shard counts: the full plan JSON, so the offending
  /// timeline is reproducible straight from the campaign output without
  /// digging the scenario registry out of the binary.
  std::vector<std::string> diverged_plans;
  bool passed = false;
  [[nodiscard]] std::string summary_json() const;
};

/// Run one cell: the single engine when `shards <= 1`, else the sharded
/// backend with `shards` node groups.
cell_result run_cell(const scenario_spec& spec, std::uint64_t seed,
                     std::size_t shards);
campaign_result run_campaign(const campaign_options& opt);

}  // namespace hades::scenario
