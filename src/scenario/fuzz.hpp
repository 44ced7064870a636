// Coverage-guided scenario fuzzing with failing-plan minimization
// (DESIGN.md, "Scenario fuzzing & minimization"; ROADMAP item 4).
//
// The fuzzer closes the loop around the scenario layer: a seed-derived
// generator emits random-but-admissible fault plans over every action kind
// (crash/recover pairing, partition group sampling, channel-scoped omission
// bursts, probabilistic storms, clock faults, link asymmetry, traffic-edge
// overload), each case replays across the shard-count matrix {1, 2, 4},
// and a checker-signal coverage map (scenario/coverage.hpp) feeds novelty
// back into the mutator: cases that light up new (fault combination ×
// timing window × checker branch) bits join the corpus the mutator perturbs
// next. A failing case — any red checker or a cross-matrix checksum
// mismatch — is handed to a delta-debugging shrinker that reduces it to a
// minimal repro (action removal, timeline compression, node-count
// reduction), re-running every candidate across the whole matrix and
// accepting it only when the *same* checker still fails.
//
// Admissibility is by construction, not by filtering: the generator never
// crashes node 0 (the mode manager's home) or a gateway node, keeps
// heartbeat-channel bursts at or under the detector's omission degree,
// keeps probabilistic storm windows disjoint from unreachability windows
// (a recovery graded inside a storm is flaky by design), sizes Byzantine
// clock counts against 3f+1, and derives the expected final mode from the
// crash count — so a red checker in a fuzz campaign is a real finding, not
// a mis-specified expectation.
//
// Everything here is deterministic: `--fuzz N --fuzz-seed S` writes
// byte-identical artifacts on every run, every compiler, every --jobs.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "scenario/campaign.hpp"
#include "scenario/coverage.hpp"
#include "scenario/scenarios.hpp"

namespace hades::scenario {

/// One generated test: a full scenario spec (plan + workload knobs +
/// checker expectations) plus the deployment seed it replays under.
struct fuzz_case {
  std::uint64_t case_seed = 1;
  scenario_spec spec;
};

/// Deterministically generate the `index`-th fresh case of the fuzz
/// campaign seeded by `campaign_seed`. Pure: the same (seed, index) yields
/// the same case on every compiler — the generator draws integers only and
/// converts rates through single correctly-rounded ppm divisions.
[[nodiscard]] fuzz_case generate_case(std::uint64_t campaign_seed,
                                      std::uint64_t index);

/// Recompute the checker expectations a generated plan implies: the
/// expected final mode from the crash count against the spec's thresholds,
/// and expect_order_faults from any active performance-fault window. The
/// mutator calls this after structural edits so expectations stay truthful.
void recompute_expectations(scenario_spec& spec);

/// JSON round-trip for a fuzz case ("hades-fuzz-case v1"): the generation
/// knobs plus the embedded "hades-plan v1" timeline — everything a replay
/// or a `--shrink` invocation needs, with exact-integer encodings so
/// parse(render(c)) replays bit-identically.
[[nodiscard]] std::string fuzz_case_to_json(const fuzz_case& c);
[[nodiscard]] fuzz_case fuzz_case_from_json(const std::string& text);

/// Verdict of one case replayed across the determinism matrix —
/// shards {1, 2, 4} (shards 1 is the single engine).
struct matrix_verdict {
  bool passed = false;           // every checker green on every cell + match
  bool checksums_match = false;  // bit-identical across the matrix
  std::uint64_t reference_checksum = 0;
  /// The failure signature the shrinker must preserve: the first failing
  /// checker's name in matrix order, or "campaign.checksum_match" when the
  /// checkers are green but the matrix diverged. Empty when passed.
  std::string failure_signature;
  std::vector<check_result> reference_checks;  // shards=1 cell
  coverage_map coverage;
};

matrix_verdict run_matrix(const fuzz_case& c, std::size_t jobs = 1);

/// ddmin a failing case to a minimal repro: chunked action removal, then
/// timeline compression, then node-count reduction, looped to fixpoint.
/// Every candidate must validate() clean and re-fail the full matrix with
/// `signature` before acceptance, so the shrunken case is a true repro of
/// the same defect. Idempotent: shrinking a shrunken case returns it.
[[nodiscard]] fuzz_case shrink_case(const fuzz_case& failing,
                                    const std::string& signature,
                                    std::size_t jobs = 1,
                                    bool verbose = false);

struct fuzz_options {
  std::uint64_t campaign_seed = 1;
  std::size_t cases = 50;
  /// Thread-pool width for the matrix cells of each case (parallel_for
  /// semantics: 0 = auto, 1 = serial). Cases themselves run in sequence —
  /// the corpus evolves case-by-case and must not race.
  std::size_t jobs = 0;
  std::string out_dir;   // coverage.json, summary.json, failing/shrunken repros
  bool verbose = false;  // one line per case
};

struct fuzz_result {
  std::uint64_t campaign_seed = 1;
  std::size_t cases_run = 0;
  std::size_t corpus_size = 0;  // cases that contributed new coverage bits
  coverage_map coverage;
  std::vector<fuzz_case> failing;             // original failing cases
  std::vector<fuzz_case> shrunken;            // 1:1 with `failing`
  std::vector<std::string> failure_signatures;  // 1:1 with `failing`
  [[nodiscard]] std::string summary_json() const;
};

/// Run the campaign: case 0 replays the curated mutation anchor
/// (replication_failover_rolling_crashes), later cases alternate between
/// fresh generation and corpus mutation, every case runs the full matrix,
/// and every failure is shrunk before returning.
fuzz_result run_fuzz(const fuzz_options& opt);

}  // namespace hades::scenario
