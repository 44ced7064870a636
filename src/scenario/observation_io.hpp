// Partial-observation files for the multi-process realtime harness.
//
// Each worker process owns a slice of the node set; after its run it
// writes only the owned slice of its observation (suspicions recorded by
// owned observers, delivery logs / send dates of owned nodes, mode data
// from the process owning the mode manager's home). The parent merges the
// partials into one complete observation and grades the same checkers the
// in-process sim reference used — verdict parity is the harness gate.
//
// Line-based text format ("hades-observation v1"), one fact per line:
// trivially diffable when a run disagrees, no dependencies.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "scenario/checkers.hpp"
#include "util/types.hpp"

namespace hades::scenario {

/// Write the slice of `obs` a worker owns: per-node data for nodes whose
/// owner bit is set in `owned`, counters and mode data only when
/// `has_mode` (exactly one process — the mode manager home's owner — sets
/// it, so merged counters are not double-counted). `extra` lines (e.g.
/// transport stats) are carried through verbatim under "x " prefixes.
void write_partial_observation(const std::string& path, const observation& obs,
                               const std::vector<bool>& owned, bool has_mode,
                               const std::vector<std::string>& extra = {});

struct merged_observation {
  observation obs;
  std::vector<std::string> extra;  // concatenated "x" lines from all partials
};

/// Merge worker partials into one checker-ready observation. Bounds,
/// horizon, and node count come from the first file (identical in all);
/// suspicion/recovery/trigger lists are concatenated and re-sorted;
/// per-node vectors come from whichever partial owns the node; counters
/// sum; mode data comes from the has_mode partial. Throws hades::error on
/// malformed or disagreeing headers, and once all files are merged, on a
/// delivery of a message no file sent or a suspicion/recovery naming a
/// node id >= nodes.
[[nodiscard]] merged_observation merge_partial_observations(
    const std::vector<std::string>& paths);

}  // namespace hades::scenario
