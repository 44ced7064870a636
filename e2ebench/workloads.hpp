// The benchmark's three workloads. Every scenario spec and fault plan is
// defined here, copied from the scenario registry (src/scenario/scenarios.cpp)
// where one exists, so an edit to the registry or to the fuzzer cannot change
// what the benchmark measures. See NOTES.md for why each workload exists.
#pragma once

#include <string>
#include <vector>

#include "scenario/deployment.hpp"
#include "scenario/scenarios.hpp"

namespace e2ebench {

struct workload {
  std::string name;
  /// Cells run back to back in one process (one for fleet_1k and edge_16,
  /// fourteen for sweep_8).
  std::vector<hades::scenario::scenario_spec> cells;
  /// Backend and shard count, selected through `runtime::options`.
  hades::runtime::options backend;
};

/// The workload called `name` ("fleet_1k", "edge_16" or "sweep_8"); throws
/// std::invalid_argument for any other name.
workload make_workload(const std::string& name);

/// Deployment options for one cell of `w` under deployment seed `seed`.
hades::scenario::deployment_options cell_options(const workload& w,
                                                 std::uint64_t seed);

}  // namespace e2ebench
