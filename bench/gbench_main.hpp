// The main of every Google Benchmark bench that writes BENCH_<name>.json.
//
// `--json PATH` is taken out of argv before Google Benchmark sees (and
// rejects) it; every other argument is Google Benchmark's. The document
// leads with the provenance stamp, then whatever `tables` adds while it
// prints the bench's own tables, then one `<benchmark>_ns` key per run:
// its real time per iteration. A document that cannot be written makes the
// bench exit non-zero.
#pragma once

#include <benchmark/benchmark.h>

#include <cstring>
#include <string>
#include <vector>

#include "bench/json_out.hpp"

namespace hades::bench {

/// The console table, plus each run's real time per iteration in `json`.
class ns_reporter final : public benchmark::ConsoleReporter {
 public:
  explicit ns_reporter(json::doc& json)
      : ConsoleReporter(OO_None), json_(&json) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    ConsoleReporter::ReportRuns(runs);
    for (const Run& r : runs) {
      if (r.error_occurred || r.run_type != Run::RT_Iteration) continue;
      json_->num(r.benchmark_name() + "_ns",
                 r.GetAdjustedRealTime() * 1e9 /
                     benchmark::GetTimeUnitMultiplier(r.time_unit));
    }
  }

 private:
  json::doc* json_;
};

inline int gbench_main(int argc, char** argv, void (*tables)(json::doc&)) {
  std::string json_path;
  int kept = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc)
      json_path = argv[++i];
    else
      argv[kept++] = argv[i];
  }
  argc = kept;

  json::doc json;
  stamp(json, 1, 1);
  tables(json);
  ns_reporter reporter(json);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks(&reporter);
  if (!json_path.empty() && !json.write(json_path)) return 1;
  return 0;
}

}  // namespace hades::bench
