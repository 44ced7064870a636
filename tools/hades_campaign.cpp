// hades_campaign — the scenario-campaign CLI (DESIGN.md, "Scenario layer").
//
// Sweeps the registered fault scenarios across seeds and runtime shard
// counts {1, 2, 4} (the single engine and serial sharded rounds), grades
// the property checkers after every run, asserts bit-identical checksums
// across shard counts, and writes one JSON verdict per cell. CI runs
// `hades_campaign --smoke --out <dir>` as a required step: any checker
// violation or checksum mismatch exits non-zero.
//
// Beyond the curated sweep, the binary fronts the scenario fuzzer
// (src/scenario/fuzz.hpp): `--fuzz N` generates and replays N random
// admissible plans across the shard-count determinism matrix, guided
// by the checker-signal coverage map, shrinking any failure to a minimal
// repro; `--shrink FILE` minimizes one failing case/plan document. Both
// are byte-deterministic in --fuzz-seed.
//
// Usage: hades_campaign [--smoke] [--scale] [--list] [--scenario NAME]...
//                       [--seeds N] [--out DIR] [--jobs N]
//                       [--quiet] [--fuzz N] [--fuzz-seed S] [--shrink FILE]
//   --smoke         CI matrix: every scenario, seeds {1, 2}, shards {1,2,4}
//                   (the default is the same sweep with seeds {1..4})
//   --fuzz N        fuzz mode: run N generated cases (each across shards
//                   {1,2,4}), write coverage.json + summary.json +
//                   shrunken repros to --out, exit nonzero on any finding
//   --fuzz-seed S   the fuzz campaign seed (default 1); same seed =>
//                   byte-identical artifacts on every run and compiler
//   --shrink FILE   minimize a failing "hades-fuzz-case v1" (or bare
//                   "hades-plan v1") document and print the shrunken case
//   --scale         also sweep the 1k-node scale family (cluster_crash_1k,
//                   cluster_partition_1k) — hierarchical detector, tree
//                   diffusion, clustered clock sync
//   --list          print the registered scenarios (both families) and exit
//   --scenario NAME restrict to one scenario (repeatable; scale names work)
//   --seeds N       sweep seeds 1..N
//   --out DIR       write per-cell verdict JSONs + summary.json to DIR
//   --jobs N        run cells on N pool threads (0 = auto: half the
//                   hardware threads capped at 4; 1 = serial). Output
//                   order is deterministic regardless of N.
//   --quiet         suppress the per-cell progress lines
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "scenario/campaign.hpp"
#include "scenario/fuzz.hpp"

int main(int argc, char** argv) {
  hades::scenario::campaign_options opt;
  opt.verbose = true;
  int max_seed = 4;
  bool list = false;
  long fuzz_cases = 0;
  std::uint64_t fuzz_seed = 1;
  std::string shrink_file;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      max_seed = 2;
    } else if (arg == "--fuzz" && i + 1 < argc) {
      fuzz_cases = std::atol(argv[++i]);
      if (fuzz_cases < 1) {
        std::fprintf(stderr, "--fuzz must be >= 1\n");
        return 2;
      }
    } else if (arg == "--fuzz-seed" && i + 1 < argc) {
      fuzz_seed = static_cast<std::uint64_t>(std::atoll(argv[++i]));
    } else if (arg == "--shrink" && i + 1 < argc) {
      shrink_file = argv[++i];
    } else if (arg == "--scale") {
      opt.include_scale = true;
    } else if (arg == "--list") {
      list = true;
    } else if (arg == "--scenario" && i + 1 < argc) {
      opt.scenarios.emplace_back(argv[++i]);
    } else if (arg == "--seeds" && i + 1 < argc) {
      max_seed = std::atoi(argv[++i]);
    } else if (arg == "--jobs" && i + 1 < argc) {
      const int n = std::atoi(argv[++i]);
      if (n < 0) {
        std::fprintf(stderr, "--jobs must be >= 0\n");
        return 2;
      }
      opt.jobs = static_cast<std::size_t>(n);
    } else if (arg == "--out" && i + 1 < argc) {
      opt.out_dir = argv[++i];
    } else if (arg == "--quiet") {
      opt.verbose = false;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      return 2;
    }
  }

  if (list) {
    for (const auto& s : hades::scenario::all_scenarios())
      std::printf("%-20s %s\n", s.name.c_str(), s.description.c_str());
    for (const auto& s : hades::scenario::scale_scenarios())
      std::printf("%-20s %s\n", s.name.c_str(), s.description.c_str());
    return 0;
  }

  for (const std::string& name : opt.scenarios) {
    try {
      hades::scenario::find_scenario(name);
    } catch (const std::exception&) {
      std::fprintf(stderr, "unknown scenario: %s (see --list)\n",
                   name.c_str());
      return 2;
    }
  }

  if (!shrink_file.empty()) {
    std::ifstream f(shrink_file);
    if (!f) {
      std::fprintf(stderr, "--shrink: cannot read %s\n", shrink_file.c_str());
      return 2;
    }
    std::ostringstream text;
    text << f.rdbuf();
    try {
      const auto c = hades::scenario::fuzz_case_from_json(text.str());
      const auto v = hades::scenario::run_matrix(c, opt.jobs);
      if (v.passed) {
        std::printf("case %s passes the full matrix — nothing to shrink\n",
                    c.spec.name.c_str());
        return 0;
      }
      std::printf("shrinking %s (signature: %s)\n", c.spec.name.c_str(),
                  v.failure_signature.c_str());
      const auto shrunk = hades::scenario::shrink_case(
          c, v.failure_signature, opt.jobs, opt.verbose);
      const std::string doc = hades::scenario::fuzz_case_to_json(shrunk);
      std::printf("%s", doc.c_str());
      if (!opt.out_dir.empty()) {
        std::filesystem::create_directories(opt.out_dir);
        std::ofstream out(std::filesystem::path(opt.out_dir) /
                          "shrunk.json");
        out << doc;
      }
      return 0;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "--shrink: %s\n", e.what());
      return 2;
    }
  }

  if (fuzz_cases > 0) {
    hades::scenario::fuzz_options fopt;
    fopt.campaign_seed = fuzz_seed;
    fopt.cases = static_cast<std::size_t>(fuzz_cases);
    fopt.jobs = opt.jobs;
    fopt.out_dir = opt.out_dir;
    fopt.verbose = opt.verbose;
    const auto res = hades::scenario::run_fuzz(fopt);
    std::printf(
        "\nfuzz: %zu cases, corpus %zu, coverage %zu bits, %zu failures — "
        "%s\n",
        res.cases_run, res.corpus_size, res.coverage.popcount(),
        res.failing.size(), res.failing.empty() ? "PASS" : "FAIL");
    for (std::size_t i = 0; i < res.failing.size(); ++i) {
      std::printf("  FAIL %s (%s), shrunken to %zu actions:\n%s",
                  res.failing[i].spec.name.c_str(),
                  res.failure_signatures[i].c_str(),
                  res.shrunken[i].spec.p.actions.size(),
                  hades::scenario::fuzz_case_to_json(res.shrunken[i]).c_str());
    }
    return res.failing.empty() ? 0 : 1;
  }

  if (max_seed < 1) {
    std::fprintf(stderr, "--seeds must be >= 1\n");
    return 2;
  }
  opt.seeds.clear();
  for (int s = 1; s <= max_seed; ++s)
    opt.seeds.push_back(static_cast<std::uint64_t>(s));

  const auto result = hades::scenario::run_campaign(opt);
  std::printf("\ncampaign: %zu cells, %zu failures — %s\n",
              result.cells.size(), result.failures.size(),
              result.passed ? "PASS" : "FAIL");
  for (const auto& f : result.failures)
    std::printf("  FAIL %s\n", f.c_str());
  // A checksum divergence is a determinism bug: dump the offending plan
  // so the failing timeline replays (e.g. via --shrink) without the
  // binary's scenario registry.
  for (const auto& p : result.diverged_plans)
    std::printf("diverged plan:\n%s\n", p.c_str());
  return result.passed ? 0 : 1;
}
