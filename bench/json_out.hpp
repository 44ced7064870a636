// Machine-readable benchmark output: each bench binary can emit one flat
// `BENCH_<name>.json` file (ns/op, allocs/op, throughput, speedups) next to
// its human-readable table, so CI can upload comparable artifacts and gate
// on numbers instead of scraping stdout. Keys are emitted in insertion
// order; values are numbers or strings only — deliberately minimal.
#pragma once

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace hades::bench {

class json_doc {
 public:
  void num(const std::string& key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.6g", v);
    fields_.emplace_back(key, buf);
  }
  void num(const std::string& key, std::uint64_t v) {
    fields_.emplace_back(key, std::to_string(v));
  }
  void str(const std::string& key, const std::string& v) {
    fields_.emplace_back(key, '"' + v + '"');
  }

  /// Write the document to `path`. Returns false (and says so on stderr)
  /// when the file cannot be created.
  bool write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "json_doc: cannot write %s\n", path.c_str());
      return false;
    }
    std::fprintf(f, "{\n");
    for (std::size_t i = 0; i < fields_.size(); ++i)
      std::fprintf(f, "  \"%s\": %s%s\n", fields_[i].first.c_str(),
                   fields_[i].second.c_str(),
                   i + 1 < fields_.size() ? "," : "");
    std::fprintf(f, "}\n");
    std::fclose(f);
    return true;
  }

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

/// Provenance stamp every BENCH_*.json should lead with, so artifacts from
/// different runs/machines are comparable: the workload's node count, the
/// shard count, the git revision (CI's GITHUB_SHA when set,
/// else the configure-time HADES_GIT_SHA, else "unknown"), and the machine
/// (hostname + hardware thread count — perf numbers from a 2-thread runner
/// and a 64-thread workstation must never be compared blind).
inline void stamp(json_doc& d, std::size_t nodes, std::size_t shards) {
  d.num("nodes", static_cast<std::uint64_t>(nodes));
  d.num("shards", static_cast<std::uint64_t>(shards));
  const char* sha = std::getenv("GITHUB_SHA");
#ifdef HADES_GIT_SHA
  if (sha == nullptr || *sha == '\0') sha = HADES_GIT_SHA;
#endif
  d.str("git_sha", sha != nullptr && *sha != '\0' ? sha : "unknown");
  char host[256] = {};
  if (::gethostname(host, sizeof host - 1) != 0) host[0] = '\0';
  d.str("hostname", host[0] != '\0' ? host : "unknown");
  d.num("hw_concurrency",
        static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
}

}  // namespace hades::bench
