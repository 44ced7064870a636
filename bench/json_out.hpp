// The provenance stamp every BENCH_<name>.json leads with. The document
// itself is the one JSON module's flat writer (util/json.hpp).
#pragma once

#include <unistd.h>

#include <cstdint>
#include <cstdlib>
#include <thread>

#include "util/json.hpp"

namespace hades::bench {

/// Provenance stamp every BENCH_*.json should lead with, so artifacts from
/// different runs/machines are comparable: the workload's node count, the
/// shard count, the git revision (CI's GITHUB_SHA when set,
/// else the configure-time HADES_GIT_SHA, else "unknown"), and the machine
/// (hostname + hardware thread count — perf numbers from a 2-thread runner
/// and a 64-thread workstation must never be compared blind).
inline void stamp(json::doc& d, std::size_t nodes, std::size_t shards) {
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
