// Runtime backend registry (the `runtime::make` factory) plus the built-in
// registrations. Lives in src/rt — the one layer allowed to name every
// concrete backend — so composition layers (core::system, the scenario
// deployment, tools) select backends by name only.
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "rt/realtime_engine.hpp"
#include "sim/runtime.hpp"
#include "util/error.hpp"

namespace hades {

namespace {

struct registry {
  std::mutex mu;
  std::map<std::string, runtime::factory_fn> backends;
};

registry& the_registry() {
  static registry r;
  return r;
}

/// The default node map every built-in multi-group backend shares:
/// contiguous balanced blocks (`n * groups / node_count`). Workloads place
/// communicating tasks on neighbouring node ids, so blocks minimize
/// cross-group traffic — and the sharded/realtime backends agree on
/// placement, which the sim-vs-real harness relies on.
std::vector<std::uint32_t> contiguous_blocks(std::size_t node_count,
                                             std::size_t groups) {
  std::vector<std::uint32_t> map(node_count);
  for (std::size_t n = 0; n < node_count; ++n)
    map[n] = static_cast<std::uint32_t>(n * groups / node_count);
  return map;
}

}  // namespace

void runtime::register_backend(const std::string& name, factory_fn f) {
  validate(!name.empty(), "runtime::register_backend: empty backend name");
  validate(f != nullptr, "runtime::register_backend: null factory");
  registry& r = the_registry();
  std::lock_guard lk(r.mu);
  r.backends[name] = std::move(f);  // last registration wins
}

std::unique_ptr<runtime> runtime::make(const options& o) {
  rt::register_builtin_backends();
  runtime::factory_fn f;
  {
    registry& r = the_registry();
    std::lock_guard lk(r.mu);
    auto it = r.backends.find(o.backend);
    validate(it != r.backends.end(),
             "runtime::make: unknown backend \"" + o.backend + "\"");
    f = it->second;
  }
  return f(o);
}

std::vector<std::string> runtime::registered_backends() {
  rt::register_builtin_backends();
  registry& r = the_registry();
  std::lock_guard lk(r.mu);
  std::vector<std::string> names;
  names.reserve(r.backends.size());
  for (const auto& [name, f] : r.backends) names.push_back(name);
  return names;  // std::map iterates sorted
}

namespace rt {

void register_builtin_backends() {
  static std::once_flag once;
  std::call_once(once, [] {
    runtime::register_backend(
        "sim", [](const runtime::options&) { return sim::make_engine(); });

    runtime::register_backend("sharded", [](const runtime::options& o) {
      sim::sharded_params sp;
      sp.shards = o.shards != 0 ? o.shards : sim::sharded_params{}.shards;
      if (o.node_count > 0) sp.shards = std::min(sp.shards, o.node_count);
      sp.workers = o.workers;  // the engine rejects anything but 0
      sp.lookahead = o.lookahead;
      sp.node_shard = !o.node_shard.empty()
                          ? o.node_shard
                          : contiguous_blocks(o.node_count, sp.shards);
      return sim::make_sharded_engine(std::move(sp));
    });

    runtime::register_backend("realtime", make_realtime_engine);
  });
}

}  // namespace rt

}  // namespace hades
