#include "layer_trace.hpp"

#include <algorithm>
#include <chrono>
#include <memory>
#include <utility>

#include "services/channels.hpp"
#include "sim/runtime.hpp"

namespace e2ebench {

using namespace hades;
using clk = std::chrono::steady_clock;

namespace {

layer_times g_times;
label g_current = label::local;  // label of the running callback
double g_child_s = 0.0;          // hook time inside the running callback

double since(clk::time_point t0) {
  return std::chrono::duration<double>(clk::now() - t0).count();
}

label label_of(int channel) {
  switch (channel) {
    case 0:
    case 1:
      return label::token;
    case svc::ch_heartbeat:
    case svc::ch_fd_digest:
      return label::fd;
    case svc::ch_reliable_bcast:
    case svc::ch_reliable_p2p:
      return label::bcast;
    case svc::ch_clock_sync:
      return label::sync;
    case svc::ch_mode_capture:
      return label::capture;
    default:
      return label::other;
  }
}

void timed_call(sim::event_fn& fn) {
  g_current = label::local;
  g_child_s = 0.0;
  const auto t0 = clk::now();
  fn();
  const double self = since(t0) - g_child_s;
  const auto i = static_cast<std::size_t>(g_current);
  g_times.cb_s[i] += self;
  ++g_times.cb_n[i];
}

/// Forwards every call to the backend the built-in factory made, wrapping
/// each scheduled callback with a timer. The wrapper closure holds the
/// original callback, so it outgrows event_callback's inline buffer and is
/// heap-allocated: closure counts come from the untraced run.
class timing_runtime final : public runtime {
 public:
  explicit timing_runtime(std::unique_ptr<runtime> inner)
      : in_(std::move(inner)) {}

  [[nodiscard]] time_point now() const override { return in_->now(); }
  sim::event_id at(time_point t, sim::event_fn fn) override {
    return in_->at(t, wrap(std::move(fn)));
  }
  sim::event_id at_node(node_id dst, time_point t, sim::event_fn fn) override {
    return in_->at_node(dst, t, wrap(std::move(fn)));
  }
  sim::event_id schedule_periodic(time_point first, duration period,
                                  sim::event_fn fn) override {
    return in_->schedule_periodic(first, period, wrap(std::move(fn)));
  }
  void cancel(sim::event_id id) override { in_->cancel(id); }

  [[nodiscard]] std::uint32_t shard_of(node_id n) const override {
    return in_->shard_of(n);
  }
  [[nodiscard]] std::size_t shard_count() const override {
    return in_->shard_count();
  }
  [[nodiscard]] std::uint32_t executing_shard() const override {
    return in_->executing_shard();
  }
  [[nodiscard]] std::size_t worker_count() const override {
    return in_->worker_count();
  }
  [[nodiscard]] bool in_event_context() const override {
    return in_->in_event_context();
  }

  sim::event_batch open_batch(time_point t) override {
    return in_->open_batch(t);
  }
  sim::event_id batch_add(sim::event_batch& b, sim::event_fn fn) override {
    return in_->batch_add(b, wrap(std::move(fn)));
  }
  void commit(sim::event_batch& b) override { in_->commit(b); }

  bool step() override {
    const auto t0 = clk::now();
    const bool r = in_->step();
    g_times.run_s += since(t0);
    return r;
  }
  std::size_t run_until(time_point t) override {
    const auto t0 = clk::now();
    const std::size_t r = in_->run_until(t);
    g_times.run_s += since(t0);
    return r;
  }
  std::size_t run(std::size_t max_events) override {
    const auto t0 = clk::now();
    const std::size_t r = in_->run(max_events);
    g_times.run_s += since(t0);
    return r;
  }

  [[nodiscard]] bool empty() const override { return in_->empty(); }
  [[nodiscard]] std::size_t pending() const override { return in_->pending(); }
  [[nodiscard]] std::uint64_t executed() const override {
    return in_->executed();
  }

 private:
  static sim::event_fn wrap(sim::event_fn fn) {
    return [fn = std::move(fn)]() mutable { timed_call(fn); };
  }

  std::unique_ptr<runtime> in_;
};

/// The built-in factories' default node map: contiguous balanced blocks.
std::vector<std::uint32_t> contiguous_blocks(std::size_t node_count,
                                             std::size_t groups) {
  std::vector<std::uint32_t> map(node_count);
  for (std::size_t n = 0; n < node_count; ++n)
    map[n] = static_cast<std::uint32_t>(n * groups / node_count);
  return map;
}

}  // namespace

layer_times& traced() { return g_times; }
void reset_layer_times() { g_times = layer_times{}; }

void install_timing_backends() {
  // Force the built-in registrations first: the last registration wins, and
  // the built-ins register lazily on first use of the registry.
  (void)runtime::registered_backends();
  runtime::register_backend("sim", [](const runtime::options&) {
    return std::make_unique<timing_runtime>(sim::make_engine());
  });
  // Exactly the built-in factory's parameters: the system sets the
  // lookahead to net.delta_min; contiguous node blocks by default.
  runtime::register_backend("sharded", [](const runtime::options& o) {
    sim::sharded_params sp;
    sp.shards = o.shards != 0 ? o.shards : sim::sharded_params{}.shards;
    if (o.node_count > 0) sp.shards = std::min(sp.shards, o.node_count);
    sp.workers = o.workers;
    sp.lookahead = o.lookahead;
    sp.node_shard = !o.node_shard.empty()
                        ? o.node_shard
                        : contiguous_blocks(o.node_count, sp.shards);
    return std::make_unique<timing_runtime>(
        sim::make_sharded_engine(std::move(sp)));
  });
}

void label_deliveries(core::system& sys) {
  sys.network().set_delivery_observer(
      [](const sim::message& m) { g_current = label_of(m.channel); });
}

void time_gateway_hooks(core::system& sys, const std::vector<node_id>& nodes) {
  for (node_id n : nodes) {
    core::dispatcher& d = sys.disp(n);
    if (!d.admission_hook() || !d.retire_hook()) continue;
    d.set_admission_hook([h = d.admission_hook()](task_id t, time_point at) {
      const auto t0 = clk::now();
      const bool ok = h(t, at);
      const double s = since(t0);
      g_times.admit_s += s;
      ++g_times.admit_n;
      g_child_s += s;
      return ok;
    });
    d.set_retire_hook([h = d.retire_hook()](task_id t, instance_number k,
                                            time_point activation,
                                            time_point now, bool completed) {
      const auto t0 = clk::now();
      h(t, k, activation, now, completed);
      const double s = since(t0);
      g_times.retire_s += s;
      ++g_times.retire_n;
      g_child_s += s;
    });
  }
}

}  // namespace e2ebench
