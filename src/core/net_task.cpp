#include "core/net_task.hpp"

namespace hades::core {

net_task::net_task(processor& cpu, sim::network& net, node_id node,
                   const std::vector<channel_handler>& channels,
                   const cost_model& costs, priority prio)
    : cpu_(&cpu), net_(&net), node_(node), table_(&channels), costs_(&costs) {
  thread_ = cpu_->create("net_mngt@" + std::to_string(node), prio, prio,
                         duration::zero(), [this] { transmit_head(); });
  net_->attach(node_, [this](sim::message& m) { on_frame(m); });
}

net_task::~net_task() {
  if (net_->attached(node_)) net_->detach(node_);
  if (cpu_->exists(thread_)) cpu_->destroy(thread_);
}

void net_task::send(node_id dst, int channel, sim::wire_payload payload,
                    std::size_t size_bytes) {
  if (halted_) return;
  queue_.push_back({dst, channel, std::move(payload), size_bytes});
  pump();
}

void net_task::send_all(int channel, const sim::wire_payload& payload,
                        std::size_t size_bytes) {
  net_->for_each_attached([&](node_id n) {
    if (n != node_) send(n, channel, payload, size_bytes);
  });
}

void net_task::pump() {
  if (halted_ || thread_busy_ || queue_.empty()) return;
  thread_busy_ = true;
  cpu_->add_work(thread_, costs_->net_task_per_msg);
  cpu_->make_runnable(thread_);
}

void net_task::transmit_head() {
  thread_busy_ = false;
  if (halted_ || queue_.empty()) return;
  outbound out = queue_.pop_front();
  ++sent_;
  net_->unicast(node_, out.dst, out.channel, std::move(out.payload),
                out.size_bytes);
  pump();
}

void net_task::on_frame(sim::message& m) {
  if (halted_) return;
  // The ATM-card interrupt handler (w_net at interrupt priority) runs
  // first; the frame is demultiplexed when the handler completes. The
  // frame moves into the handler's body: the wire is done with it.
  cpu_->post_interrupt(
      cpu_->tracing() ? "nic@" + std::to_string(node_) : std::string(),
      costs_->w_net, [this, m = std::move(m)] {
        if (halted_) return;
        ++received_;
        const auto ch = static_cast<std::size_t>(m.channel);
        if (ch < table_->size() && (*table_)[ch]) (*table_)[ch](node_, m);
      });
}

void net_task::halt() {
  halted_ = true;
  queue_.clear();
  thread_busy_ = false;
  // Stay attached to the LAN: the wire-level node-down state
  // (network::set_node_down, driven by system::crash_node) is what silences
  // the node in both directions, and it is time-indexed so in-flight frames
  // are judged against the node state at their own delivery date. The
  // halted_ flag is the belt to that suspender for inbound frames.
  if (cpu_->exists(thread_)) cpu_->suspend(thread_);
}

void net_task::resume() {
  if (!halted_) return;
  halted_ = false;
  thread_busy_ = false;
  if (!net_->attached(node_))
    net_->attach(node_, [this](sim::message& m) { on_frame(m); });
}

}  // namespace hades::core
