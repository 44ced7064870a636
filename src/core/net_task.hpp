// The network-management task (paper section 3.1).
//
// Remote precedence constraints "model the invocation of a task net_mngt
// implementing the communication protocol of a particular hardware and
// software configuration". Modelling the network as an independent task
// lets applications be designed independently of the protocol, and lets the
// protocol be assigned its own scheduling parameters — here, a kernel
// thread at a configurable priority that consumes `net_task_per_msg` CPU
// per outbound message before handing the frame to the wire.
//
// Inbound frames cost `w_net` in interrupt context (the ATM-card handler of
// paper section 4.2) before being demultiplexed by channel. The channel
// table belongs to the owning `system`, one handler per channel for every
// node (`system::on_channel`); the task reads it when the NIC interrupt
// completes and passes its own node id. The system registers channel 0
// (dispatcher control tokens) and channel 1 (system replies); services
// register their own channels once each.
#pragma once

#include <functional>
#include <vector>

#include "core/cost_model.hpp"
#include "core/processor.hpp"
#include "sim/network.hpp"
#include "util/ring.hpp"
#include "util/types.hpp"

namespace hades::core {

/// The consumer of one inbound channel on every node of a system
/// (`system::on_channel`), called with the receiving node's id.
using channel_handler = std::function<void(node_id, const sim::message&)>;

class net_task {
 public:
  /// `channels` is the owning system's channel table, indexed by channel
  /// id, and `costs` its cost model; both outlive the task and are only
  /// read here.
  net_task(processor& cpu, sim::network& net, node_id node,
           const std::vector<channel_handler>& channels,
           const cost_model& costs, priority prio = prio::net_task);
  ~net_task();
  net_task(const net_task&) = delete;
  net_task& operator=(const net_task&) = delete;

  /// Queue a message for transmission through the protocol task.
  void send(node_id dst, int channel, sim::wire_payload payload,
            std::size_t size_bytes = 64);

  /// Send to every attached node except this one. The pooled payload is
  /// shared across the fan-out by refcount, never deep-copied.
  void send_all(int channel, const sim::wire_payload& payload,
                std::size_t size_bytes = 64);

  /// Stop processing (node crash): pending messages are dropped and inbound
  /// frames ignored.
  void halt();
  /// Undo `halt` (node recovery): the NIC listens again and the protocol
  /// thread accepts new outbound messages. The pre-crash queue stays lost.
  void resume();
  [[nodiscard]] bool halted() const { return halted_; }

  [[nodiscard]] node_id node() const { return node_; }
  [[nodiscard]] std::uint64_t sent() const { return sent_; }
  [[nodiscard]] std::uint64_t received() const { return received_; }

 private:
  struct outbound {
    node_id dst;
    int channel;
    sim::wire_payload payload;
    std::size_t size_bytes;
  };

  void pump();              // ensure the protocol thread is working
  void transmit_head();     // thread completion: put the head on the wire
  void on_frame(sim::message& m);

  processor* cpu_;
  sim::network* net_;
  node_id node_;
  const std::vector<channel_handler>* table_;  // the system's, by channel
  const cost_model* costs_;                    // the system's
  kthread_id thread_;
  bool thread_busy_ = false;
  bool halted_ = false;
  ring_fifo<outbound> queue_;
  std::uint64_t sent_ = 0;
  std::uint64_t received_ = 0;
};

}  // namespace hades::core
