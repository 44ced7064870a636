// Dispatcher <-> scheduler cooperation interface (paper section 3.2.2).
//
// Every scheduler is a task with a statically-defined priority above all
// application threads. The dispatcher notifies it through a shared FIFO
// queue — thread activations (Atv), terminations (Trm) and resource
// access / release requests (Rac / Rre) — and the scheduler reacts by
// calling the dispatcher primitive, which can modify a thread's priority
// and/or earliest start time. Everything a concrete scheduling policy may
// observe or do flows through the two interfaces below.
#pragma once

#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "core/task_model.hpp"
#include "util/time.hpp"
#include "util/types.hpp"

namespace hades::core {

enum class notification_kind { atv, trm, rac, rre };

[[nodiscard]] constexpr const char* to_string(notification_kind k) {
  switch (k) {
    case notification_kind::atv: return "Atv";
    case notification_kind::trm: return "Trm";
    case notification_kind::rac: return "Rac";
    case notification_kind::rre: return "Rre";
  }
  return "?";
}

/// Static and per-instance facts about the EU behind a thread; what a
/// scheduling policy is allowed to know. Names and resource claims are
/// views into the registered task graph, which outlives every instance, so
/// the struct (and a `notification` carrying it) is trivially copyable.
struct eu_info {
  task_id task = invalid_task;
  std::string_view task_name;
  instance_number instance = 0;
  eu_index eu = 0;
  std::string_view eu_name;
  node_id node = 0;
  time_point activation;              // instance activation date
  time_point absolute_deadline;       // activation + task deadline
  duration relative_deadline = duration::infinity();  // task D
  duration period = duration::infinity();             // task period / pseudo-period
  duration wcet = duration::zero();
  std::span<const resource_claim> resources;
  priority static_priority = prio::min_app;
};

struct notification {
  notification_kind kind = notification_kind::atv;
  kthread_id thread;
  eu_info info;
  time_point at;  // insertion date
};
static_assert(std::is_trivially_copyable_v<notification>);

/// The dispatcher-side API handed to a policy while it handles one
/// notification. Priority / earliest changes are the paper's primitive.
class scheduler_context {
 public:
  virtual ~scheduler_context() = default;

  [[nodiscard]] virtual time_point now() const = 0;

  /// Dispatcher primitive: change the priority of a live thread.
  virtual void set_priority(kthread_id t, priority p) = 0;

  /// Dispatcher primitive: change the earliest start time of a thread that
  /// has not started yet. `time_point::infinity()` holds it indefinitely.
  virtual void set_earliest(kthread_id t, time_point earliest) = 0;

  /// Convenience forms of set_earliest used by resource protocols.
  void hold(kthread_id t) { set_earliest(t, time_point::infinity()); }
  void release(kthread_id t) { set_earliest(t, now()); }

  /// Facts about a live thread (valid between its Atv and Trm).
  [[nodiscard]] virtual const eu_info& info(kthread_id t) const = 0;
  [[nodiscard]] virtual bool alive(kthread_id t) const = 0;

  /// Reject an activation: abort the whole task instance this thread
  /// belongs to (admission control, e.g. planning-based schedulers).
  virtual void reject_instance(kthread_id t, std::string_view reason) = 0;
};

/// A scheduling policy (the application-domain-specific part of HADES).
class policy {
 public:
  virtual ~policy() = default;

  [[nodiscard]] virtual std::string name() const = 0;

  /// Handle one FIFO notification; runs at scheduler priority after the
  /// scheduler consumed its per-event cost.
  virtual void handle(const notification& n, scheduler_context& ctx) = 0;

  /// True when the policy wants to arbitrate resource grants itself: the
  /// dispatcher will then *not* grant resources to an EU until the policy
  /// releases it (via set_earliest), paper footnote 2 (PCP). For such
  /// policies Rac is emitted at *request* time; for non-gating policies it
  /// is emitted when the grant actually happens (so protocols like SRP can
  /// track ceilings exactly).
  [[nodiscard]] virtual bool gates_resources() const { return false; }

  /// True when the policy arbitrates job *starts*: every Code_EU is held at
  /// activation until the policy releases it while processing the Atv
  /// notification (SRP's start gate, Spring's planned start times). Because
  /// the scheduler outranks all application threads, the decision is always
  /// made before the unit could run.
  [[nodiscard]] virtual bool gates_activation() const { return false; }

  /// Called once when attached to a node's dispatcher.
  virtual void attach(scheduler_context&) {}
};

}  // namespace hades::core
