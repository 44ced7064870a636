#include "traffic/gateway.hpp"

#include <algorithm>

#include "util/error.hpp"
#include "util/fnv.hpp"

namespace hades::traffic {

gateway::gateway(core::system& sys, node_id node, gateway_config cfg,
                 std::uint64_t seed)
    : sys_(sys), rt_(sys.engine()), node_(node), cfg_(std::move(cfg)),
      arr_([&] {
        arrival_params p = cfg_.arrivals;
        p.classes = cfg_.classes.data();
        p.class_count = static_cast<std::uint32_t>(cfg_.classes.size());
        return p;
      }(), seed, node),
      ctrl_(cfg_.admission) {
  require(!cfg_.classes.empty(), "gateway: need at least one request class");
  require(node < sys.node_count(), "gateway: node out of range");
  owner_.reserve(std::min(cfg_.admission.max_outstanding,
                          admission_controller::reserved_slots));
}

std::int32_t gateway::class_of(task_id t) const {
  for (std::size_t i = 0; i < tasks_.size(); ++i)
    if (tasks_[i] == t) return static_cast<std::int32_t>(i);
  return -1;
}

void gateway::start() {
  require(!started_, "gateway: started twice");
  started_ = true;

  for (std::size_t c = 0; c < cfg_.classes.size(); ++c) {
    const request_class& rc = cfg_.classes[c];
    core::task_builder b("gw" + std::to_string(node_) + "_c" +
                         std::to_string(c));
    b.deadline(rc.deadline)
        .law(core::arrival_law::aperiodic())
        .abort_on_deadline_miss(true);
    b.add_code_eu("serve", node_, rc.cost);
    tasks_.push_back(sys_.register_task(b.build()));
  }

  // Shed victims abort their instance; un-mapping first makes the retire
  // hook below a no-op for them (their charge was already released).
  ctrl_.on_shed([this](admission_controller::handle h) {
    const auto [t, k] = owner_[h];
    owner_[h] = {invalid_task, instance_number{0}};
    sys_.abort_instance(t, k, "shed: value density", /*as_rejection=*/true);
  });

  auto& d = sys_.disp(node_);
  d.set_admission_hook([this](task_id t, time_point now) {
    if (class_of(t) < 0 || !pending_valid_) return true;
    pending_valid_ = false;
    last_ = ctrl_.offer(pending_, now);
    return last_.admitted;
  });
  d.set_retire_hook([this](task_id t, instance_number k, time_point act,
                           time_point now, bool completed) {
    const auto it = std::find(owner_.begin(), owner_.end(), std::pair{t, k});
    if (it == owner_.end()) return;  // not admitted here, or already shed
    *it = {invalid_task, instance_number{0}};
    ctrl_.complete(
        static_cast<admission_controller::handle>(it - owner_.begin()));
    if (completed) {
      latency_.record((now - act).count());
    } else {
      ++missed_;
    }
  });

  arm_next();
  const time_point first = cfg_.start + cfg_.revalidate_period;
  rt_.periodic_at_node(node_, first, cfg_.revalidate_period,
                       [this] {
                         if (!sys_.crashed(node_))
                           ctrl_.revalidate(rt_.now());
                       },
                       cfg_.stop);
}

void gateway::arm_next() {
  const time_point at = cfg_.start + (arr_.peek() - time_point::zero());
  if (at >= cfg_.stop) return;
  rt_.at_node(node_, at, [this] { fire(); });
}

void gateway::fire() {
  if (!sys_.crashed(node_)) {
    pending_ = arr_.take();
    pending_valid_ = true;
    last_ = {};
    core::system::activation_origin origin;
    origin.k = core::system::activation_origin::kind::external;
    const task_id t = tasks_[pending_.klass];
    const auto k = sys_.activate_internal(t, origin);
    pending_valid_ = false;
    if (k.has_value() && last_.admitted) {
      // Handles stay below the controller pool's high-water (an admit takes
      // the lowest free slot), so the table grows inside its reservation as
      // the load deepens.
      if (last_.h >= owner_.size())
        owner_.resize(last_.h + 1, {invalid_task, instance_number{0}});
      owner_[last_.h] = {t, *k};
    }
  } else {
    (void)arr_.take();  // the stream keeps its draw count while down
  }
  arm_next();
}

void gateway::renegotiate(double available) {
  ++renegotiations_;
  ctrl_.renegotiate(available, rt_.now());
}

gateway::totals gateway::snapshot() const {
  const auto& s = ctrl_.stats();
  totals t;
  t.offered = s.offered;
  t.admitted = s.admitted;
  t.rejected = s.rejected;
  t.shed = s.shed;
  // controller `completed` counts every complete() call — timely finishes
  // and deadline-miss retires both release their charge that way.
  t.completed = s.completed - missed_;
  t.missed = missed_;
  t.revalidations = s.revalidations;
  t.revalidation_failures = s.revalidation_failures;
  t.renegotiations = renegotiations_;
  return t;
}

std::uint64_t gateway::digest() const {
  return fnv1a{ctrl_.stream_digest()}
      .mix(latency().digest())
      .mix(missed_)
      .mix(renegotiations_)
      .value();
}

}  // namespace hades::traffic
