// Shared vocabulary identifiers used across HADES modules.
#pragma once

#include <cstdint>

namespace hades {

/// Index of a processing node (one mono-processor machine of the LAN).
using node_id = std::uint32_t;

/// System-wide task (HEUG) identifier.
using task_id = std::uint32_t;

/// Index of an elementary unit inside one HEUG.
using eu_index = std::uint32_t;

/// System-wide resource identifier (resources are local to one node).
using resource_id = std::uint32_t;

/// System-wide condition-variable identifier.
using condition_id = std::uint32_t;

/// Identifier of one activation of a task (instance number, starting at 0).
using instance_number = std::uint64_t;

inline constexpr node_id invalid_node = ~node_id{0};
inline constexpr task_id invalid_task = ~task_id{0};

/// Scheduling priority. Higher value means more urgent.
using priority = std::int32_t;

/// Priority bands (paper section 3.1.2: [prio_min, prio_max], with prio_max
/// reserved for kernel mechanisms and the scheduler above all applications).
namespace prio {
inline constexpr priority idle = 0;
inline constexpr priority min_app = 1;
inline constexpr priority max_app = 1'000'000;  // wide band so EDF can re-rank freely
inline constexpr priority scheduler = max_app + 1;
inline constexpr priority net_task = max_app + 2;
inline constexpr priority kernel = max_app + 10;  // prio_max of the paper
inline constexpr priority interrupt = kernel + 1;
}  // namespace prio

/// Strongly-typed handle to one kernel thread of a simulated processor.
struct kthread_id {
  std::uint64_t value = 0;
  friend constexpr bool operator==(kthread_id, kthread_id) = default;
  friend constexpr auto operator<=>(kthread_id, kthread_id) = default;
};

inline constexpr kthread_id invalid_kthread{0};

}  // namespace hades
