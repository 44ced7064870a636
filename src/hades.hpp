// Umbrella header: the full HADES public API.
//
// Layering (see README.md / DESIGN.md):
//   util  -> sim  -> core -> sched
//                         -> services
#pragma once

#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/time.hpp"
#include "util/types.hpp"

#include "sim/engine.hpp"
#include "sim/event.hpp"
#include "sim/hardware_clock.hpp"
#include "sim/network.hpp"
#include "sim/runtime.hpp"

#include "core/cost_model.hpp"
#include "core/dispatcher.hpp"
#include "core/monitor.hpp"
#include "core/net_task.hpp"
#include "core/processor.hpp"
#include "core/scheduling.hpp"
#include "core/system.hpp"
#include "core/task_model.hpp"

#include "sched/edf.hpp"
#include "sched/feasibility.hpp"
#include "sched/fixed_priority.hpp"
#include "sched/pcp.hpp"
#include "sched/spring.hpp"
#include "sched/srp.hpp"
#include "sched/workload.hpp"

#include "services/channels.hpp"
#include "services/clock_sync.hpp"
#include "services/consensus.hpp"
#include "services/dependency.hpp"
#include "services/fault_detector.hpp"
#include "services/mode_manager.hpp"
#include "services/reliable_comm.hpp"
#include "services/replication.hpp"
#include "services/storage.hpp"
