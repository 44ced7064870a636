// Zero-allocation gate for the simulated kernel's per-event path.
//
// With tracing off, a warmed-up `core::system` must move frames through
// net_task::send -> wire -> NIC interrupt -> channel handler, cycle kernel
// threads through make_runnable / set_priority / completion, and run task
// instances from activation to completion (shards, threads, scheduler
// notifications, precedence tokens, instance records), without a single
// heap allocation. Reading the observation log back must not allocate
// either, nor recording a monitor event once its names are interned, an
// overloaded gateway's sheds included, nor a service's per-round work
// while it has no trace text to format. Underneath it all, the
// event core schedules, cancels and runs from its pools. The counting
// global operator new (bench/alloc_count.hpp) sees every allocation in the
// process; each phase runs once to warm the pools, rings and queues up to
// their high-water mark, then once more under the counter with the
// identical pattern. The in-order dedup insert that every reliable-comm
// receive runs is held to the same bar, and so are a total-order broadcast
// storm and a chain of realtime events, late wakes included. Construction
// may allocate, but building services on a 1,000-node system must cost
// fewer allocations than there are nodes. Storage is held to what is used:
// a short monitor log takes a short block, and a latency histogram only
// the ranges it counts.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <memory>
#include <new>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench/alloc_count.hpp"
#include "core/system.hpp"
#include "rt/realtime_engine.hpp"
#include "sched/edf.hpp"
#include "services/clock_sync.hpp"
#include "services/fault_detector.hpp"
#include "services/reliable_comm.hpp"
#include "sim/engine.hpp"
#include "traffic/gateway.hpp"
#include "util/hdr_histogram.hpp"

namespace hades::core {
namespace {

using namespace hades::literals;

constexpr int kChannel = 7;

// Characterized costs (so every frame pays net_task_per_msg on the sender
// and a w_net NIC interrupt on the receiver, and clock interrupts tick
// underneath), tracing off, fixed link delay.
system::config quiet_kernel() {
  system::config cfg;
  cfg.costs = cost_model::chorus_like();
  cfg.tracing = false;
  cfg.net.delta_min = 20_us;
  cfg.net.delta_max = 20_us;
  cfg.net.per_byte = 0_ns;
  return cfg;
}

// A payload that lives in the wire's pooled blocks rather than inline.
struct frame_body {
  std::uint64_t words[6] = {};
};

// A block stored here has escaped, so no new/delete pair can be elided.
void* volatile g_escaped = nullptr;

// The counter itself: every replaceable form counts once and gives its
// bytes back on delete. std::stable_sort takes its scratch buffer from the
// nothrow form and frees it with plain delete; a counter that replaced only
// some forms would pair an allocator's new with another's delete there.
TEST(KernelAllocTest, CounterSeesEveryReplaceableForm) {
  const std::align_val_t al{64};
  void* p = nullptr;
  alloc_count::reset_peak();
  const std::uint64_t live = alloc_count::live_bytes();
  const auto one = [&](auto make) {
    return alloc_count::calls_during([&] { g_escaped = p = make(); });
  };

  EXPECT_EQ(one([] { return ::operator new(24); }), 1u);
  ::operator delete(p);
  EXPECT_EQ(one([] { return ::operator new[](24); }), 1u);
  ::operator delete[](p);
  EXPECT_EQ(one([&] { return ::operator new(24, al); }), 1u);
  ::operator delete(p, al);
  EXPECT_EQ(one([&] { return ::operator new[](24, al); }), 1u);
  ::operator delete[](p, al);
  EXPECT_EQ(one([] { return ::operator new(24, std::nothrow); }), 1u);
  ::operator delete(p, std::nothrow);
  EXPECT_EQ(one([] { return ::operator new[](24, std::nothrow); }), 1u);
  ::operator delete[](p);
  EXPECT_EQ(one([&] { return ::operator new(24, al, std::nothrow); }), 1u);
  ::operator delete(p, al, std::nothrow);
  EXPECT_EQ(alloc_count::live_bytes(), live);
  EXPECT_GE(alloc_count::peak_bytes(), live + 24);

  std::vector<int> v(256);
  for (std::size_t i = 0; i < v.size(); ++i)
    v[i] = static_cast<int>((i * 37) % v.size());
  const std::uint64_t unsorted = alloc_count::live_bytes();
  EXPECT_GE(alloc_count::calls_during(
                [&] { std::stable_sort(v.begin(), v.end()); }),
            1u);
  EXPECT_TRUE(std::is_sorted(v.begin(), v.end()));
  EXPECT_EQ(alloc_count::live_bytes(), unsorted);
}

TEST(KernelAllocTest, FramesThroughNetTaskAllocateNothing) {
  system sys(3, quiet_kernel());
  std::uint64_t received = 0;
  std::uint64_t to_sender = 0;  // node 0 only sends
  std::uint64_t checksum = 0;
  sys.on_channel(kChannel, [&](node_id n, const sim::message& m) {
    to_sender += n == 0;
    ++received;
    if (const auto* v = m.payload.get<std::uint64_t>()) checksum += *v;
    if (const auto* b = m.payload.get<frame_body>()) checksum += b->words[0];
  });

  int round = 0;
  const auto traffic = [&] {
    for (int burst = 0; burst < 32; ++burst, ++round) {
      sys.net(0).send(1, kChannel, std::uint64_t(round), 64);
      frame_body body;
      body.words[0] = 1;
      sys.net(0).send(2, kChannel, body, 64);
      sys.net(0).send_all(kChannel, std::uint64_t(2), 32);
      sys.net(1).send(2, kChannel, std::uint64_t(3), 48);
      sys.run_for(700_us);  // frames overlap clock ticks and each other
    }
    sys.run_for(5_ms);  // drain
  };

  traffic();  // warm-up: pools, rings and per-link state reach their peak
  const std::uint64_t warm = received;
  ASSERT_EQ(warm, 32u * 5);
  const std::uint64_t closures = sim::event_callback::heap_allocations();

  EXPECT_EQ(alloc_count::calls_during(traffic), 0u);
  EXPECT_EQ(received, 2 * warm);
  EXPECT_EQ(to_sender, 0u);
  EXPECT_EQ(sim::event_callback::heap_allocations(), closures);
  EXPECT_GT(checksum, 0u);
  // One NIC interrupt per frame, plus the clock ticks underneath.
  EXPECT_GT(sys.cpu(1).stats().interrupts + sys.cpu(2).stats().interrupts,
            received);
}

TEST(KernelAllocTest, ThreadCyclesAllocateNothing) {
  system sys(1, quiet_kernel());
  processor& cpu = sys.cpu(0);

  // A long background thread that the cycling thread keeps preempting; it
  // revives itself from its own completion callback.
  kthread_id bg;
  std::uint64_t bg_done = 0;
  bg = cpu.create("background", 5, 5, 900_us, [&] {
    ++bg_done;
    cpu.add_work(bg, 900_us);
    cpu.make_runnable(bg);
  });
  cpu.make_runnable(bg);

  std::uint64_t done = 0;
  const kthread_id t =
      cpu.create("cycling", 10, 12, duration::zero(), [&] { ++done; });
  const auto cycles = [&] {
    for (int i = 0; i < 256; ++i) {
      cpu.add_work(t, 40_us);
      cpu.make_runnable(t);
      cpu.set_priority(t, 10 + i % 3);
      cpu.set_threshold(t, 12 + i % 2);
      sys.run_for(150_us);
    }
  };

  cycles();  // warm-up
  ASSERT_EQ(done, 256u);
  const std::uint64_t bg_warm = bg_done;
  const std::uint64_t preemptions = cpu.stats().preemptions;
  const std::uint64_t closures = sim::event_callback::heap_allocations();

  EXPECT_EQ(alloc_count::calls_during(cycles), 0u);
  EXPECT_EQ(done, 512u);
  EXPECT_GT(bg_done, bg_warm);
  EXPECT_GT(cpu.stats().preemptions, preemptions);
  EXPECT_EQ(sim::event_callback::heap_allocations(), closures);
}

// The instance lifecycle: activation, c_inv_start, shard creation on both
// nodes (the remote one by token), one thread and one EDF Atv/Trm pair per
// Code_EU, a local and a remote precedence, shard completion back to the
// home, the instance record's retirement and c_inv_end. Names are longer
// than the small-string buffer, the deadline is armed and cancelled, and
// every unit runs exactly its WCET, so no monitor event is due.
TEST(KernelAllocTest, ActivationToCompletionCycleAllocatesNothing) {
  system sys(2, quiet_kernel());
  sys.attach_policy(0, std::make_shared<sched::edf_policy>());
  sys.attach_policy(1, std::make_shared<sched::edf_policy>());
  task_builder b("activation_to_completion_task");
  b.deadline(10_ms).law(arrival_law::aperiodic());
  const eu_index head = b.add_code_eu("instance_head_on_home_node", 0, 40_us);
  const eu_index local = b.add_code_eu("local_successor_on_home", 0, 30_us);
  const eu_index remote = b.add_code_eu("remote_successor_on_node_1", 1, 30_us);
  b.precede(head, local).precede(head, remote, 64);
  const task_id t = sys.register_task(b.build());

  const auto batch = [&] {
    for (int i = 0; i < 32; ++i) {
      ASSERT_TRUE(sys.activate(t));
      sys.run_for(300_us);  // consecutive instances overlap
    }
    sys.run_for(20_ms);  // drain
  };

  batch();  // warm-up: pools, slot tables, rings and EDF's list at peak
  ASSERT_EQ(sys.stats_for(t).completions, 32u);
  const std::uint64_t closures = sim::event_callback::heap_allocations();

  EXPECT_EQ(alloc_count::calls_during(batch), 0u);
  EXPECT_EQ(sys.stats_for(t).completions, 64u);
  EXPECT_EQ(sys.mon().events().size(), 0u);
  EXPECT_EQ(sys.disp(1).stats().eus_completed, 64u);
  EXPECT_EQ(sim::event_callback::heap_allocations(), closures);
}

// Monitor records are 40 trivially copyable bytes with interned names:
// once the names have been seen and the log and event pool have grown,
// recording an event with a synchronous and a routed listener allocates
// nothing, and constructing a monitor allocates nothing either.
TEST(KernelAllocTest, RecordingAnEventAllocatesNothing) {
  system::config cfg = quiet_kernel();
  cfg.kernel_background = false;  // the redelivery is the only event
  system sys(1, cfg);
  std::size_t heard = 0;
  std::size_t routed = 0;
  sys.mon().subscribe([&](const monitor_event& e) {
    heard += sys.mon().name(e.subject).size();
  });
  sys.mon().subscribe_at_node(
      0, 10_us, {monitor_event_kind::deadline_miss},
      [&](const monitor_event& e) { routed += sys.mon().name(e.detail).size(); });
  const std::string subject(48, 's');
  const std::string detail(40, 'd');
  const auto record = [&] {
    monitor_event e;
    e.kind = monitor_event_kind::deadline_miss;
    e.node = 0;
    e.subject = sys.mon().intern(subject);
    e.detail = sys.mon().intern(detail);
    sys.mon().record(e);
  };
  record();  // warm-up: the names, the log and the event pool
  sys.run_for(1_ms);
  sys.mon().clear();

  EXPECT_EQ(alloc_count::calls_during(record), 0u);
  sys.run_for(1_ms);
  EXPECT_EQ(heard, 2 * subject.size());
  EXPECT_EQ(routed, 2 * detail.size());
  ASSERT_EQ(sys.mon().events().size(), 1u);
  EXPECT_EQ(sys.mon().subject_text(sys.mon().events().back()), subject);
  EXPECT_EQ(sys.mon().detail_text(sys.mon().events().back()), detail);
  EXPECT_EQ(alloc_count::calls_during([] { monitor m; }), 0u);
}

// The log grows a block at a time and never copies: while 100,000 records
// arrive, the live heap never holds more than the log keeps at the end
// (give or take the block list's own growth), and that is the records, one
// partly filled block and the allocator's rounding. A doubling vector holds
// its old and its new storage at once, about twice the records. Once
// cleared, the log refills its blocks without allocating.
TEST(KernelAllocTest, MonitorLogGrowsWithoutCopying) {
  constexpr std::size_t kRecords = 100'000;
  monitor mon;
  const auto record_all = [&] {
    monitor_event e;
    e.kind = monitor_event_kind::instance_rejected;
    e.node = 0;
    for (std::size_t i = 0; i < kRecords; ++i) {
      e.at = time_point::at(
          duration::nanoseconds(static_cast<std::int64_t>(i)));
      e.instance = i;
      mon.record(e);
    }
  };

  alloc_count::reset_peak();
  const std::uint64_t before = alloc_count::live_bytes();
  record_all();
  const std::uint64_t rise = alloc_count::peak_bytes() - before;
  const std::uint64_t kept = alloc_count::live_bytes() - before;
  ASSERT_EQ(mon.events().size(), kRecords);
  EXPECT_LE(rise, kept + 4096) << rise << " bytes at the peak";
  // The slack is 4 KiB per block: a 160 KiB block lies above glibc's initial
  // mmap threshold, so until a freed block raises that threshold each one
  // is mapped on its own and rounded up to a whole page.
  const std::size_t blocks =
      (kRecords + monitor_log::block_records - 1) / monitor_log::block_records;
  EXPECT_LE(rise, mon.events().size() * sizeof(monitor_event) +
                      monitor_log::block_records * sizeof(monitor_event) +
                      4096 * blocks)
      << rise << " bytes at the peak";

  mon.clear();
  EXPECT_EQ(alloc_count::calls_during(record_all), 0u);
  ASSERT_EQ(mon.events().size(), kRecords);
  EXPECT_EQ(mon.events().back().instance, kRecords - 1);
}

// A short log pays for a short block: eight records take the 256-record
// first block (10 KiB), not a 4,096-record one (160 KiB).
TEST(KernelAllocTest, SmallMonitorLogTakesASmallBlock) {
  monitor mon;
  monitor_event e;
  e.kind = monitor_event_kind::instance_rejected;
  e.node = 0;
  alloc_count::reset_peak();
  const std::uint64_t before = alloc_count::live_bytes();
  for (std::uint64_t i = 0; i < 8; ++i) {
    e.at = time_point::at(duration::microseconds(static_cast<std::int64_t>(i)));
    e.instance = i;
    mon.record(e);
  }
  ASSERT_EQ(mon.events().size(), 8u);
  EXPECT_LE(alloc_count::peak_bytes() - before,
            256 * sizeof(monitor_event) + 64);
}

// A histogram holds the rows its values reach: 48,854 latencies spread over
// [200 us, 40 ms], the span of a gateway's request costs and deadlines,
// reach 9 of its 57 rows of 1 KiB. A histogram over the whole range held
// 58,368 bytes. Once the rows exist, recording again after `reset()`
// allocates nothing, and neither do the reads or merging an empty
// histogram.
TEST(KernelAllocTest, LatencyHistogramHoldsOnlyTheRowsItCounts) {
  constexpr std::int64_t kSamples = 48'854;
  constexpr std::int64_t kLow = (200_us).count();
  constexpr std::int64_t kHigh = (40_ms).count();
  const auto record_all = [](hdr_histogram& h) {
    for (std::int64_t i = 0; i < kSamples; ++i)
      h.record(kLow + (kHigh - kLow) * i / (kSamples - 1));
  };

  const std::uint64_t before = alloc_count::live_bytes();
  const auto h = std::make_unique<hdr_histogram>();
  record_all(*h);
  EXPECT_LE(alloc_count::live_bytes() - before, 10u * 1024);
  ASSERT_EQ(h->total(), static_cast<std::uint64_t>(kSamples));

  h->reset();
  EXPECT_EQ(h->total(), 0u);
  EXPECT_EQ(alloc_count::calls_during([&] { record_all(*h); }), 0u);

  const hdr_histogram empty;
  std::int64_t p50 = 0, p999 = 0, lo = 0, hi = 0;
  std::uint64_t total = 0, digest = 0;
  EXPECT_EQ(alloc_count::calls_during([&] {
              p50 = h->value_at_quantile(0.5);
              p999 = h->value_at_quantile(0.999);
              lo = h->min();
              hi = h->max();
              total = h->total();
              digest = h->digest();
              h->merge(empty);
            }),
            0u);
  EXPECT_LE(lo, kLow);
  EXPECT_LE(lo, p50);
  EXPECT_LE(p50, p999);
  EXPECT_LE(p999, hi);
  EXPECT_GE(hi, kHigh);
  EXPECT_EQ(total, static_cast<std::uint64_t>(kSamples));
  EXPECT_EQ(h->digest(), digest);
}

// A warmed, overloaded traffic gateway: every arrival its controller
// bounces and every admitted request it sheds records an
// `instance_rejected` event (a shed request that had started also records
// `orphan_killed`), and none of those records allocates once the task and
// reason names are interned and the log has reached its length. Returns
// the allocations of a 50 ms window after `warm_up`.
std::uint64_t gateway_shedding_window_allocations(duration warm_up) {
  system sys(2, quiet_kernel());
  sys.attach_policy(1, std::make_shared<sched::edf_policy>());
  traffic::gateway_config gc;
  gc.arrivals.mix = traffic::arrival_mix::poisson;
  gc.arrivals.rate_per_s = 4'000.0;  // ~3x what the node can serve
  gc.arrivals.population = 1'000'000;
  gc.classes = {
      {200_us, 3_ms, 4, 5},
      {500_us, 10_ms, 3, 3},
      {1500_us, 40_ms, 1, 2},
  };
  gc.admission.feas.slot_width = 1_ms;
  gc.start = time_point::at(1_ms);
  traffic::gateway gw(sys, 1, std::move(gc), 7);
  gw.start();

  sys.run_for(warm_up);
  const auto warm = gw.snapshot();
  EXPECT_GT(warm.shed, 0u);
  EXPECT_GT(warm.rejected, 0u);
  const std::size_t warm_events = sys.mon().events().size();
  sys.mon().clear();
  const std::uint64_t closures = sim::event_callback::heap_allocations();

  const std::uint64_t allocs =
      alloc_count::calls_during([&] { sys.run_for(50_ms); });
  const auto after = gw.snapshot();
  EXPECT_GT(after.shed, warm.shed);
  EXPECT_GT(after.rejected, warm.rejected);
  EXPECT_EQ(sys.mon().count(monitor_event_kind::instance_rejected),
            (after.shed - warm.shed) + (after.rejected - warm.rejected));
  EXPECT_LT(sys.mon().events().size(), warm_events);
  EXPECT_EQ(sim::event_callback::heap_allocations(), closures);
  return allocs;
}

// Warm-up 20 windows long: the names, the log's capacity, and the
// instance, shard and controller pools at their high-water.
TEST(KernelAllocTest, GatewaySheddingRecordsWithoutAllocating) {
  EXPECT_EQ(gateway_shedding_window_allocations(1_s), 0u);
}

// A 200 ms warm-up leaves the window a fresh instance slot to take. Its
// pending-shard mask is one inline word (the task spans at most 64
// nodes), so taking it allocates nothing either.
TEST(KernelAllocTest, GatewaySheddingShortWarmUpAllocatesNothing) {
  EXPECT_EQ(gateway_shedding_window_allocations(200_ms), 0u);
}

// The observation log is one block log of monitored and trace records. A
// single engine appends in time order, so reading it back sorts nothing and
// copies nothing — not even subjects too long for the small-string buffer,
// on either kind of record.
TEST(KernelAllocTest, ReadingTheSinksAllocatesNothing) {
  system sys(2, quiet_kernel());
  sys.mon().set_tracing(true);
  const std::string subject(48, 's');
  const auto record_burst = [&] {
    for (int i = 0; i < 32; ++i) {
      const auto n = static_cast<node_id>(i % 2);
      const time_point at = sys.now() + 10_us * (i + 1);
      sys.engine().at_node(n, at, [&sys, &subject, n] {
        monitor_event e;
        e.kind = monitor_event_kind::deadline_miss;
        e.at = sys.now();
        e.node = n;
        e.subject = sys.mon().intern(subject);
        sys.mon().record(e);
        sys.mon().trace(sys.now(), n, monitor_event_kind::custom, subject);
      });
    }
    sys.run_for(1_ms);
  };
  const auto read_log = [&] { return sys.mon().events().size(); };

  record_burst();  // warm-up: the first read of the log
  const std::size_t warm = read_log();
  record_burst();
  std::size_t after = 0;
  EXPECT_EQ(alloc_count::calls_during([&] { after = read_log(); }), 0u);
  EXPECT_GE(after, warm + 64);
  std::size_t monitored = 0, traced = 0;
  for (const monitor_event& e : sys.mon().events()) {
    if (sys.mon().name(e.subject) != subject) continue;
    monitored += e.kind == monitor_event_kind::deadline_miss;
    traced += e.kind == monitor_event_kind::custom;
  }
  EXPECT_EQ(monitored, 64u);
  EXPECT_EQ(traced, 64u);
}

// With tracing off, a service builds no trace text: a warmed 200-node
// clustered clock sync (clusters of 50, f = 1, drifting clocks) applies
// its corrections with fewer allocations than a tenth of their number.
// Formatting "correction <value>" for every one costs about one each.
TEST(KernelAllocTest, ClockSyncCorrectionsFormatNoTraceText) {
  constexpr std::size_t kNodes = 200;
  system::config cfg = quiet_kernel();
  for (std::size_t n = 0; n < kNodes; ++n)
    cfg.clock_drift.push_back(1e-5 * (static_cast<double>(n % 7) - 3.0));
  system sys(kNodes, cfg);
  svc::clock_sync_service::params p;
  p.cluster_size = 50;
  p.max_faulty = 1;
  svc::clock_sync_service clocks(sys, p);
  clocks.start();

  sys.run_for(1_s);  // warm-up: inboxes, rings and pools at their high-water
  const std::uint64_t warm = clocks.rounds_completed();
  ASSERT_GT(warm, 0u);
  const std::uint64_t allocs =
      alloc_count::calls_during([&] { sys.run_for(1_s); });
  const std::uint64_t corrections = clocks.rounds_completed() - warm;
  EXPECT_GE(corrections, 1000u);
  EXPECT_LT(allocs * 10, corrections) << allocs << " allocations";
}

// A warmed total-order broadcast storm under tree diffusion: relaying
// reuses the forward-set buffers and each node's hold-back queue reuses its
// heap storage, so steady-state traffic allocates nothing. Zero kernel
// costs, as in the campaign cells, so every relay and NIC step is
// same-instant work.
TEST(KernelAllocTest, TotalOrderTreeBroadcastStormAllocatesNothing) {
  system::config cfg = quiet_kernel();
  cfg.costs = cost_model::zero();
  constexpr std::size_t nodes = 8;
  system sys(nodes, cfg);
  svc::reliable_broadcast::params p;
  p.total_order = true;
  p.diffusion = svc::reliable_broadcast::diffusion_kind::tree;
  p.tree_fanout = 2;
  p.record_deliveries = false;
  svc::reliable_broadcast bcast(sys, p);
  std::uint64_t delivered = 0;
  std::uint64_t checksum = 0;
  for (node_id n = 0; n < nodes; ++n)
    bcast.on_deliver(n, [&](const svc::reliable_broadcast::bcast_msg& m) {
      ++delivered;
      if (const auto* v = m.payload.get<std::uint64_t>()) checksum += *v;
    });

  std::uint64_t round = 0;
  const auto storm = [&] {
    for (int burst = 0; burst < 32; ++burst, ++round) {
      for (node_id n = 0; n < nodes; ++n) bcast.broadcast(n, round + 1, 64);
      sys.run_for(100_us);  // a burst per origin every 100us, 2ms held back
    }
    sys.run_for(5_ms);  // drain: every hold-back queue releases
  };

  storm();  // warm-up: hold-back heaps, relay buffers and pools at peak
  const std::uint64_t warm = delivered;
  ASSERT_EQ(warm, 32u * nodes * nodes);
  ASSERT_GT(bcast.relays(), 0u);
  const std::uint64_t closures = sim::event_callback::heap_allocations();

  EXPECT_EQ(alloc_count::calls_during(storm), 0u);
  EXPECT_EQ(delivered, 2 * warm);
  EXPECT_EQ(bcast.order_faults(), 0u);
  EXPECT_EQ(sim::event_callback::heap_allocations(), closures);
  EXPECT_GT(checksum, 0u);
}

// The event core on its own: once the slab pool and the ready heap have
// reached their high-water mark, scheduling, cancelling and running
// allocate nothing, and every closure stays inline.
TEST(KernelAllocTest, EngineSteadyStateAllocatesNothing) {
  sim::engine e;
  std::vector<sim::event_id> ids;
  ids.reserve(512);
  const auto churn = [&](int rounds) {
    for (int r = 0; r < rounds; ++r) {
      ids.clear();
      for (int i = 0; i < 512; ++i)
        ids.push_back(e.after(duration::microseconds(1 + i % 7), [] {}));
      for (std::size_t i = 0; i < ids.size(); i += 2) e.cancel(ids[i]);
      e.run();
    }
  };

  // Warm-up sizes the slab pool and the ready heap.
  EXPECT_GT(alloc_count::calls_during([&] { churn(4); }), 0u);
  const std::uint64_t closures = sim::event_callback::heap_allocations();

  EXPECT_EQ(alloc_count::calls_during([&] { churn(64); }), 0u);
  EXPECT_EQ(sim::event_callback::heap_allocations(), closures);
  EXPECT_TRUE(e.empty());
}

// The realtime backend runs each due callback with its lock released. It
// takes the callback off the core instead of wrapping it, so a warmed chain
// of realtime events allocates nothing and every closure stays inline.
TEST(KernelAllocTest, RealtimeEventChainAllocatesNothing) {
  hades::runtime::options o;
  o.backend = "realtime";
  const auto rt = hades::runtime::make(o);
  struct link {
    hades::runtime* rt;
    int* left;
    void operator()() const {
      if (--*left > 0) rt->at(rt->now(), link{*this});
    }
  };
  int left = 0;
  const auto chain = [&] {
    left = 1000;
    rt->at(rt->now(), link{rt.get(), &left});
    rt->run();
  };

  chain();  // warm-up sizes the core's slab pool and ready heap
  const std::uint64_t closures = sim::event_callback::heap_allocations();

  EXPECT_EQ(alloc_count::calls_during(chain), 0u);
  EXPECT_EQ(sim::event_callback::heap_allocations(), closures);
  EXPECT_EQ(left, 0);
  EXPECT_TRUE(rt->empty());
}

// However late a realtime wake comes, counting it allocates nothing: the
// engine reserves every row of its lateness histogram when it is built.
// After the same warm-up, each link of a 20-link chain reads the clock,
// sleeps 3 ms and only then schedules the next link at the date it read,
// so every successor wakes about 3 ms late, in a range that prompt wakes
// never reach.
TEST(KernelAllocTest, LateRealtimeWakesAllocateNothing) {
  hades::runtime::options o;
  o.backend = "realtime";
  const auto engine = hades::runtime::make(o);
  struct link {
    hades::runtime* rt;
    int* left;
    bool late;
    void operator()() const {
      const time_point due = rt->now();
      if (late) std::this_thread::sleep_for(std::chrono::milliseconds(3));
      if (--*left > 0) rt->at(due, link{*this});
    }
  };
  int left = 0;
  const auto chain = [&](int links, bool late) {
    left = links;
    engine->at(engine->now(), link{engine.get(), &left, late});
    engine->run();
  };

  chain(1000, false);  // warm-up sizes the core's slab pool and ready heap
  const std::uint64_t closures = sim::event_callback::heap_allocations();
  const std::uint64_t fired = rt::wake_lateness(*engine).total();

  EXPECT_EQ(alloc_count::calls_during([&] { chain(20, true); }), 0u);
  EXPECT_EQ(sim::event_callback::heap_allocations(), closures);
  EXPECT_EQ(left, 0);
  const hdr_histogram& late = rt::wake_lateness(*engine);
  EXPECT_EQ(late.total(), fired + 20);
  EXPECT_GE(late.max(), (2_ms).count());
}

// A service registers each of its channels once for the whole system, not
// once per node: building the hierarchical detector, the broadcast and the
// clock sync on a 1,000-node system costs fewer allocations than there are
// nodes. Per-node channel tables cost two growths per node here.
TEST(KernelAllocTest, ServiceConstructionAllocatesLessThanOncePerNode) {
  constexpr std::size_t kNodes = 1000;
  system sys(kNodes, quiet_kernel());
  std::optional<svc::fault_detector> fd;
  std::optional<svc::reliable_broadcast> bcast;
  std::optional<svc::clock_sync_service> clocks;
  const std::uint64_t calls = alloc_count::calls_during([&] {
    fd.emplace(sys, svc::fault_detector::params{10_ms, 35_ms, 50});
    bcast.emplace(sys, svc::reliable_broadcast::params{});
    svc::clock_sync_service::params sp;
    sp.cluster_size = 50;
    clocks.emplace(sys, sp);
  });
  EXPECT_LT(calls, kNodes);
}

// Every reliable-comm receiver runs each arriving sequence number through
// its dedup window; the in-order common case must only move the watermark.
TEST(KernelAllocTest, InOrderDedupInsertsAllocateNothing) {
  svc::dedup_window w;
  std::uint64_t accepted = 0;
  EXPECT_EQ(alloc_count::calls_during([&] {
              for (std::uint64_t s = 1; s <= 1000; ++s) accepted += w.insert(s);
            }),
            0u);
  EXPECT_EQ(accepted, 1000u);
  EXPECT_EQ(w.watermark(), 1000u);
}

}  // namespace
}  // namespace hades::core
