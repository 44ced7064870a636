#!/usr/bin/env python3
"""HADES end-to-end benchmark: one command, three workloads, an outside-in
layer trace.

    python3 e2ebench/run.py --workload fleet_1k|edge_16|sweep_8|all
                            [--seed N] [--seconds S] [--trace 0|1]

Builds the `e2ebench` binary from this checkout (CMake package in this
directory, build tree under .bench_build/), then measures one workload for
about --seconds seconds as a closed loop of cells, one fresh single-threaded
process per cell. Every cell of a run uses the deployment seed --seed, so a
run repeats one deterministic simulation and every repetition must reproduce
the first one's observables exactly.

--trace 0 reports the end-to-end metrics (medians over the run's cells).
--trace 1 alternates an untraced and a traced process per seed, requires the
traced one to reproduce every observable and checker verdict, reconciles the
traced cell's parts with its wall total, and reports the per-layer metrics.

The metric names, units and directions come from BENCHMARK.json. The last
line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`. The exit code is non-zero when a checker
verdict fails, a gate trips, or the build fails. NOTES.md explains the
workloads and what each metric should move.
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "e2ebench")
BINARY = os.path.join(BUILD, "e2ebench")

WORKLOADS = ("fleet_1k", "edge_16", "sweep_8")
# Every run measures at least this many cells, even past --seconds.
MIN_CELLS = {"fleet_1k": 3, "edge_16": 5, "sweep_8": 5}
# A cell process that runs longer than this has hung (a fleet_1k cell takes
# ~8 s); it is killed and the run fails.
CELL_TIMEOUT_S = 120
# Parts of a traced cell must add up to its wall total within this share.
RECONCILE_TOLERANCE = 0.02

# Modelled guarantees: simulated time, deterministic for a seed. Printed on
# every run where the workload has them; BENCHMARK.json lists them among
# the per-layer metrics.
MODELLED = ("services.detect_ms_p50", "services.detect_ms_p99",
            "services.skew_us", "traffic.goodput_ratio",
            "traffic.latency_p50_us", "traffic.latency_p999_us")

# Observables a traced process, and every repetition of a seed, must
# reproduce bit for bit.
OBSERVABLES = ("events", "frames_sent", "frames_delivered", "frames_dropped",
               "frames_late", "bcast_delivered", "bcast_relays", "heartbeats",
               "gateway_digests", "verdicts")


class BenchError(Exception):
    """Build failure or bad invocation: exit non-zero with no result."""


def log(msg=""):
    print(msg, flush=True)


def metric_tables():
    """name -> (unit, better) of the end-to-end and of the per-layer metrics."""
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            bench = json.load(f)
        return tuple({m["name"]: (m["unit"], m["better"]) for m in bench[key]}
                     for key in ("end_to_end", "per_layer"))
    except (OSError, ValueError, KeyError) as e:
        raise BenchError(f"cannot read the metrics from BENCHMARK.json: {e}")


# --- build -------------------------------------------------------------------

def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "hades.hpp")):
        raise BenchError("no HADES sources next to the benchmark (src/)")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                           text=True)
        if r.returncode != 0:
            sys.stderr.write(r.stdout)
            raise BenchError("cmake configure failed")
    r = subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                       stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                       text=True)
    if r.returncode != 0:
        sys.stderr.write(r.stdout)
        raise BenchError("build failed")


def provenance():
    sha = "unknown"
    try:
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short", "HEAD"],
                           stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                           text=True)
        if r.returncode == 0 and r.stdout.strip():
            sha = r.stdout.strip()
    except OSError:
        pass
    cache = {}
    try:
        with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
            for line in f:
                if "=" in line and ":" in line.split("=", 1)[0]:
                    key, val = line.rstrip("\n").split("=", 1)
                    cache[key.split(":", 1)[0]] = val
    except OSError:
        pass
    compiler = cache.get("CMAKE_CXX_COMPILER", "c++")
    try:
        r = subprocess.run([compiler, "--version"], stdout=subprocess.PIPE,
                           stderr=subprocess.DEVNULL, text=True)
        compiler = r.stdout.splitlines()[0] if r.stdout else compiler
    except OSError:
        pass
    return {
        "git_sha": sha,
        "hardware_threads": os.cpu_count(),
        "compiler": compiler,
        "build_type": cache.get("CMAKE_BUILD_TYPE", "unknown"),
        "load_average_at_start": [round(x, 2) for x in os.getloadavg()],
    }


# --- one process -------------------------------------------------------------

def cell(workload, seed, traced):
    cmd = [BINARY, "--workload", workload, "--seed", str(seed)]
    if traced:
        cmd.append("--traced")
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                           text=True, timeout=CELL_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"e2ebench ran past {CELL_TIMEOUT_S}s on {workload}")
    if r.returncode != 0:
        sys.stderr.write(r.stderr)
        raise BenchError(f"e2ebench exited {r.returncode} on {workload}")
    return json.loads(r.stdout.strip().splitlines()[-1])


def verdict_counts(recs):
    attempted = failed = 0
    for rec in recs:
        for v in rec["observables"]["verdicts"]:
            attempted += 1
            failed += 0 if v["passed"] else 1
    return attempted, failed


def diff_observables(a, b):
    return [k for k in OBSERVABLES if a["observables"][k] != b["observables"][k]]


def modelled_metrics(rec):
    """The modelled guarantees a workload has (simulated, seed-deterministic)."""
    m, c = rec["modelled"], rec["counters"]
    out = {}
    if m["detect_samples"] > 0:
        out["services.detect_ms_p50"] = m["detect_ms_p50"]
        out["services.detect_ms_p99"] = m["detect_ms_p99"]
    if "skew_us" in m:
        out["services.skew_us"] = m["skew_us"]
    if "latency_p50_us" in m:
        out["traffic.goodput_ratio"] = c["traffic.completed"] / c["traffic.offered"]
        out["traffic.latency_p50_us"] = m["latency_p50_us"]
        out["traffic.latency_p999_us"] = m["latency_p999_us"]
    return out


def sample_counts(rec):
    m, c = rec["modelled"], rec["counters"]
    parts = [f"detect_samples={m['detect_samples']}"]
    if "latency_p50_us" in m:
        parts.append(f"latency_samples={c['traffic.completed']:.0f} "
                     f"(traffic.completed)")
    return ", ".join(parts)


# --- the two run modes -------------------------------------------------------

def measure(workload, seed, seconds, traced_pairs):
    """Closed loop of cells (or untraced/traced pairs) for ~`seconds`."""
    start = time.monotonic()
    untraced, traced = [], []
    while True:
        untraced.append(cell(workload, seed, False))
        if traced_pairs:
            traced.append(cell(workload, seed, True))
        elapsed = time.monotonic() - start
        step = elapsed / len(untraced)
        enough = len(untraced) >= (1 if traced_pairs else MIN_CELLS[workload])
        if enough and elapsed + step > seconds:
            return untraced, traced


def check_repeats(untraced, problems):
    ref = untraced[0]
    for i, rec in enumerate(untraced[1:], 1):
        bad = diff_observables(ref, rec)
        if modelled_metrics(rec) != modelled_metrics(ref):
            bad.append("modelled metrics")
        if bad:
            problems.append(f"repetition {i} of seed {ref['seed']} differs "
                            f"from the first: {', '.join(bad)}")
    for rec in untraced:
        if rec["threads"] != 1:
            problems.append(f"a cell process ran {rec['threads']} threads")


def layer_metrics(u, t, problems):
    """Per-layer metrics of one untraced/traced pair of the same seed."""
    bad = diff_observables(u, t)
    if bad:
        problems.append("traced run differs from untraced: " + ", ".join(bad))
    if not t["grade_match"]:
        problems.append("per-checker verdicts differ from grade()")
    if t["threads"] != 1:
        problems.append(f"a traced process ran {t['threads']} threads")
    c, o = u["counters"], u["observables"]
    cb, n = t["callback_s"], t["callbacks"]
    hooks_s = t["admit_s"] + t["retire_s"]
    callbacks_s = sum(cb.values()) + hooks_s
    # Engine self time is the remainder of run's wall time, so the time sum
    # below holds by construction; these two gates are what can fail when
    # time goes untimed or is counted twice.
    engine_self = t["engine_run_s"] - callbacks_s
    events = o["events"]
    if sum(n.values()) != events:
        problems.append(f"the trace timed {sum(n.values())} callbacks of "
                        f"{events} executed events")
    if engine_self < 0:
        problems.append(f"callbacks took {-engine_self:.6f}s more than the "
                        f"engine run that contains them")
    parts = (t["construct_s"] + t["start_s"] + engine_self + callbacks_s +
             t["collect_s"] + t["check_detector_s"] + t["check_broadcast_s"] +
             t["check_other_s"])
    unattributed = t["total_s"] - parts
    if abs(unattributed) > RECONCILE_TOLERANCE * t["total_s"]:
        problems.append(f"traced parts miss the total by {unattributed:.6f}s "
                        f"(tolerance {RECONCILE_TOLERANCE:.0%})")

    def ratio(a, b):
        return a / b if b else 0.0

    m = {
        "sim.events": events,
        "sim.engine_self_s": engine_self,
        "sim.engine_ns_per_event": ratio(engine_self * 1e9, events),
        "sim.local_events": n["local"],
        "sim.local_cb_s": cb["local"],
        "sim.closure_heap_allocs": c["sim.closure_heap_allocs"],
        "sim.frames_sent": o["frames_sent"],
        "sim.frames_delivered": o["frames_delivered"],
        "sim.frames_dropped": o["frames_dropped"],
        "sim.frames_late": o["frames_late"],
        "sim.events_per_frame": ratio(events, o["frames_sent"]),
        "sim.shard_rounds": c.get("sim.shard_rounds", 0),
        "sim.cross_shard_events": c.get("sim.cross_shard_events", 0),
        "sim.outbox_spills": c.get("sim.outbox_spills", 0),
        "sim.shard_balance": c.get("sim.shard_balance_max", 1.0),
        "sim.payload_chunk_allocs": c["sim.payload_chunk_allocs"],
        "sim.payload_oversize_allocs": c["sim.payload_oversize_allocs"],
        "services.fd_deliver_s": cb["fd"],
        "services.fd_frames": n["fd"],
        "services.heartbeats_sent": o["heartbeats"],
        "services.bcast_deliver_s": cb["bcast"],
        "services.bcast_frames": n["bcast"],
        "services.bcast_delivered": o["bcast_delivered"],
        "services.bcast_relays": o["bcast_relays"],
        "services.bcast_relays_per_delivery": ratio(o["bcast_relays"],
                                                    o["bcast_delivered"]),
        "services.bcast_state_bytes": c["services.bcast_state_bytes"],
        "services.sync_deliver_s": cb["sync"],
        "services.sync_rounds": c["services.sync_rounds"],
        "services.mode_switches": c["services.mode_switches"],
        "services.capture_frames": n["capture"],
        "core.token_deliver_s": cb["token"],
        "core.token_frames": n["token"],
        "core.eus_completed": c["core.eus_completed"],
        "core.scheduler_runs": c["core.scheduler_runs"],
        "core.context_switches": c["core.context_switches"],
        "core.preemptions": c["core.preemptions"],
        "core.monitor_events": c["core.monitor_events"],
        "core.gateway_cpu_busy": ratio(c["core.gateway_busy_ns"],
                                       c["core.gateway_horizon_ns"]),
        "traffic.admit_calls": t["admit_calls"],
        "traffic.admit_s": t["admit_s"],
        "traffic.admit_ns_per_call": ratio(t["admit_s"] * 1e9, t["admit_calls"]),
        "traffic.retire_calls": t["retire_calls"],
        "traffic.retire_s": t["retire_s"],
        "traffic.offered": c["traffic.offered"],
        "traffic.admitted": c["traffic.admitted"],
        "traffic.rejected": c["traffic.rejected"],
        "traffic.shed": c["traffic.shed"],
        "traffic.completed": c["traffic.completed"],
        "traffic.missed": c["traffic.missed"],
        "traffic.renegotiations": c["traffic.renegotiations"],
        "traffic.revalidation_failures": c["traffic.revalidation_failures"],
        "traffic.admit_ratio": ratio(c["traffic.admitted"], c["traffic.offered"]),
        "traffic.shed_ratio": ratio(c["traffic.shed"], c["traffic.admitted"]),
        "scenario.construct_s": t["construct_s"],
        "scenario.start_s": t["start_s"],
        "scenario.collect_s": t["collect_s"],
        "scenario.check_detector_s": t["check_detector_s"],
        "scenario.check_broadcast_s": t["check_broadcast_s"],
        "scenario.check_other_s": t["check_other_s"],
        "scenario.checks": c["scenario.checks"],
        "scenario.checks_failed": c.get("scenario.checks_failed", 0),
        "trace.overhead_ratio": ratio(t["cell_s"] - u["cell_s"], u["cell_s"]),
        "trace.unattributed_ratio": ratio(unattributed, t["total_s"]),
    }
    modelled = modelled_metrics(u)
    for name in MODELLED:
        m[name] = modelled.get(name, 0.0)
    split = {
        "setup (construct + start)": t["construct_s"] + t["start_s"],
        "sim engine self": engine_self,
        "sim local callbacks": cb["local"],
        "core token deliveries": cb["token"],
        "services fd deliveries": cb["fd"],
        "services bcast deliveries": cb["bcast"],
        "services sync deliveries": cb["sync"],
        "services capture deliveries": cb["capture"],
        "other-channel deliveries": cb["other"],
        "traffic admission + retire": hooks_s,
        "scenario collect": t["collect_s"],
        "scenario check_detector": t["check_detector_s"],
        "scenario check_broadcast": t["check_broadcast_s"],
        "scenario other checks": t["check_other_s"],
        "unattributed": unattributed,
    }
    return m, split, t["total_s"]


def fmt(v):
    return f"{v:.6g}" if isinstance(v, float) else str(v)


def print_metrics(title, table, values):
    log(title)
    for name, (unit, better) in table.items():
        if name in values:
            log(f"  {name:<36} {fmt(values[name]):>14} {unit:<6} ({better} is better)")


def run_workload(workload, seed, seconds, trace, end_to_end, per_layer):
    problems = []
    untraced, traced = measure(workload, seed, seconds, trace)
    check_repeats(untraced, problems)
    recs = untraced + traced
    attempted, failed = verdict_counts(recs)
    for rec in recs:
        for v in rec["observables"]["verdicts"]:
            if not v["passed"]:
                problems.append(f"checker failed: {v['name']}: {v['detail']}")

    first = untraced[0]
    log(f"workload {workload}: seed {seed}, {len(untraced)} untraced and "
        f"{len(traced)} traced cell processes, {first['cells']} cell(s) each, "
        f"{attempted} checker verdicts")
    log(f"  samples: {sample_counts(first)}")
    table = per_layer if trace else end_to_end
    if not trace:
        measured = {k: statistics.median(r[k] for r in untraced)
                    for k in ("cell_s", "setup_s", "peak_rss_mb")}
    else:
        per_pair = [layer_metrics(u, t, problems) for u, t in zip(untraced, traced)]
        measured = {k: statistics.median(p[0][k] for p in per_pair)
                    for k in per_pair[0][0]}
    missing = sorted(set(table) - set(measured))
    if missing:
        raise BenchError("BENCHMARK.json lists metrics the benchmark does not "
                         "measure: " + ", ".join(missing))
    metrics = {k: measured[k] for k in table}
    if not trace:
        log("  cell_s per process: " +
            " ".join(f"{r['cell_s']:.4f}" for r in untraced))
        print_metrics("end-to-end (medians over cell processes):", table,
                      metrics)
        print_metrics("modelled guarantees (simulated, deterministic per seed):",
                      {k: per_layer[k] for k in MODELLED if k in per_layer},
                      modelled_metrics(first))
    else:
        # The layer split of the median-total traced cell.
        split, total = sorted(((p[1], p[2]) for p in per_pair),
                              key=lambda x: x[1])[len(per_pair) // 2]
        log(f"traced cell wall total {total:.6f}s; parts must reconcile within "
            f"{RECONCILE_TOLERANCE:.0%}:")
        for part, s in split.items():
            log(f"  {part:<30} {s:>12.6f} s {100 * s / total:6.2f}%")
        print_metrics("per-layer (medians over traced pairs):", table, metrics)
    for p in problems:
        log(f"FAIL: {p}")
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": table[k][0]}
                    for k, v in metrics.items()},
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    try:
        end_to_end, per_layer = metric_tables()
        build()
        prov = provenance()
        log("provenance: " + json.dumps(prov))
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        results = {w: run_workload(w, args.seed, args.seconds, bool(args.trace),
                                   end_to_end, per_layer)
                   for w in names}
    except BenchError as e:
        sys.stderr.write(f"e2ebench: {e}\n")
        return 1
    if len(results) == 1:
        result = next(iter(results.values()))
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
