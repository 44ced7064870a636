#!/usr/bin/env python3
"""Smoke check of the benchmark itself.

    python3 e2ebench/smoke_check.py

For every workload, runs run.py once untraced and once traced on the
held-out seed 97, which no tuning run used, and requires:
  * every checker verdict passes and every gate holds (exit code 0);
  * the final line is the result object, and every metric BENCHMARK.json
    lists is printed by name with its unit and direction;
  * a second untraced run of the same seed prints bit-identical modelled
    metrics (the runs themselves already require it of every repetition).
Exits non-zero on the first violation.
"""
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
HELD_OUT_SEED = 97


def run(workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(HELD_OUT_SEED), "--seconds", "1",
           "--trace", str(trace)]
    r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    if r.returncode != 0:
        sys.stdout.write(r.stdout)
        raise SystemExit(f"FAIL: {' '.join(cmd[1:])} exited {r.returncode}")
    return r.stdout


def check_emitted(out, metrics, what):
    result = json.loads(out.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise SystemExit(f"FAIL: {what}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        raise SystemExit(f"FAIL: {what}: {result['failed']} of "
                         f"{result['attempted']} verdicts failed")
    for m in metrics:
        line = rf"^\s+{re.escape(m['name'])}\s+\S+\s+{re.escape(m['unit'])}\s+" \
               rf"\({m['better']} is better\)$"
        if not re.search(line, out, re.M):
            raise SystemExit(f"FAIL: {what}: {m['name']} not printed with "
                             f"unit {m['unit']} and direction {m['better']}")


def modelled_lines(out):
    lines = out.splitlines()
    start = lines.index("modelled guarantees (simulated, deterministic per seed):")
    return [l for l in lines[start + 1:] if l.startswith("  ")]


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    for w in (w["name"] for w in bench["workloads"]):
        first = run(w, 0)
        check_emitted(first, bench["end_to_end"], f"{w} untraced")
        check_emitted(run(w, 1), bench["per_layer"], f"{w} traced")
        if modelled_lines(run(w, 0)) != modelled_lines(first):
            raise SystemExit(f"FAIL: {w}: modelled metrics differ between "
                             f"two runs of seed {HELD_OUT_SEED}")
        print(f"ok  {w}: seed {HELD_OUT_SEED} passes; every metric printed with "
              f"unit and direction; modelled metrics repeat exactly",
              flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
