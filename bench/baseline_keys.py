#!/usr/bin/env python3
"""Key drift between freshly written bench JSON files and the committed
baselines.

    python3 bench/baseline_keys.py FRESH_DIR [BASELINE_DIR]

Every FRESH_DIR/BENCH_<name>.json is compared with BASELINE_DIR/BENCH_<name>.json
(BASELINE_DIR defaults to the repository root). Each key that only one of the
two files carries is printed, and so is a file that has no counterpart.
Values are not compared: timings need per-metric tolerances, which this
check does not apply. Exits non-zero when any key set differs.
"""
import glob
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def keys(path):
    with open(path) as f:
        return set(json.load(f))


def main(argv):
    if len(argv) not in (2, 3):
        print("usage: baseline_keys.py FRESH_DIR [BASELINE_DIR]",
              file=sys.stderr)
        return 2
    fresh_dir = argv[1]
    base_dir = argv[2] if len(argv) == 3 else ROOT
    fresh = {os.path.basename(p): p
             for p in glob.glob(os.path.join(fresh_dir, "BENCH_*.json"))}
    base = {os.path.basename(p): p
            for p in glob.glob(os.path.join(base_dir, "BENCH_*.json"))}
    drift = False
    for name in sorted(fresh.keys() | base.keys()):
        if name not in base:
            print(f"{name}: written by a bench, no committed baseline")
            drift = True
            continue
        if name not in fresh:
            print(f"{name}: committed baseline, written by no bench")
            drift = True
            continue
        now, then = keys(fresh[name]), keys(base[name])
        for k in sorted(now - then):
            print(f"{name}: key {k!r} written, not in the baseline")
        for k in sorted(then - now):
            print(f"{name}: key {k!r} in the baseline, not written")
        drift |= now != then
    if drift:
        print("bench baselines drifted: re-record the files above with the "
              "commands CI runs", file=sys.stderr)
        return 1
    print(f"{len(fresh)} bench baselines carry the keys their benches write")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
