#!/usr/bin/env python3
"""Compare the current BENCH_core.json against a previous run's copy
and fail on a significant slowdown of any core case.

Usage:
    check_bench_regression.py --current build/BENCH_core.json \
        --previous prev/BENCH_core.json [--max-slowdown 0.20]

Exit codes: 0 = ok (or no previous file to compare against),
1 = at least one *gated* case slowed down by more than --max-slowdown.

The comparison uses each case's `speedup` (seed algorithm time over
current implementation time, both measured in the same process on the
same host), not raw `new_ns`: CI runs land on different runner
machines, and the seed-replica baseline cancels machine speed out of
the ratio. A case regresses when its speedup drops to less than
(1 - max_slowdown) of the previous run's.

Only cases marked `"gated": 1` in BENCH_core.json fail the build
(the same set micro_benchmarks enforces the 5x floor on); ungated
cases — pool scaling — are machine-dependent and reported as SLOWER
without failing. Cases whose time sits below
the --min-ns clock-resolution floor are skipped (their ratios are
dominated by timer noise), as are cases present in only one file (the
case set is allowed to evolve).
"""

import argparse
import json
import os
import sys


def load_cases(path):
    with open(path) as f:
        doc = json.load(f)
    return {c["name"]: c for c in doc.get("cases", [])}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--current", required=True)
    ap.add_argument("--previous", required=True)
    ap.add_argument("--max-slowdown", type=float, default=0.20,
                    help="fail when a case's speedup drops by more "
                         "than this fraction (default 0.20 = 20%%)")
    ap.add_argument("--min-ns", type=float, default=2000.0,
                    help="skip cases whose new_ns sits below this "
                         "floor (clock-resolution noise, default "
                         "2000 ns)")
    args = ap.parse_args()
    cur = load_cases(args.current)

    # The first run on a branch (or an expired artifact) legitimately
    # has nothing to compare against: say so explicitly and pass,
    # rather than leaning on the caller to continue-on-error.
    if not os.path.exists(args.previous):
        print(f"no previous artifact at {args.previous} — skipping "
              "regression check")
        return 0
    try:
        prev = load_cases(args.previous)
    except (json.JSONDecodeError, OSError) as e:
        print(f"previous artifact at {args.previous} unreadable "
              f"({e}) — skipping regression check")
        return 0

    failed = False
    for name in sorted(set(cur) | set(prev)):
        if name not in prev:
            print(f"  NEW      {name}: speedup "
                  f"{cur[name]['speedup']:.2f}x")
            continue
        if name not in cur:
            print(f"  GONE     {name} (was "
                  f"{prev[name]['speedup']:.2f}x)")
            continue
        old = prev[name]
        new = cur[name]
        if old["speedup"] <= 0:
            print(f"  SKIP     {name}: previous speedup not positive")
            continue
        if old["new_ns"] < args.min_ns or new["new_ns"] < args.min_ns:
            print(f"  SKIP     {name}: below {args.min_ns:.0f} ns "
                  f"noise floor ({old['new_ns']:.0f} -> "
                  f"{new['new_ns']:.0f} ns)")
            continue
        ratio = new["speedup"] / old["speedup"]
        status = "OK"
        if ratio < 1.0 - args.max_slowdown:
            # Only cases the bench itself gates hard-fail the build;
            # ungated cases (pool scaling) are machine-dependent and
            # reported for the trajectory.
            if new.get("gated", 1):
                status = "REGRESSED"
                failed = True
            else:
                status = "SLOWER"
        print(f"  {status:9s}{name}: speedup {old['speedup']:.2f}x -> "
              f"{new['speedup']:.2f}x ({new['new_ns']:.0f} ns)")

    if failed:
        print(f"FAIL: at least one core case's speedup dropped by "
              f"more than {args.max_slowdown:.0%}")
        return 1
    print("benchmark regression check passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
