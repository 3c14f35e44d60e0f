#!/usr/bin/env python3
"""A/B timing of the working tree against a parent commit on perfbench.

Usage:

    tools/ab_perfbench.py [--parent REF] [--pairs N] [--seed S]
                          [--seconds T] [--workload W ...]

Exports REF (default HEAD) with `git archive` and the working tree's
tracked and untracked-unignored files side by side, as `parent` and
`change` in one temporary directory, so that neither side's build or
runs differ from the other's by where they lie. Then runs
`perfbench/run.py --trace 0` in each in N alternating pairs: the
parent runs first in even pairs, the working tree first in odd ones.
Each export builds into its own `.bench_build`. Every run is printed
as it finishes; then, for each
end-to-end metric BENCHMARK.json declares and each workload, each
side's median and quartiles, the change's median relative to the
parent's, and the pairs the change won (ties count for neither).

Each metric x workload row gets one label:

  gain        the change wins at least nine tenths of the pairs and the
              medians differ, in the better direction, by more than the
              parent's interquartile range;
  regression  the change's median is worse than the parent's by more
              than the metric's `bound` in BENCHMARK.json (relative);
  unresolved  neither, and the parent's interquartile range exceeds
              `bound` of its median: its runs spread too widely to
              tell a regression of that size;
  -           none of these.

A run whose result is not "correct" is reported and its pair left out
of the comparison. The exit status is 1 on any incorrect run or any
regression row, else 0. The workloads and metrics are those
BENCHMARK.json declares.

Nothing under perfbench/ is modified; the tool only reads run.py's
last stdout line (one JSON object).
"""

import argparse
import json
import collections
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_benchmark():
    """BENCHMARK.json's workload names and its end-to-end metrics as
    (name, better, bound) triples."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    return ([w["name"] for w in bench["workloads"]],
            [(m["name"], m["better"], m["bound"])
             for m in bench["end_to_end"]])


def export_parent(ref, dest):
    """`git archive REF`, extracted into dest/parent."""
    tree = os.path.join(dest, "parent")
    os.makedirs(tree)
    archive = subprocess.Popen(["git", "-C", ROOT, "archive", ref],
                               stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", tree], stdin=archive.stdout,
                   check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        sys.exit(f"git archive {ref} failed")
    return tree


def export_worktree(dest):
    """The working tree's tracked and untracked-unignored files, copied
    into dest/change; a tracked file deleted in the tree is left out."""
    tree = os.path.join(dest, "change")
    names = subprocess.run(
        ["git", "-C", ROOT, "ls-files", "-z", "--cached", "--others",
         "--exclude-standard"], capture_output=True, check=True).stdout
    for name in filter(None, names.decode().split("\0")):
        src, dst = os.path.join(ROOT, name), os.path.join(tree, name)
        if os.path.isfile(src):
            os.makedirs(os.path.dirname(dst), exist_ok=True)
            shutil.copy2(src, dst)
    return tree


def run_bench(tree, workload, seed, seconds):
    """run.py's result object for one workload in `tree`."""
    env = {k: v for k, v in os.environ.items()
           if k != "CARGO_TARGET_DIR"}  # Each tree builds in its own dir.
    cmd = [sys.executable, os.path.join(tree, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, env=env, capture_output=True,
                          text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stderr.write(proc.stdout + proc.stderr)
        return {"correct": False, "metrics": {}}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


# One metric x workload row: its label and what the label rests on.
Row = collections.namedtuple(
    "Row", "label wins parent_median parent_q change_median change_q")


def classify(pairs, better, bound):
    """The Row of one metric x workload (see the module doc for the
    labels); pairs holds (parent, change) values."""
    parent = [p for p, _ in pairs]
    change = [c for _, c in pairs]
    sign = 1 if better == "lower" else -1
    wins = sum(1 for p, c in pairs if sign * (p - c) > 0)
    pm, cm = statistics.median(parent), statistics.median(change)
    pq1, pq3 = quartiles(parent)
    if wins >= 0.9 * len(pairs) and sign * (pm - cm) > pq3 - pq1:
        label = "gain"
    elif sign * (cm - pm) > bound * abs(pm):
        label = "regression"
    elif pq3 - pq1 > bound * abs(pm):
        label = "unresolved"
    else:
        label = "-"
    return Row(label, wins, pm, (pq1, pq3), cm, quartiles(change))


def summarize(metric, workload, pairs, row):
    """One report line for `metric` on `workload` from its Row."""
    pm, cm = row.parent_median, row.change_median
    ratio = f"{cm / pm - 1:+.1%}" if pm else "n/a"
    return (f"{metric:<12} {workload:<13} "
            f"parent {pm:.6f} [{row.parent_q[0]:.6f}, "
            f"{row.parent_q[1]:.6f}]  "
            f"change {cm:.6f} [{row.change_q[0]:.6f}, "
            f"{row.change_q[1]:.6f}]  {ratio:>7}  "
            f"wins {row.wins}/{len(pairs)}  {row.label}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", default="HEAD")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    all_workloads, metrics = load_benchmark()
    ap.add_argument("--workload", action="append", choices=all_workloads)
    args = ap.parse_args()
    workloads = args.workload or all_workloads

    results = {w: [] for w in workloads}  # (parent, change) result pairs
    with tempfile.TemporaryDirectory() as tmp:
        trees = {"parent": export_parent(args.parent, tmp),
                 "change": export_worktree(tmp)}
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 else \
                ("change", "parent")
            for w in workloads:
                got = {}
                for side in order:
                    got[side] = run_bench(trees[side], w, args.seed,
                                          args.seconds)
                    values = " ".join(
                        f"{m}={got[side]['metrics'][m]['value']:.6f}"
                        for m, _, _ in metrics
                        if m in got[side]["metrics"])
                    print(f"pair {i} {w:<13} {side:<6} "
                          f"correct={got[side]['correct']} {values}",
                          flush=True)
                results[w].append((got["parent"], got["change"]))

    print("-- medians [quartiles], change vs parent, pairs won --")
    regressions = []
    for metric, better, bound in metrics:
        for w in workloads:
            pairs = [(p["metrics"][metric]["value"],
                      c["metrics"][metric]["value"])
                     for p, c in results[w]
                     if p["correct"] and c["correct"]]
            if not pairs:
                print(f"{metric:<12} {w:<13} no correct pair")
                continue
            row = classify(pairs, better, bound)
            print(summarize(metric, w, pairs, row))
            if row.label == "regression":
                regressions.append(f"{metric} on {w}")
    incorrect = sum(1 for w in workloads for p, c in results[w]
                    if not (p["correct"] and c["correct"]))
    print(f"pairs with an incorrect run: {incorrect}")
    print(f"regressions: {', '.join(regressions) or 'none'}")
    return 1 if incorrect or regressions else 0


if __name__ == "__main__":
    sys.exit(main())
