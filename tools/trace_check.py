#!/usr/bin/env python3
"""Validate a Chrome/Perfetto trace-event JSON file (obs/trace.h).

Usage:

    trace_check.py TRACE.json [TRACE2.json ...]
    trace_check.py --bin BINARY [--arg EXTRA ...]

The first form validates existing trace files. The second runs
`BINARY [EXTRA...] --trace-out <tmp>` itself, validates what it wrote,
and requires the sweep's grid span (the ctest registration).

Checks, per file:

1. the file is a non-empty JSON array of event objects;
2. every event is a complete span ("ph":"X", the only kind the
   recorder writes) and carries the trace_event keys the viewers rely
   on — name, cat, ph, ts, dur, pid, tid — with the right types and a
   non-negative dur;
3. timestamps are monotone in file order (flush() writes sorted);
4. complete spans nest properly per (pid, tid) lane: sorted by
   (ts, -dur) — the enclosing span first on a start-time tie — no
   span may end after a still-open enclosing span ends. Partial
   overlap means the instrumentation mis-threaded its lanes and the
   timeline would render as garbage.
"""

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path


def fail(path, msg):
    sys.exit(f"{path}: {msg}")


def check_event(path, i, ev):
    if not isinstance(ev, dict):
        fail(path, f"event {i} is not an object")
    for key, kind in (("name", str), ("cat", str), ("ph", str),
                      ("ts", int), ("pid", int), ("tid", int)):
        if not isinstance(ev.get(key), kind):
            fail(path, f"event {i} lacks {kind.__name__} key "
                       f"'{key}': {ev}")
    if not ev["name"]:
        fail(path, f"event {i} has an empty name")
    if ev["ph"] != "X":
        fail(path, f"event {i} has unexpected ph {ev['ph']!r}")
    if ev["ts"] < 0:
        fail(path, f"event {i} has negative ts: {ev}")
    if not isinstance(ev.get("dur"), int) or ev["dur"] < 0:
        fail(path, f"complete event {i} lacks a non-negative dur: {ev}")


def check_nesting(path, events):
    """Complete spans per lane must nest (no partial overlap)."""
    lanes = {}
    for ev in events:
        lanes.setdefault((ev["pid"], ev["tid"]), []).append(
            (ev["ts"], ev["ts"] + ev["dur"], ev["name"]))
    for lane, spans in sorted(lanes.items()):
        stack = []  # end times of the currently open spans
        for ts, end, name in sorted(spans,
                                    key=lambda s: (s[0], -s[1])):
            while stack and stack[-1] <= ts:
                stack.pop()
            if stack and end > stack[-1]:
                fail(path, f"span '{name}' [{ts}, {end}) on lane "
                           f"pid={lane[0]} tid={lane[1]} overlaps "
                           f"an enclosing span ending at "
                           f"{stack[-1]} without nesting inside it")
            stack.append(end)
    return len(lanes)


def check_trace(path):
    try:
        events = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as e:
        fail(path, f"not readable JSON: {e}")
    if not isinstance(events, list):
        fail(path, "top level is not a JSON array")
    if not events:
        fail(path, "trace holds no events")
    last_ts = -1
    for i, ev in enumerate(events):
        check_event(path, i, ev)
        if ev["ts"] < last_ts:
            fail(path, f"event {i} breaks ts monotonicity "
                       f"({ev['ts']} after {last_ts})")
        last_ts = ev["ts"]
    lanes = check_nesting(path, events)
    names = sorted({ev["name"] for ev in events})
    print(f"{path}: {len(events)} events on {lanes} lane(s) OK "
          f"({', '.join(names)})")
    return events


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("traces", nargs="*",
                    help="trace files to validate")
    ap.add_argument("--bin",
                    help="run this binary with --trace-out and "
                         "validate what it writes")
    ap.add_argument("--arg", action="append", default=[],
                    help="extra argument for --bin (repeatable)")
    args = ap.parse_args()
    if not args.traces and not args.bin:
        ap.error("give trace files and/or --bin")

    for path in args.traces:
        check_trace(path)

    if args.bin:
        with tempfile.TemporaryDirectory() as tmpdir:
            trace = Path(tmpdir) / "trace.json"
            cmd = [args.bin] + args.arg + ["--trace-out", str(trace)]
            proc = subprocess.run(cmd, capture_output=True)
            if proc.returncode != 0:
                sys.exit(f"command failed ({proc.returncode}): "
                         f"{' '.join(map(str, cmd))}\n"
                         f"{proc.stderr.decode(errors='replace')}")
            if not trace.exists():
                sys.exit(f"{' '.join(map(str, cmd))} wrote no "
                         f"trace file")
            events = check_trace(trace)
            # A grid binary's sweep must show up as the grid span.
            names = {ev["name"] for ev in events}
            if not names & {"grid.run", "grid.search"}:
                sys.exit(f"{trace}: no grid.run/grid.search span — "
                         "did the sweep record anything?")
    return 0


if __name__ == "__main__":
    sys.exit(main())
