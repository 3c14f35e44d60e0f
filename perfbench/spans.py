"""Span trees written by layer_trace: reading, totals and self time.

A span is (name, start_ns, end_ns, parent), where parent is the index
of the enclosing span in the same list or -1 for a root. A span's self
time is its duration minus the part of its interval that its children
cover; children that overlap each other are counted once.
"""

from collections import defaultdict


def read_tsv(path):
    """Spans from layer_trace's spans.tsv."""
    spans = []
    with open(path) as f:
        for line in f:
            if line.startswith("#"):
                continue
            name, start, end, parent = line.rstrip("\n").split("\t")
            spans.append((name, int(start), int(end), int(parent)))
    return spans


def totals(spans):
    """Seconds per span name, summed over its spans."""
    out = defaultdict(float)
    for name, start, end, _ in spans:
        out[name] += (end - start) / 1e9
    return dict(out)


def covered(start, end, intervals):
    """Nanoseconds of [start, end) covered by the union of
    `intervals`."""
    clipped = sorted((max(s, start), min(e, end)) for s, e in intervals
                     if min(e, end) > max(s, start))
    total = 0
    cur_s = cur_e = None
    for s, e in clipped:
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans):
    """Seconds of self time per span name."""
    children = defaultdict(list)
    for _, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = defaultdict(float)
    for i, (name, start, end, _) in enumerate(spans):
        own = end - start - covered(start, end, children.get(i, ()))
        out[name] += own / 1e9
    return dict(out)


def layer_table(spans):
    """Rows (name, total s, self s, span count), largest self first."""
    total = totals(spans)
    own = self_times(spans)
    count = defaultdict(int)
    for name, *_ in spans:
        count[name] += 1
    return sorted(((n, total[n], own[n], count[n]) for n in total),
                  key=lambda row: -row[2])
