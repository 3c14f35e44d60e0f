#!/usr/bin/env python3
"""Smoke-test the command line of every figure/table binary.

Usage:

    cli_smoke_check.py --bin-dir BUILD_DIR --specs examples/specs \
        --trace-check tools/trace_check.py

Checks:

1. every binary exits 0 with no arguments;
2. every grid binary exits 0 with --list-generators and prints
   golden/list_generators.txt (next to this script) byte for byte;
3. on the binaries whose default workload axis is all 17 paper
   workloads, --spec paper_suite.spec prints the same bytes as the
   no-argument run; on fig16 and fig21-fig25, a spec of the
   paper_suite.spec sections of their default axis does too; table4's
   paper column shows Llama3.1-405B-Decode's Table 4 anchor of 64
   chips in both runs;
4. fig02 exits 0 on every examples/specs/*.spec;
5. every grid binary's --trace-out file passes trace_check.py;
6. flags the binaries do not take (including the retired sharding,
   worker and metrics flags) exit 2 with the usage line;
7. the binaries without a sweep grid reject any argument with exit 2;
8. fig02 and fig17 exit 1, naming dp, on a spec whose batch is smaller
   than its data parallelism;
9. fig02 on a spec that fits NPU-D but has no candidate setup on NPU-A
   prints an error row for A, renders B..D, and exits 1;
10. fig17 and fig21 on the example spec with gating overrides print
    the same bytes with REGATE_THREADS=1 and 4;
11. fig17 and fig19 exit 1 with a `--spec: file:line` message on
    gating values the model cannot represent: a leakage ratio above 1
    and a delay scale whose scaled cycle counts overflow;
12. fig02's trace holds exactly FIG02_SPANS engine spans, with and
    without --spec paper_suite.spec: its 68 SLO searches execute each
    distinct candidate once and evaluate only the winners; scenarios
    that differ only in gating keys add evaluations to fig02 but no
    executions;
13. every grid binary exits 1, not on a signal, on a llama-prefill
    spec whose seq_len does not fit in 32 bits and on one whose
    seq_len is 1e12: a MAC count of each leaves 64 bits, and stderr
    names the scenario and the operator; fig02 and table4 print an
    error row first;
14. the grid binaries that simulate the spec of check 9 on NPU-A
    (fig03-fig06, fig08, fig09, fig23) exit 1 with its ConfigError on
    stderr, and the others besides fig02 exit 0;
15. every binary's no-argument stdout hashes (SHA-256) to its
    paper_suite entry in perfbench/digests.json, which the benchmark
    checks its runs against.
"""

import argparse
import collections
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

NO_GRID = ("fig15_setpm_timeline", "table2_npu_specs",
           "table3_delays_bets")
GRID = (
    "fig02_energy_efficiency", "fig03_energy_breakdown",
    "fig04_sa_temporal_util", "fig05_sa_spatial_util",
    "fig06_vu_temporal_util", "fig07_sram_demand_cdf",
    "fig08_ici_temporal_util", "fig09_hbm_temporal_util",
    "fig16_validation", "fig17_energy_savings", "fig18_power",
    "fig19_perf_overhead", "fig20_setpm_rate", "fig21_sens_leakage",
    "fig22_sens_delay", "fig23_generations", "fig24_carbon_reduction",
    "fig25_lifespan", "table4_slo_configs",
)
# Default axis == the 17 paper workloads, so the paper-suite spec must
# reproduce the default output byte for byte.
SUITE_AXIS = (
    "fig02_energy_efficiency", "fig03_energy_breakdown",
    "fig04_sa_temporal_util", "fig05_sa_spatial_util",
    "fig06_vu_temporal_util", "fig07_sram_demand_cdf",
    "fig08_ici_temporal_util", "fig09_hbm_temporal_util",
    "fig17_energy_savings", "fig18_power", "fig19_perf_overhead",
    "fig20_setpm_rate", "table4_slo_configs",
)
# Binaries whose default axis is a subset of the paper workloads, with
# the paper_suite.spec sections of that axis in its order.
SUBSET_AXIS = {
    "fig16_validation": ("Prefill-13B", "Decode-13B", "Prefill-70B",
                         "Decode-70B"),
}
SUBSET_AXIS.update(dict.fromkeys(
    ("fig21_sens_leakage", "fig22_sens_delay", "fig23_generations",
     "fig24_carbon_reduction", "fig25_lifespan"),
    ("Train-405B", "Prefill-405B", "Decode-405B", "DLRM-L", "DiT-XL")))

# What every grid binary's --list-generators prints.
LIST_GENERATORS_GOLDEN = (Path(__file__).resolve().parent / "golden" /
                          "list_generators.txt")

# The benchmark's recorded stdout digests; check 15 only reads them.
DIGESTS = (Path(__file__).resolve().parent.parent / "perfbench" /
           "digests.json")

# table4's paper column for the one workload whose NPU-D HBM fit grows
# the pod (64 -> 128 chips): the column keeps the Table 4 anchor.
TABLE4_PAPER_ROW = ("Llama3.1-405B-Decode", "64", "2048")

# Retired sharding/worker/metrics flags and an unknown one. The names
# are spelled in pieces so a search of the tree for the retired flags
# finds no live use of them.
REJECTED = (
    ["--" + "shard", "0/1", "--out", "x.json"],
    ["--from", "x.json"],
    ["--cases"],
    ["--worker"],
    ["--" + "metrics" + "-out", "x.json"],
    ["--bogus"],
)

# Parses, but fitting 64 resident experts into NPU-D's HBM grows the
# pod to 16 chips (dp=2) for a batch of 1.
DP_OVER_BATCH_SPEC = """@regate-spec v1
[scenario moe-dp-over-batch]
family = moe
model = 8b
experts = 64
batch = 1
chips = 4
"""

# Fits NPU-D, but fitting 16 resident experts into NPU-A's HBM needs
# more data-parallel replicas than the batch of 1, so the SLO search on
# A has no candidate setup.
NO_CANDIDATE_ON_A_SPEC = """@regate-spec v1
[scenario moe-no-candidate-on-a]
family = moe
model = 8b
experts = 16
batch = 1
chips = 1
"""

# Shapes whose counts leave 64 bits, each with the operator whose
# count does first. A GEMM reduction dimension of 2^31 is simulated in
# 64 bits, not truncated to a negative tile size, but the attention's
# MAC count is past 2^64. Wrapped, the seq_len 1e12 counts print 0.0%
# in every fig17 column.
OVERFLOW_SPECS = (
    ("prefill-seq-2-31", "2147483648", b"operator 'attn.scores'"),
    ("prefill-seq-1e12", "1000000000000", b"operator 'qkv_proj'"),
)
OVERFLOW_SPEC = """@regate-spec v1
[scenario {name}]
family = llama-prefill
model = 8b
batch = 8
chips = 8
seq_len = {seq_len}
"""

# The grid binaries that simulate NO_CANDIDATE_ON_A_SPEC's default
# setup on NPU-A, where it has more replicas than its batch.
RUN_ON_A = ("fig03_energy_breakdown", "fig04_sa_temporal_util",
            "fig05_sa_spatial_util", "fig06_vu_temporal_util",
            "fig08_ici_temporal_util", "fig09_hbm_temporal_util",
            "fig23_generations")

# Gating values outside what the model represents, each with the
# message validation gives for it.
UNREPRESENTABLE_GATING = (
    ("logic_off = 1.5", b"logic_off = 1.5 is not a leakage ratio"),
    ("sram_off = 3", b"sram_off = 3 is not a leakage ratio"),
    ("delay_scale = 1e30",
     b"delay_scale = 1e+30 overflows the scaled Table-3 cycle counts"),
)

# fig02's 17 workloads x 4 generations: 17 NPU-D anchors (each reused
# as NPU-D's base candidate) and the 507 other candidates are executed
# once; each of the 68 winners is evaluated once.
FIG02_SPANS = {"engine.execute": 524, "engine.evaluate": 68}

# A custom scenario, then two that differ from it only in name and
# gating keys: one SLO search identity.
MOE_SECTION = """[scenario moe-{name}]
family = moe
model = 8b
experts = 16
batch = 64
chips = 2
{gating}
"""
GATING_VARIANTS = ("", "logic_off = 0.2\nsram_off = 0.3",
                   "delay_scale = 4")

failures = []
# Working directory of every child, so a binary that wrongly accepts a
# file argument writes into a scratch directory.
workdir = None


def run(argv, threads=None):
    env = None
    if threads is not None:
        env = dict(os.environ, REGATE_THREADS=str(threads))
    return subprocess.run([str(a) for a in argv], capture_output=True,
                          cwd=workdir, env=env)


def expect(ok, what, proc=None):
    if ok:
        return
    if proc is not None:
        what += (f" (exit {proc.returncode}; stderr: "
                 f"{proc.stderr.decode(errors='replace').strip()[:300]})")
    failures.append(what)


def span_counts(trace):
    """Occurrences of each event name in a --trace-out file."""
    return collections.Counter(
        event.get("name") for event in json.loads(trace.read_text()))


def spec_sections(text):
    """The `[scenario NAME]` sections of a spec, by name."""
    sections, name = {}, None
    for line in text.splitlines(keepends=True):
        if line.startswith("[scenario "):
            name = line.strip()[len("[scenario "):-1]
            sections[name] = ""
        if name is not None:
            sections[name] += line
    return sections


def table4_paper_cells(stdout, workload):
    """table4's (Chips, Batch) paper cells on @p workload's row."""
    for line in stdout.decode().splitlines():
        cells = [c.strip() for c in line.split("|")]
        if len(cells) > 5 and cells[1] == workload:
            return cells[4], cells[5]
    return None


def check_all(binary, suite_spec, specs, trace_check):
    """Run every check, recording failures."""
    default_out = {}
    for name in GRID + NO_GRID:
        proc = run([binary(name)])
        expect(proc.returncode == 0 and proc.stdout,
               f"{name}: no-argument run failed", proc)
        default_out[name] = proc.stdout

    recorded = json.loads(DIGESTS.read_text())["paper_suite"]
    expect(sorted(recorded) == sorted(GRID + NO_GRID),
           f"{DIGESTS.name}: paper_suite lists {sorted(recorded)}")
    for name in GRID + NO_GRID:
        got = hashlib.sha256(default_out[name]).hexdigest()
        expect(got == recorded.get(name),
               f"{name}: stdout digest {got[:16]} is not its "
               f"{DIGESTS.name} paper_suite entry")

    families = LIST_GENERATORS_GOLDEN.read_bytes()
    for name in GRID:
        proc = run([binary(name), "--list-generators"])
        expect(proc.returncode == 0 and proc.stdout == families,
               f"{name} --list-generators differs from "
               f"{LIST_GENERATORS_GOLDEN.name}", proc)

    for name in SUITE_AXIS:
        proc = run([binary(name), "--spec", suite_spec])
        expect(proc.returncode == 0, f"{name} --spec failed", proc)
        expect(proc.stdout == default_out[name],
               f"{name} --spec {suite_spec.name} output differs from "
               "the no-argument run")
        if name == "table4_slo_configs":
            workload, chips, batch = TABLE4_PAPER_ROW
            for what, out in (("default", default_out[name]),
                              ("--spec", proc.stdout)):
                cells = table4_paper_cells(out, workload)
                expect(cells == (chips, batch),
                       f"table4 {what}: want {workload}'s paper column "
                       f"at {chips} chips / {batch} batch, got {cells}")

    sections = spec_sections(suite_spec.read_text())
    for name, axis in SUBSET_AXIS.items():
        spec = Path(workdir) / f"{name}_axis.spec"
        spec.write_text("@regate-spec v1\n" +
                        "".join(sections[s] for s in axis))
        proc = run([binary(name), "--spec", spec])
        expect(proc.returncode == 0, f"{name} --spec {spec.name} failed",
               proc)
        expect(proc.stdout == default_out[name],
               f"{name} --spec {spec.name} output differs from the "
               "no-argument run")

    for spec in specs:
        proc = run([binary("fig02_energy_efficiency"), "--spec", spec])
        expect(proc.returncode == 0,
               f"fig02 --spec {spec.name} failed", proc)

    dp_spec = Path(workdir) / "dp_over_batch.spec"
    dp_spec.write_text(DP_OVER_BATCH_SPEC)
    for name in ("fig02_energy_efficiency", "fig17_energy_savings"):
        proc = run([binary(name), "--spec", dp_spec])
        expect(proc.returncode == 1 and b"--spec: " in proc.stderr
               and b"too small for dp=2" in proc.stderr,
               f"{name} --spec {dp_spec.name}: want exit 1 naming dp",
               proc)

    spec = Path(workdir) / "no_candidate_on_a.spec"
    spec.write_text(NO_CANDIDATE_ON_A_SPEC)
    proc = run([binary("fig02_energy_efficiency"), "--spec", spec])
    rows = [line.split("|") for line in proc.stdout.decode().splitlines()
            if line.startswith("| moe-no-candidate-on-a ")]
    cells = {row[2].strip(): row[5].strip() for row in rows}
    expect(proc.returncode == 1
           and b"moe-no-candidate-on-a/A: " in proc.stderr
           and b"no candidate setups" in proc.stderr
           and cells.get("A") == "error"
           and all(cells.get(g, "error") != "error" for g in "BCD"),
           f"fig02 --spec {spec.name}: want an error row for A, B..D "
           "rendered, exit 1", proc)

    for name in GRID:
        if name == "fig02_energy_efficiency":
            continue  # Its error row is checked above.
        proc = run([binary(name), "--spec", spec])
        if name in RUN_ON_A:
            expect(proc.returncode == 1
                   and b"error: " in proc.stderr
                   and b"too small for dp=2" in proc.stderr,
                   f"{name} --spec {spec.name}: want exit 1 with the "
                   "ConfigError on stderr", proc)
        else:
            expect(proc.returncode == 0,
                   f"{name} --spec {spec.name}: want exit 0", proc)

    for scenario, seq_len, operator in OVERFLOW_SPECS:
        spec = Path(workdir) / f"{scenario}.spec"
        spec.write_text(OVERFLOW_SPEC.format(name=scenario,
                                             seq_len=seq_len))
        for name in GRID:
            proc = run([binary(name), "--spec", spec])
            error_row = name not in ("fig02_energy_efficiency",
                                     "table4_slo_configs") or any(
                line.startswith(f"| {scenario} ")
                and "error" in (cell.strip() for cell in line.split("|"))
                for line in proc.stdout.decode().splitlines())
            expect(proc.returncode == 1 and error_row
                   and f"scenario '{scenario}'".encode() in proc.stderr
                   and operator in proc.stderr
                   and b"does not fit in 64 bits" in proc.stderr,
                   f"{name} --spec {spec.name}: want exit 1 naming the "
                   "scenario and the operator", proc)

    gating_spec = suite_spec.parent / "gating_overrides.spec"
    for name in ("fig17_energy_savings", "fig21_sens_leakage"):
        one = run([binary(name), "--spec", gating_spec], threads=1)
        four = run([binary(name), "--spec", gating_spec], threads=4)
        expect(one.returncode == 0 and four.returncode == 0,
               f"{name} --spec {gating_spec.name} failed", four)
        expect(one.stdout and one.stdout == four.stdout,
               f"{name} --spec {gating_spec.name}: output differs "
               "between REGATE_THREADS=1 and 4")

    counts = []
    for variants in (GATING_VARIANTS[:1], GATING_VARIANTS):
        spec = Path(workdir) / f"moe_{len(variants)}_variants.spec"
        spec.write_text("@regate-spec v1\n" + "".join(
            MOE_SECTION.format(name=i, gating=gating)
            for i, gating in enumerate(variants)))
        trace = spec.with_suffix(".trace.json")
        proc = run([binary("fig02_energy_efficiency"), "--spec", spec,
                    "--trace-out", trace])
        expect(proc.returncode == 0 and trace.exists(),
               f"fig02 --spec {spec.name} --trace-out failed", proc)
        spans = span_counts(trace) if trace.exists() else {}
        counts.append((spans.get("engine.execute"),
                       spans.get("engine.evaluate")))
    (one_ex, one_ev), (all_ex, all_ev) = counts
    expect(one_ex and one_ex == all_ex and one_ev == 4
           and all_ev == 4 * len(GATING_VARIANTS),
           "fig02: gating variants must add only evaluations, want "
           f"equal executions and 4 evaluations per scenario, got "
           f"{counts}")

    for i, (line, message) in enumerate(UNREPRESENTABLE_GATING):
        spec = Path(workdir) / f"unrepresentable_{i}.spec"
        spec.write_text("@regate-spec v1\n[scenario bad]\n"
                        "family = dlrm\nmodel = s\nbatch = 8\n"
                        f"chips = 1\n{line}\n")
        at = f"{spec}:2: ".encode()
        for name in ("fig17_energy_savings", "fig19_perf_overhead"):
            proc = run([binary(name), "--spec", spec])
            expect(proc.returncode == 1 and b"--spec: " in proc.stderr
                   and at in proc.stderr and message in proc.stderr
                   and not proc.stdout,
                   f"{name} --spec with '{line}': want exit 1 with a "
                   "--spec: file:line message", proc)

    traces = []
    for name in GRID:
        trace = Path(workdir) / f"{name}.trace.json"
        proc = run([binary(name), "--trace-out", trace])
        expect(proc.returncode == 0 and trace.exists(),
               f"{name} --trace-out wrote no trace", proc)
        expect(proc.stdout == default_out[name],
               f"{name} --trace-out changed the figure output")
        if trace.exists():
            traces.append(trace)
        if name == "fig02_energy_efficiency" and trace.exists():
            counts = span_counts(trace)
            spans = {key: counts[key] for key in FIG02_SPANS}
            expect(spans == FIG02_SPANS,
                   f"fig02 --trace-out: want spans {FIG02_SPANS}, "
                   f"got {spans}")
            suite_trace = Path(workdir) / "fig02_suite.trace.json"
            proc = run([binary(name), "--spec", suite_spec,
                        "--trace-out", suite_trace])
            expect(proc.returncode == 0 and suite_trace.exists(),
                   "fig02 --spec --trace-out wrote no trace", proc)
            if suite_trace.exists():
                counts = span_counts(suite_trace)
                spans = {key: counts[key] for key in FIG02_SPANS}
                expect(spans == FIG02_SPANS,
                       f"fig02 --spec {suite_spec.name} --trace-out: "
                       f"want spans {FIG02_SPANS}, got {spans}")
    if traces:
        proc = run([sys.executable, trace_check, *traces])
        expect(proc.returncode == 0, "trace_check rejected a "
               "--trace-out file", proc)

    for name in GRID + NO_GRID:
        for flags in REJECTED:
            proc = run([binary(name), *flags])
            expect(proc.returncode == 2 and b"usage: " in proc.stderr,
                   f"{name} {' '.join(flags)}: want exit 2 with usage",
                   proc)

    for name in NO_GRID:
        for flags in (["--spec", suite_spec], ["--list-generators"],
                      ["--trace-out", "x.json"]):
            proc = run([binary(name), *flags])
            expect(proc.returncode == 2,
                   f"{name} {flags[0]}: want exit 2", proc)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--bin-dir", required=True, type=Path)
    ap.add_argument("--specs", required=True, type=Path)
    ap.add_argument("--trace-check", required=True, type=Path)
    args = ap.parse_args()
    bin_dir, spec_dir = args.bin_dir.resolve(), args.specs.resolve()
    binary = lambda name: bin_dir / name  # noqa: E731
    suite_spec = spec_dir / "paper_suite.spec"
    specs = sorted(spec_dir.glob("*.spec"))
    if not specs or not suite_spec.exists():
        sys.exit(f"no example specs under {args.specs}")
    global workdir
    with tempfile.TemporaryDirectory() as tmp:
        workdir = tmp
        check_all(binary, suite_spec, specs, args.trace_check.resolve())

    for f in failures:
        print("FAIL:", f)
    if failures:
        return 1
    print(f"cli smoke: {len(GRID) + len(NO_GRID)} binaries OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
