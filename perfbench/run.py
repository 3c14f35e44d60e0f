#!/usr/bin/env python3
"""The repository's benchmark: the paper suite and two seeded spec sweeps.

One harness process builds the simulator (Release, into .bench_build or
$CARGO_TARGET_DIR), then runs the figure/table binaries as child
processes, one at a time, with default arguments, and checks each
output against a recorded stdout digest. A separate traced run
(layer_trace) calls each simulator layer in-process and reports where
the time goes.

    python3 perfbench/run.py --workload paper_suite --seed 1 \
        --seconds 10 --trace 0
    python3 perfbench/run.py --report          # every workload, both
                                               # modes; writes
                                               # perfbench/trajectory.json
    python3 perfbench/run.py --record-digests  # rewrite digests.json

Workloads:
  paper_suite   all 22 fig*/table* binaries in a fixed order, each in a
                fresh process; a pass is the 22 binaries.
  moe_sweep     fig17_energy_savings --spec over a seeded ~3000-case
                MoE/prefill/decode grid; a pass is one invocation.
  gating_sweep  fig17_energy_savings --spec over the five sensitivity
                workloads crossed with a seeded gating-override grid.

The last stdout line is one JSON object: correct, attempted, failed and
metrics (end-to-end metrics with --trace 0, per-layer with --trace 1).
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import specgen  # noqa: E402
import spans as spanlib  # noqa: E402

SUITE = (
    "fig02_energy_efficiency", "fig03_energy_breakdown",
    "fig04_sa_temporal_util", "fig05_sa_spatial_util",
    "fig06_vu_temporal_util", "fig07_sram_demand_cdf",
    "fig08_ici_temporal_util", "fig09_hbm_temporal_util",
    "fig15_setpm_timeline", "fig16_validation", "fig17_energy_savings",
    "fig18_power", "fig19_perf_overhead", "fig20_setpm_rate",
    "fig21_sens_leakage", "fig22_sens_delay", "fig23_generations",
    "fig24_carbon_reduction", "fig25_lifespan", "table2_npu_specs",
    "table3_delays_bets", "table4_slo_configs",
)
SWEEP_BINARY = "fig17_energy_savings"
FIG02 = "fig02_energy_efficiency"
WORKLOADS = ("paper_suite", "moe_sweep", "gating_sweep")
DIGESTS = os.path.join(HERE, "digests.json")
TRAJECTORY = os.path.join(HERE, "trajectory.json")
RECORDED_SEEDS = range(0, 100)

MIN_PASSES = 3
WARMUP = 0.2


class Failure(Exception):
    """The benchmark cannot run here (no sources, build failed)."""


# ---- build -----------------------------------------------------------

def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build():
    """Configure, then bring every needed target up to date."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        raise Failure("no simulator sources next to perfbench/ "
                      "(want CMakeLists.txt and src/ at " + ROOT + ")")
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    log = os.path.join(out, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", out, "-j", jobs, "--target",
              "layer_trace", "runchild", *SUITE]]
    with open(log, "ab") as f:
        for cmd in steps:
            if subprocess.call(cmd, stdout=f, stderr=subprocess.STDOUT,
                               cwd=ROOT) != 0:
                raise Failure("build step failed: " + " ".join(cmd) +
                              " (see " + log + ")")
    return out


# ---- children ----------------------------------------------------------

class Runner:
    """Runs children one at a time with a clean environment and
    records each one's wall time, CPU time and peak RSS."""

    def __init__(self, out):
        self.bin_dir = os.path.join(out, "regate")
        self.tool = os.path.join(out, "layer_trace")
        self.launcher = os.path.join(out, "runchild")
        self.work = os.path.join(out, "run")
        os.makedirs(self.work, exist_ok=True)
        # No REGATE_* knob reaches a child: the benchmark measures the
        # defaults a reproducer gets.
        self.env = {k: v for k, v in os.environ.items()
                    if not k.startswith("REGATE_")}
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def binary(self, name):
        return os.path.join(self.bin_dir, name)

    def run(self, argv):
        """(exit code, stdout bytes, wall s, cpu s, peak rss MB), the
        usage as runchild measured it; exit code -1 if it could not."""
        stats = os.path.join(self.work, "stats")
        if os.path.exists(stats):
            os.remove(stats)
        with open(os.path.join(self.work, "stderr"), "wb") as err:
            proc = subprocess.Popen([self.launcher, stats, *argv],
                                    stdout=subprocess.PIPE, stderr=err,
                                    env=self.env, cwd=self.work)
            stdout, _ = proc.communicate()
        try:
            with open(stats) as f:
                wall_ns, user_us, sys_us, rss_kb = map(int, f.read().split())
        except (OSError, ValueError):
            return -1, stdout, 0.0, 0.0, 0.0
        return (proc.returncode, stdout, wall_ns / 1e9,
                (user_us + sys_us) / 1e6, rss_kb / 1024.0)

    def checked(self, argv, expect_digest, what):
        """Run one operation and count it; a non-zero exit or a stdout
        whose digest differs from the recorded one is a failure."""
        code, stdout, wall, cpu, rss = self.run(argv)
        self.attempted += 1
        if not output_ok(code, stdout, expect_digest):
            self.failed += 1
            if len(self.errors) < 10:
                self.errors.append(f"{what}: exit {code}, digest "
                                   f"{digest(stdout)[:16]} != "
                                   f"{(expect_digest or '?')[:16]}")
        return wall, cpu, rss


def digest(data):
    return hashlib.sha256(data).hexdigest()


def output_ok(code, stdout, expect_digest):
    """An operation succeeds on exit 0 with the recorded stdout."""
    return code == 0 and expect_digest is not None and \
        digest(stdout) == expect_digest


def load_digests():
    with open(DIGESTS) as f:
        return json.load(f)


# ---- inputs ------------------------------------------------------------

def write_input(out, name, text):
    path = os.path.join(out, "inputs", name)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as f:
        f.write(text)
    return path


class Workload:
    """A workload at a seed: its spec files, one pass's operations and
    the digest each operation's stdout must have."""

    def __init__(self, name, seed, runner, out):
        self.name = name
        self.seed = seed
        self.runner = runner
        self.spec = write_input(out, f"{name}-{seed}.spec",
                                specgen.spec_text(name, seed))
        self.one_case = write_input(out, f"{name}-{seed}.one.spec",
                                    specgen.one_case_text(name, seed))
        recorded = load_digests()
        if name == "paper_suite":
            table = recorded.get("paper_suite", {})
            self.ops = [(b, [runner.binary(b)], table.get(b))
                        for b in SUITE]
        else:
            expect = recorded.get(name, {}).get(str(seed))
            if expect is None:
                expect = reference_digest(runner, self.spec)
            self.ops = [(SWEEP_BINARY, [runner.binary(SWEEP_BINARY),
                                        "--spec", self.spec], expect)]
        self.fig02_digest = recorded.get("paper_suite", {}).get(FIG02)
        self.setup_argv = [runner.binary(SWEEP_BINARY), "--spec",
                           self.one_case]
        self.setup_digest = reference_digest(runner, self.one_case)

    def one_pass(self, probes=False):
        """Run every operation once. With `probes`, also run the
        set-up probe (the workload's binary on its input cut to one
        case) and, on a sweep, fig02 alone, so that they sample the
        same machine conditions as the pass."""
        sample = {"wall": 0.0, "cpu": 0.0, "rss": 0.0, "binary": {}}
        for name, argv, expect in self.ops:
            wall, cpu, rss = self.runner.checked(argv, expect, name)
            sample["wall"] += wall
            sample["cpu"] += cpu
            sample["rss"] = max(sample["rss"], rss)
            sample["binary"][name] = (wall, cpu)
        if probes:
            wall, cpu, _ = self.runner.checked(
                self.setup_argv, self.setup_digest, "setup")
            sample["setup_wall"], sample["setup_cpu"] = wall, cpu
            if FIG02 not in sample["binary"]:
                sample["binary"][FIG02] = self.runner.checked(
                    [self.runner.binary(FIG02)], self.fig02_digest,
                    FIG02)[:2]
            sample["fig02_wall"], sample["fig02_cpu"] = \
                sample["binary"][FIG02]
        return sample


def reference_digest(runner, spec):
    """Digest of fig17's output for `spec`, computed in-process by the
    uncached library path (layer_trace render)."""
    code, stdout, *_ = runner.run([runner.tool, "render", spec])
    return digest(stdout) if code == 0 else None


# ---- measurement -------------------------------------------------------

def passes_for(workload, seconds, probes=False):
    """Run passes for `seconds` (at least MIN_PASSES), after
    WARMUP * `seconds` of warm-up passes that are checked but not
    timed. The warm-up also lets the host settle: after an idle spell
    a 4-vCPU virtual machine ran the suite at about half its sustained
    CPU time for a few seconds."""
    warm_until = time.perf_counter() + WARMUP * seconds
    workload.one_pass(probes)
    while time.perf_counter() < warm_until:
        workload.one_pass(probes)
    samples = []
    deadline = time.perf_counter() + seconds
    while len(samples) < MIN_PASSES or time.perf_counter() < deadline:
        samples.append(workload.one_pass(probes))
    return samples


def tail(values):
    """(label, value) of the highest percentile with at least ten
    samples beyond it; the maximum when there are too few samples."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 20:
        return "max", ordered[-1]
    q = int(100 * (1 - 10 / n))
    rank = max(1, -(-q * n // 100))
    return f"p{q}", ordered[rank - 1]


def summarize(values, unit):
    label, value = tail(values)
    return {"value": statistics.median(values), "unit": unit,
            "tail": label, "tail_value": value, "n": len(values)}


# (metric, sample key, unit): the end-to-end metrics, then the wall
# times printed beside them. Wall time is not a declared metric: on a
# shared virtual machine the hypervisor takes CPU time away ("steal")
# for minutes at a time, and a suite pass then takes ~0.24 s instead of
# ~0.12 s while its CPU time stays within ~5%.
E2E = (("cpu_s", "cpu", "s"), ("fig02_cpu_s", "fig02_cpu", "s"),
       ("peak_rss_mb", "rss", "MB"), ("setup_s", "setup_cpu", "s"))
WALL = (("wall_s", "wall", "s"), ("fig02_wall_s", "fig02_wall", "s"),
        ("setup_wall_s", "setup_wall", "s"))


def measure_e2e(workload, seconds):
    samples = passes_for(workload, seconds, probes=True)
    return {metric: summarize([s[key] for s in samples], unit)
            for metric, key, unit in E2E + WALL}


def measure_layers(workload, seconds, out):
    """Per-layer metrics: untraced passes for the per-binary times and
    the wall baseline, then traced replays (median per metric)."""
    runner = workload.runner
    suite = workload if workload.name == "paper_suite" else \
        Workload("paper_suite", workload.seed, runner, out)
    budget = seconds / (2.0 if suite is workload else 3.0)
    suite_samples = passes_for(suite, budget)
    if suite is workload:
        baseline = statistics.median(s["binary"][FIG02][0]
                                     for s in suite_samples)
        pass_wall = statistics.median(s["wall"] for s in suite_samples)
    else:
        pass_wall = baseline = statistics.median(
            s["wall"] for s in passes_for(workload, budget))

    trace_dir = os.path.join(out, "trace", workload.name)
    os.makedirs(trace_dir, exist_ok=True)
    mode = "paper_suite" if workload.name == "paper_suite" else "sweep"
    figure_digest = workload.fig02_digest if mode == "paper_suite" \
        else workload.ops[0][2]
    replays = []
    tries = 0
    deadline = time.perf_counter() + budget
    while tries == 0 or time.perf_counter() < deadline:
        tries += 1
        code, *_ = runner.run(
            [runner.tool, "trace", mode, workload.spec, trace_dir])
        runner.attempted += 1
        problem = None
        if code != 0:
            problem = f"layer_trace exit {code}"
        else:
            with open(os.path.join(trace_dir, "summary.json")) as f:
                summary = json.load(f)
            with open(os.path.join(trace_dir, "figure.txt"), "rb") as f:
                figure = f.read()
            if summary["failed_cases"] or summary["replay_mismatches"]:
                problem = (f"replay: {summary['failed_cases']} failed "
                           f"cases, {summary['replay_mismatches']} "
                           "mismatches against Engine::run")
            elif not output_ok(0, figure, figure_digest):
                problem = "replayed figure differs from the binary's"
        if problem:
            runner.failed += 1
            runner.errors.append(problem)
            continue
        spans = spanlib.read_tsv(os.path.join(trace_dir, "spans.tsv"))
        replays.append((spans, summary))

    metrics = {}
    for b in SUITE:
        metrics[f"bench.{b}.wall_s"] = (
            statistics.median(s["binary"][b][0] for s in suite_samples),
            "s")
    metrics["bench.pass.wall_s"] = (pass_wall, "s")
    if not replays:
        return metrics, None
    per_replay = [layer_metrics(spans, summary, mode, baseline)
                  for spans, summary in replays]
    for name, (_, unit) in per_replay[0].items():
        metrics[name] = (statistics.median(m[name][0] for m in per_replay),
                         unit)
    return metrics, spanlib.layer_table(replays[-1][0])


def layer_metrics(spans, summary, mode, baseline):
    """Per-layer metrics of one traced replay."""
    total = spanlib.totals(spans)
    t = lambda name: total.get(name, 0.0)  # noqa: E731
    simulate = sum(t(n) for n in ("opsim.sa", "opsim.vu", "opsim.hbm",
                                  "opsim.ici", "opsim.other"))
    compose, policy = t("core.compose"), t("core.policy_eval")
    engine = t("sim.engine")
    serial = t("pass.slo_serial") if mode == "paper_suite" \
        else t("pass.memo")
    return {
        "models.spec_parse_s": (t("models.spec_parse"), "s"),
        "models.build_s": (t("models.build"), "s"),
        "compiler.fuse_s": (t("compiler.fuse"), "s"),
        "compiler.tile_s": (t("compiler.tile"), "s"),
        "compiler.kernel_s": (t("compiler.kernel"), "s"),
        "opsim.simulate_s": (simulate, "s"),
        "opsim.sa_s": (t("opsim.sa"), "s"),
        "opsim.vu_s": (t("opsim.vu"), "s"),
        "opsim.hbm_s": (t("opsim.hbm"), "s"),
        "opsim.ici_s": (t("opsim.ici"), "s"),
        "opsim.ops": (summary["ops"], "count"),
        "opsim.distinct_share": (
            summary["distinct_shapes"] / summary["ops"], "ratio"),
        "core.compose_s": (compose, "s"),
        "core.gap_groups": (summary["gap_groups"], "count"),
        "core.policy_eval_s": (policy, "s"),
        "core.policy_evals": (summary["policy_evals"], "count"),
        "sim.engine_s": (engine, "s"),
        "sim.engine_self_s": (engine - simulate - compose - policy, "s"),
        "sim.memo_net_s": (t("pass.memo") - t("models.build") -
                           t("compiler") - engine, "s"),
        "sim.graph_distinct_share": (
            summary["distinct_graphs"] / summary["cases"], "ratio"),
        "sim.slo_search_s": (t("sim.slo_search"), "s"),
        "sim.slo_candidates": (summary["slo_candidates"], "count"),
        "sim.sweep_parallel_gain": (serial / t("pass.parallel"), "ratio"),
        "energy.report_s": (t("energy.report"), "s"),
        "carbon.s": (t("carbon"), "s"),
        "render.table_s": (t("render.table"), "s"),
        "trace.overhead_s": (t("replay") - baseline, "s"),
    }


# ---- reporting ---------------------------------------------------------

def print_e2e(name, stats, runner):
    print(f"== {name}: end-to-end ==")
    for metric, s in stats.items():
        print(f"  {metric:<14} {s['value']:>12.6f} {s['unit']:<3} "
              f"{s['tail']} {s['tail_value']:.6f}  n={s['n']}")
    rate = runner.failed / max(1, runner.attempted)
    print(f"  {'error_rate':<14} {rate:>12.6f}     "
          f"({runner.failed} of {runner.attempted} operations)")


def print_layers(name, metrics, table):
    print(f"== {name}: per-layer ==")
    for metric, (value, unit) in metrics.items():
        print(f"  {metric:<36} {value:>14.6f} {unit}")
    if table:
        print("  -- spans of the last replay: total, self (s), count --")
        for row in table:
            print(f"  {row[0]:<20} {row[1]:>10.6f} {row[2]:>10.6f} "
                  f"{row[3]:>8}")


def result_line(runner, metrics):
    ok = runner.failed == 0 and runner.attempted > 0
    return json.dumps({"correct": ok, "attempted": runner.attempted,
                       "failed": runner.failed, "metrics": metrics})


def run_one(name, seed, seconds, trace, out):
    runner = Runner(out)
    workload = Workload(name, seed, runner, out)
    if trace:
        metrics, table = measure_layers(workload, seconds, out)
        print_layers(name, metrics, table)
        result = {k: {"value": v, "unit": u} for k, (v, u) in
                  metrics.items()}
    else:
        stats = measure_e2e(workload, seconds)
        print_e2e(name, stats, runner)
        result = {metric: {"value": stats[metric]["value"], "unit": unit}
                  for metric, _, unit in E2E}
    for e in runner.errors:
        print("error:", e, file=sys.stderr)
    return runner, result


def machine():
    """The host and build a trajectory point was measured on."""
    info = {"nproc": os.cpu_count(), "cpu": platform.processor(),
            "python": platform.python_version()}
    with open("/proc/cpuinfo") as f:
        for line in f:
            if line.startswith("model name"):
                info["cpu"] = line.split(":", 1)[1].strip()
                break
    with open(os.path.join(build_dir(), "CMakeCache.txt")) as f:
        for line in f:
            for key, name in (("CMAKE_BUILD_TYPE:", "build_type"),
                              ("CMAKE_CXX_COMPILER:", "compiler")):
                if line.startswith(key):
                    info[name] = line.split("=", 1)[1].strip()
    return info


def report(seed, seconds, out):
    """Every workload in both modes; prints everything and writes the
    trajectory point."""
    point = {"machine": machine(), "seed": seed, "seconds": seconds,
             "workloads": {}}
    for name in WORKLOADS:
        entry = {}
        for trace in (0, 1):
            runner, metrics = run_one(name, seed, seconds, trace, out)
            entry["per_layer" if trace else "end_to_end"] = metrics
            entry.setdefault("attempted", 0)
            entry.setdefault("failed", 0)
            entry["attempted"] += runner.attempted
            entry["failed"] += runner.failed
        point["workloads"][name] = entry
    with open(TRAJECTORY, "w") as f:
        json.dump([point], f, indent=1, sort_keys=True)
        f.write("\n")
    print("wrote", TRAJECTORY)


def record_digests(out):
    """Record stdout digests: every suite binary, and each sweep at the
    recorded seeds, where fig17 must agree with the in-process
    reference before its digest is kept."""
    runner = Runner(out)
    table = {"paper_suite": {}}
    for b in SUITE:
        code, stdout, *_ = runner.run([runner.binary(b)])
        if code != 0:
            raise Failure(f"{b} exited {code}")
        table["paper_suite"][b] = digest(stdout)
    for name in ("moe_sweep", "gating_sweep"):
        table[name] = {}
        for seed in RECORDED_SEEDS:
            spec = write_input(out, f"{name}-{seed}.spec",
                               specgen.spec_text(name, seed))
            code, stdout, *_ = runner.run(
                [runner.binary(SWEEP_BINARY), "--spec", spec])
            if code != 0 or digest(stdout) != reference_digest(runner,
                                                               spec):
                raise Failure(f"{name} seed {seed}: fig17 exit {code} "
                              "or output differs from the reference")
            table[name][str(seed)] = digest(stdout)
    with open(DIGESTS, "w") as f:
        json.dump(table, f, indent=1, sort_keys=True)
        f.write("\n")
    print("wrote", DIGESTS)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--report", action="store_true",
                    help="run every workload in both modes and write "
                         "perfbench/trajectory.json")
    ap.add_argument("--record-digests", action="store_true",
                    help="rewrite perfbench/digests.json")
    args = ap.parse_args()
    if not (args.workload or args.report or args.record_digests):
        ap.error("need --workload, --report or --record-digests")
    try:
        out = build()
        if args.record_digests:
            record_digests(out)
            return 0
        if args.report:
            report(args.seed, args.seconds, out)
            return 0
        runner, metrics = run_one(args.workload, args.seed, args.seconds,
                                  args.trace, out)
    except Failure as e:
        print("run.py:", e, file=sys.stderr)
        return 2
    print(result_line(runner, metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
