/**
 * @file
 * google-benchmark micro-benchmarks of the simulator substrate plus
 * the core-speedup trajectory cases.
 *
 * Besides the registered google-benchmark cases, main() times the
 * current hot-path implementations against faithful replicas of the
 * seed algorithms (linear-scan gap multisets, O(repeat) seam removal,
 * serial sweeps) on a repeated-block LLM decode workload, verifies the
 * results are identical, and writes
 * the measurements to BENCH_core.json so CI can track the perf
 * trajectory. Run with --benchmark_filter=... to select
 * google-benchmark cases; pass --core-only to skip them entirely.
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <string>
#include <vector>

#include "common/prng.h"
#include "compiler/compiler.h"
#include "core/gating_engine.h"
#include "ici/collective.h"
#include "ici/topology.h"
#include "mem/sram_allocator.h"
#include "models/registry.h"
#include "sa/sa_analytical.h"
#include "sa/systolic_array.h"
#include "sim/slo.h"
#include "sim/sweep.h"

namespace {

using namespace regate;
using core::ActivityTimeline;
using core::GapGroup;

// ====================================================================
// Seed-algorithm replicas (the pre-overhaul hot path), used as the
// timing baseline. These mirror the original ActivityTimeline code:
// addGap linear-scans the multiset, append re-sorts it, repeated
// removes seam gaps one pair per iteration.
// ====================================================================

struct SeedTimeline
{
    Cycles span = 0;
    Cycles active = 0;
    std::uint64_t activations = 0;
    std::vector<GapGroup> gaps;
    Cycles lead = 0;
    Cycles trail = 0;
};

SeedTimeline
toSeed(const ActivityTimeline &t)
{
    return {t.span(),        t.activeCycles(), t.activations(),
            t.gaps(),        t.leadingIdle(),  t.trailingIdle()};
}

void
seedAddGap(std::vector<GapGroup> &gaps, Cycles length,
           std::uint64_t count)
{
    if (length == 0 || count == 0)
        return;
    for (auto &g : gaps) {
        if (g.length == length) {
            g.count += count;
            return;
        }
    }
    gaps.push_back({length, count});
}

void
seedRemoveOneGap(std::vector<GapGroup> &gaps, Cycles length)
{
    if (length == 0)
        return;
    for (auto it = gaps.begin(); it != gaps.end(); ++it) {
        if (it->length == length) {
            if (--it->count == 0)
                gaps.erase(it);
            return;
        }
    }
    throw LogicError("seedRemoveOneGap: no gap of requested length");
}

void
seedSortGaps(std::vector<GapGroup> &gaps)
{
    std::sort(gaps.begin(), gaps.end(),
              [](const GapGroup &a, const GapGroup &b) {
                  return a.length < b.length;
              });
}

void
seedAppend(SeedTimeline &a, const SeedTimeline &b)
{
    if (b.span == 0)
        return;
    if (a.span == 0) {
        a = b;
        return;
    }
    bool a_ends_active = a.active > 0 && a.trail == 0;
    bool b_starts_active = b.active > 0 && b.lead == 0;
    bool a_all_idle = a.active == 0;
    bool b_all_idle = b.active == 0;

    Cycles seam = a.trail + b.lead;
    seedRemoveOneGap(a.gaps, a.trail);
    std::vector<GapGroup> b_gaps = b.gaps;
    seedRemoveOneGap(b_gaps, b.lead);
    for (const auto &g : b_gaps)
        seedAddGap(a.gaps, g.length, g.count);
    seedAddGap(a.gaps, seam, 1);
    seedSortGaps(a.gaps);

    a.activations += b.activations;
    if (seam == 0 && a_ends_active && b_starts_active)
        a.activations -= 1;
    a.span += b.span;
    a.active += b.active;
    a.lead = a_all_idle ? seam : a.lead;
    a.trail = b_all_idle ? seam : b.trail;
}

SeedTimeline
seedRepeated(const SeedTimeline &t, std::uint64_t times)
{
    if (times == 0)
        return SeedTimeline();
    if (times == 1 || t.span == 0)
        return t;

    SeedTimeline out;
    out.span = t.span * times;
    if (t.active == 0) {
        out.gaps.push_back({out.span, 1});
        out.lead = out.trail = out.span;
        return out;
    }
    out.active = t.active * times;
    out.gaps = t.gaps;
    for (auto &g : out.gaps)
        g.count *= times;

    Cycles seam = t.trail + t.lead;
    std::uint64_t seams = times - 1;
    for (std::uint64_t i = 0; i < seams; ++i) {
        seedRemoveOneGap(out.gaps, t.trail);
        seedRemoveOneGap(out.gaps, t.lead);
    }
    seedAddGap(out.gaps, seam, seams);
    seedSortGaps(out.gaps);

    out.activations = t.activations * times - (seam == 0 ? seams : 0);
    out.lead = t.lead;
    out.trail = t.trail;
    return out;
}

// ====================================================================
// Core-speedup timing harness
// ====================================================================

using Clock = std::chrono::steady_clock;

double
elapsedNs(Clock::time_point t0)
{
    return std::chrono::duration<double, std::nano>(Clock::now() - t0)
        .count();
}

struct CoreCase
{
    std::string name;
    double seed_ns = 0;
    double new_ns = 0;
    /**
     * Gated cases enforce the 5x floor here and the >20% slowdown
     * check in CI; the ungated pool-scaling case is
     * machine-dependent and tracked for the trajectory only.
     */
    bool gated = false;
    std::vector<std::pair<std::string, double>> extras;

    double
    speedup() const
    {
        // A new time below clock resolution counts as infinitely
        // faster, not as a regression.
        return new_ns > 0 ? seed_ns / new_ns
                          : std::numeric_limits<double>::infinity();
    }
};

/**
 * Per-op component timelines and block repeats of a compiled LLM
 * decode graph: the exact inputs the engine hot path composes.
 */
struct BlockTimelines
{
    std::uint64_t repeat = 1;
    // One entry per op: the op's SA/VU/HBM/ICI timelines.
    std::vector<std::array<ActivityTimeline, 4>> ops;
};

std::vector<BlockTimelines>
decodeBlockTimelines(const models::ScenarioSpec &spec,
                     arch::NpuGeneration gen, std::uint64_t min_repeat)
{
    const auto &cfg = arch::npuConfig(gen);
    auto setup = models::defaultScenarioSetup(spec, gen);
    auto compiled = compiler::compileGraph(
        models::buildScenarioGraph(spec, setup), cfg);

    ici::Torus torus = ici::Torus::forChips(cfg, setup.chips);
    ici::CollectiveModel coll(cfg, torus);
    sim::OperatorSimulator op_sim(cfg, coll);

    std::vector<BlockTimelines> blocks;
    for (const auto &block : compiled.graph.blocks) {
        BlockTimelines bt;
        // The speedup case targets repeated blocks; lift small repeat
        // counts to the requested floor (>= 1024 per the perf goal).
        bt.repeat = std::max<std::uint64_t>(block.repeat, min_repeat);
        for (const auto &op : block.ops) {
            auto ex = op_sim.simulate(op);
            bt.ops.push_back({ex.timeline[arch::Component::Sa],
                              ex.timeline[arch::Component::Vu],
                              ex.timeline[arch::Component::Hbm],
                              ex.timeline[arch::Component::Ici]});
        }
        blocks.push_back(std::move(bt));
    }
    return blocks;
}

/** Compose all blocks with the seed algorithms; returns a checksum. */
std::uint64_t
composeSeed(const std::vector<BlockTimelines> &blocks)
{
    std::array<SeedTimeline, 4> run_tl;
    for (const auto &block : blocks) {
        std::array<SeedTimeline, 4> block_tl;
        for (const auto &op : block.ops)
            for (int c = 0; c < 4; ++c)
                seedAppend(block_tl[c], toSeed(op[c]));
        for (int c = 0; c < 4; ++c)
            seedAppend(run_tl[c],
                       seedRepeated(block_tl[c], block.repeat));
    }
    std::uint64_t sum = 0;
    for (const auto &t : run_tl) {
        sum += t.span + t.active + t.activations;
        for (const auto &g : t.gaps)
            sum += g.length * g.count;
    }
    return sum;
}

/** Compose all blocks with the current algorithms; same checksum. */
std::uint64_t
composeNew(const std::vector<BlockTimelines> &blocks)
{
    std::array<ActivityTimeline, 4> run_tl;
    for (const auto &block : blocks) {
        std::array<ActivityTimeline, 4> block_tl;
        for (const auto &op : block.ops)
            for (int c = 0; c < 4; ++c)
                block_tl[c].append(op[c]);
        for (int c = 0; c < 4; ++c)
            run_tl[c].append(block_tl[c].repeated(block.repeat));
    }
    std::uint64_t sum = 0;
    for (const auto &t : run_tl) {
        sum += t.span() + t.activeCycles() + t.activations();
        for (const auto &g : t.gaps())
            sum += g.length * g.count;
    }
    return sum;
}

/**
 * The headline case: compose the activity timelines of a real LLM
 * decode workload whose blocks repeat >= 1024 times, seed algorithm
 * vs current.
 */
CoreCase
caseRepeatedBlockCompose()
{
    CoreCase cc;
    cc.name = "llm_decode_block_compose";
    auto blocks = decodeBlockTimelines(
        *models::builtinScenario(models::Workload::Decode70B),
        arch::NpuGeneration::D, 1024);
    std::uint64_t max_repeat = 0;
    for (const auto &b : blocks)
        max_repeat = std::max(max_repeat, b.repeat);
    cc.extras.emplace_back("block_repeat_max",
                           static_cast<double>(max_repeat));

    constexpr int kPasses = 5;
    std::uint64_t seed_sum = 0, new_sum = 0;

    auto t0 = Clock::now();
    for (int i = 0; i < kPasses; ++i)
        seed_sum = composeSeed(blocks);
    cc.seed_ns = elapsedNs(t0) / kPasses;

    t0 = Clock::now();
    for (int i = 0; i < kPasses; ++i)
        new_sum = composeNew(blocks);
    cc.new_ns = elapsedNs(t0) / kPasses;

    if (seed_sum != new_sum)
        throw LogicError("seed/new timeline composition disagree");
    return cc;
}

/** Pure repeated(): seed O(repeat) seam loop vs O(log G) arithmetic. */
CoreCase
caseTimelineRepeated()
{
    CoreCase cc;
    cc.name = "timeline_repeated_64k";
    auto unit = ActivityTimeline::periodic(4096, 3, 16, 128);
    auto seed_unit = toSeed(unit);
    constexpr std::uint64_t kTimes = 1u << 16;
    constexpr int kPasses = 20;

    auto t0 = Clock::now();
    std::uint64_t sink = 0;
    for (int i = 0; i < kPasses; ++i)
        sink += seedRepeated(seed_unit, kTimes).activations;
    cc.seed_ns = elapsedNs(t0) / kPasses;

    t0 = Clock::now();
    std::uint64_t sink2 = 0;
    for (int i = 0; i < kPasses; ++i)
        sink2 += unit.repeated(kTimes).activations();
    cc.new_ns = elapsedNs(t0) / kPasses;

    if (sink != sink2)
        throw LogicError("seed/new repeated() disagree");
    return cc;
}

/**
 * Sweep runner: serial loop vs worker pool over a small grid, with a
 * bitwise equality check of the energy/overhead numbers.
 */
CoreCase
caseParallelSweep()
{
    CoreCase cc;
    cc.name = "sweep_parallel_vs_serial";
    auto grid = sim::scenarioGrid(
        {models::builtinScenario(models::Workload::Prefill8B),
         models::builtinScenario(models::Workload::Decode8B),
         models::builtinScenario(models::Workload::DlrmS)},
        {arch::NpuGeneration::C, arch::NpuGeneration::D});

    // Untimed warm-up pass to touch every code path once.
    sim::SweepRunner::runSerial(grid);

    // Averaged over several passes for a stable CI trajectory.
    constexpr int kPasses = 8;

    std::vector<sim::WorkloadReport> serial;
    auto t0 = Clock::now();
    for (int i = 0; i < kPasses; ++i) {
        serial = sim::SweepRunner::runSerial(grid);
    }
    cc.seed_ns = elapsedNs(t0) / kPasses;

    sim::SweepRunner runner;
    std::vector<sim::WorkloadReport> parallel;
    t0 = Clock::now();
    for (int i = 0; i < kPasses; ++i) {
        parallel = runner.run(grid);
    }
    cc.new_ns = elapsedNs(t0) / kPasses;
    cc.extras.emplace_back("threads",
                           static_cast<double>(runner.threadCount()));

    bool identical = serial.size() == parallel.size();
    for (std::size_t i = 0; identical && i < serial.size(); ++i) {
        for (auto p : sim::allPolicies()) {
            const auto &a = serial[i].run().result(p);
            const auto &b = parallel[i].run().result(p);
            identical = identical &&
                        std::memcmp(&a.energy, &b.energy,
                                    sizeof(a.energy)) == 0 &&
                        a.overheadCycles == b.overheadCycles &&
                        a.seconds == b.seconds;
        }
    }
    if (!identical)
        throw LogicError("parallel sweep diverged from serial sweep");
    cc.extras.emplace_back("identical", 1.0);
    return cc;
}

bool
writeBenchJson(const std::vector<CoreCase> &cases,
               const std::string &path)
{
    std::ofstream out(path);
    out << "{\n  \"bench\": \"core\",\n  \"cases\": [\n";
    for (std::size_t i = 0; i < cases.size(); ++i) {
        const auto &c = cases[i];
        // JSON has no infinity literal; clamp the
        // below-clock-resolution case to a finite sentinel.
        out << "    {\"name\": \"" << c.name << "\", \"seed_ns\": "
            << c.seed_ns << ", \"new_ns\": " << c.new_ns
            << ", \"speedup\": " << std::min(c.speedup(), 1e12)
            << ", \"gated\": " << (c.gated ? 1 : 0);
        for (const auto &[k, v] : c.extras)
            out << ", \"" << k << "\": " << v;
        out << "}" << (i + 1 < cases.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
    out.flush();
    return out.good();
}

int
runCoreCases()
{
    std::vector<CoreCase> cases;
    cases.push_back(caseTimelineRepeated());
    cases.push_back(caseRepeatedBlockCompose());
    cases.push_back(caseParallelSweep());

    std::cout << "==== core speedup cases (seed algorithm vs current) "
                 "====\n";
    bool ok = true;
    for (auto &c : cases) {
        std::cout << "  " << c.name << ": seed " << c.seed_ns / 1e6
                  << " ms, new " << c.new_ns / 1e6 << " ms, speedup "
                  << c.speedup() << "x\n";
        // The timeline-algebra cases regression-gate CI. The sweep
        // case is reported for the trajectory only: its scaling
        // depends on the machine's core count.
        c.gated = c.name == "timeline_repeated_64k" ||
                  c.name == "llm_decode_block_compose";
        if (c.gated && c.speedup() < 5.0) {
            std::cerr << "FAIL: " << c.name
                      << " speedup below the 5x target\n";
            ok = false;
        }
    }
    if (writeBenchJson(cases, "BENCH_core.json")) {
        std::cout << "wrote BENCH_core.json\n";
    } else {
        std::cerr << "FAIL: could not write BENCH_core.json\n";
        ok = false;
    }
    return ok ? 0 : 1;
}

// ====================================================================
// google-benchmark cases
// ====================================================================

void
BM_SystolicArrayCycleSim(benchmark::State &state)
{
    const int width = static_cast<int>(state.range(0));
    sa::Matrix w(width, width), x(2 * width, width);
    Prng rng(1);
    for (int i = 0; i < width; ++i)
        for (int j = 0; j < width; ++j)
            w.at(i, j) = 1.0 + rng.uniform(0, 7);
    for (int i = 0; i < 2 * width; ++i)
        for (int j = 0; j < width; ++j)
            x.at(i, j) = rng.uniform(0, 9);
    for (auto _ : state) {
        sa::SystolicArray sim(width, true);
        sim.loadWeights(w);
        benchmark::DoNotOptimize(sim.run(x));
    }
    state.SetItemsProcessed(state.iterations() * 2 * width * width *
                            width);
}
BENCHMARK(BM_SystolicArrayCycleSim)->Arg(8)->Arg(16)->Arg(32);

void
BM_SaAnalytical(benchmark::State &state)
{
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            sa::analyzeMatmul(65536, 8192, 1280, 128));
    }
}
BENCHMARK(BM_SaAnalytical);

void
BM_GatingEngineEvaluate(benchmark::State &state)
{
    arch::GatingParams params;
    auto t = core::ActivityTimeline::periodic(1u << 20, 0, 8, 1024);
    core::UnitSpec spec{arch::GatedUnit::Vu, 5.0, 1e-9};
    for (auto _ : state) {
        benchmark::DoNotOptimize(core::evaluateTimeline(
            t, spec, core::GatingMode::SwExact, params));
    }
}
BENCHMARK(BM_GatingEngineEvaluate);

void
BM_TimelineAppend(benchmark::State &state)
{
    auto unit = core::ActivityTimeline::periodic(4096, 3, 16, 128);
    for (auto _ : state) {
        core::ActivityTimeline acc;
        for (int i = 0; i < 256; ++i)
            acc.append(unit);
        benchmark::DoNotOptimize(acc);
    }
}
BENCHMARK(BM_TimelineAppend);

void
BM_TimelineRepeated(benchmark::State &state)
{
    auto unit = core::ActivityTimeline::periodic(4096, 3, 16, 128);
    for (auto _ : state)
        benchmark::DoNotOptimize(unit.repeated(1u << 20));
}
BENCHMARK(BM_TimelineRepeated);

void
BM_TimelineRepeatedSeedAlgorithm(benchmark::State &state)
{
    auto unit =
        toSeed(core::ActivityTimeline::periodic(4096, 3, 16, 128));
    for (auto _ : state)
        benchmark::DoNotOptimize(seedRepeated(unit, 1u << 20));
}
BENCHMARK(BM_TimelineRepeatedSeedAlgorithm);

void
BM_SramAllocator(benchmark::State &state)
{
    Prng rng(7);
    for (auto _ : state) {
        mem::SramAllocator alloc(128u << 20, 4096);
        for (int i = 0; i < 200; ++i) {
            std::uint64_t start = i;
            try {
                alloc.allocate((1 + rng.uniform(0, 63)) << 12, start,
                               start + 1 + rng.uniform(0, 9));
            } catch (const ConfigError &) {
            }
        }
        benchmark::DoNotOptimize(alloc.peakBytes());
    }
}
BENCHMARK(BM_SramAllocator);

void
BM_CollectiveModel(benchmark::State &state)
{
    const auto &cfg = arch::npuConfig(arch::NpuGeneration::D);
    ici::Torus torus = ici::Torus::forChips(cfg, 64);
    ici::CollectiveModel coll(cfg, torus);
    for (auto _ : state) {
        benchmark::DoNotOptimize(coll.seconds(
            ici::CollectiveKind::AllReduce, 256u << 20));
    }
}
BENCHMARK(BM_CollectiveModel);

void
BM_WholeWorkloadSimulation(benchmark::State &state)
{
    // Build, compile and simulate one workload end to end.
    for (auto _ : state) {
        benchmark::DoNotOptimize(sim::simulateScenario(
            models::builtinScenario(models::Workload::Prefill70B),
            arch::NpuGeneration::D));
    }
}
BENCHMARK(BM_WholeWorkloadSimulation);

void
BM_SloSearch(benchmark::State &state)
{
    // The full SLO search over one workload's candidate setups.
    for (auto _ : state) {
        benchmark::DoNotOptimize(sim::findBestSetup(
            models::builtinScenario(models::Workload::DlrmM),
            arch::NpuGeneration::D));
    }
}
BENCHMARK(BM_SloSearch);

}  // namespace

int
main(int argc, char **argv)
{
    // --core-only: just the core cases. A --benchmark_* flag without
    // --core-only selects google-benchmark cases and skips the core
    // harness (and its BENCH_core.json write). Default: both.
    bool core_only = false;
    bool gbench_flags = false;
    for (int i = 1; i < argc; ++i) {
        std::string arg(argv[i]);
        if (arg == "--core-only")
            core_only = true;
        else if (arg.rfind("--benchmark_", 0) == 0)
            gbench_flags = true;
    }

    int rc = 0;
    if (core_only || !gbench_flags)
        rc = runCoreCases();
    if (core_only)
        return rc;

    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return rc;
}
