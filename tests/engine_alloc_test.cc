/**
 * @file
 * Heap allocations made by Engine::execute and by sweeps. This binary
 * replaces the global operator new/delete with malloc/free wrappers
 * that count allocations and track the live heap bytes and their
 * peak, which is why it is a test executable of its own.
 *
 * Pins that appending a timeline with gaps allocates once, that
 * execute's allocation count does not grow with the number
 * of operators in a block, identical or of distinct shapes (records,
 * usage lists and block timelines are each sized once), that a sweep's
 * gating variants of one execution allocate nothing per variant
 * (their reports share the execution's run), and that the peak live
 * heap of a sweep whose visitor keeps no report does not grow with
 * its number of executions (each run dies with its group); prints the
 * mean count per execute over the paper grid (17 workloads x 4
 * generations).
 */

#include <gtest/gtest.h>
#include <malloc.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <new>

#include "compiler/compiler.h"
#include "core/activity.h"
#include "models/registry.h"
#include "models/workload.h"
#include "sim/engine.h"
#include "sim/sweep.h"

namespace {

std::atomic<std::size_t> g_allocs{0};
std::atomic<std::size_t> g_live_bytes{0};
std::atomic<std::size_t> g_peak_bytes{0};

/** Count an allocation of @p p and raise the peak to the live bytes. */
void *
tracked(void *p)
{
    if (!p)
        return p;
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    std::size_t live = g_live_bytes.fetch_add(malloc_usable_size(p)) +
                       malloc_usable_size(p);
    std::size_t peak = g_peak_bytes.load();
    while (live > peak && !g_peak_bytes.compare_exchange_weak(peak, live)) {
    }
    return p;
}

void
untracked(void *p)
{
    if (p)
        g_live_bytes.fetch_sub(malloc_usable_size(p));
    std::free(p);
}

}  // namespace

void *
operator new(std::size_t n)
{
    if (void *p = tracked(std::malloc(n ? n : 1)))
        return p;
    throw std::bad_alloc();
}

// std::stable_sort's buffer comes from the nothrow form; it must be
// malloc'd too, since the replaced delete frees it.
void *
operator new(std::size_t n, const std::nothrow_t &) noexcept
{
    return tracked(std::malloc(n ? n : 1));
}

void
operator delete(void *p) noexcept
{
    untracked(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    untracked(p);
}

namespace regate {
namespace sim {
namespace {

using arch::NpuGeneration;

/** Allocations made by one execute of @p graph. */
std::size_t
executeAllocations(const Engine &engine, const graph::OperatorGraph &graph,
                   int chips)
{
    std::size_t before = g_allocs.load();
    Execution ex = engine.execute(graph, chips);
    std::size_t n = g_allocs.load() - before;
    EXPECT_FALSE(ex.run.opRecords.empty());
    return n;
}

/** One block of @p ops identical matmuls. */
graph::OperatorGraph
identicalOpsGraph(std::size_t ops)
{
    graph::Operator mm;
    mm.kind = graph::OpKind::MatMul;
    mm.name = "mm";
    mm.m = 16384;
    mm.k = 1024;
    mm.n = 1024;
    mm.hbmReadBytes = 2e6;
    mm.sramDemandBytes = 8e6;

    graph::Block b;
    b.name = "layer";
    b.repeat = 4;
    b.ops.assign(ops, mm);
    graph::OperatorGraph g;
    g.name = "identical-ops";
    g.blocks.push_back(b);
    return g;
}

/**
 * One block of @p ops matmuls of distinct shapes and traffic, so that
 * each op adds idle gaps of new lengths to the block's timelines.
 */
graph::OperatorGraph
distinctOpsGraph(std::size_t ops)
{
    auto g = identicalOpsGraph(ops);
    g.name = "distinct-ops";
    for (std::size_t i = 0; i < ops; ++i) {
        auto &op = g.blocks.front().ops[i];
        op.m = 4096 + 512 * static_cast<std::int64_t>(i);
        op.n = 1024 + 128 * static_cast<std::int64_t>(i % 5);
        op.hbmReadBytes = 2e6 + 1.5e5 * static_cast<double>(i);
    }
    return g;
}

TEST(EngineAllocations, AppendOfATimelineWithGapsAllocatesOnce)
{
    // Gap groups {3 x 2}, one trailing, then {2 x 2}, one leading: the
    // merge keeps both groups, and the seam gap (3 + 2) is a new
    // length that needs a slot of its own.
    auto a = core::ActivityTimeline::fromIntervals(8, {{0, 1}, {4, 5}});
    auto b = core::ActivityTimeline::fromIntervals(6, {{2, 3}, {5, 6}});
    ASSERT_EQ(a.gaps().size(), 1u);
    ASSERT_EQ(b.gaps().size(), 1u);
    std::size_t before = g_allocs.load();
    a.append(b);
    EXPECT_EQ(g_allocs.load() - before, 1u);
    EXPECT_EQ(a.gaps().size(), 3u);
    a.checkInvariants();
}

TEST(EngineAllocations, DoNotGrowWithOpsPerBlock)
{
    Engine engine(arch::npuConfig(NpuGeneration::D));
    for (auto *build : {&identicalOpsGraph, &distinctOpsGraph}) {
        auto small = build(8);
        auto large = build(64);
        SCOPED_TRACE(small.name);
        executeAllocations(engine, small, 1);  // Settle one-time statics.
        std::size_t at8 = executeAllocations(engine, small, 1);
        std::size_t at64 = executeAllocations(engine, large, 1);
        EXPECT_EQ(at8, at64);
        std::printf("execute allocations, one block of %s: %zu at 8 "
                    "ops, %zu at 64 ops\n",
                    small.name.c_str(), at8, at64);
    }

    // The distinct shapes do give the large block more gap lengths.
    auto gapGroups = [&](std::size_t ops) {
        Execution ex = engine.execute(distinctOpsGraph(ops), 1);
        return ex.run.timeline[arch::Component::Vu].gaps().size();
    };
    EXPECT_GT(gapGroups(64), gapGroups(8) + 8);
}

/** @p n gating variants (delay scales) of DLRM-L on NPU-D. */
std::vector<SweepCase>
gatingVariants(std::size_t n)
{
    std::vector<SweepCase> grid;
    auto spec = models::builtinScenario("DLRM-L");
    for (std::size_t i = 0; i < n; ++i) {
        arch::GatingParams params;
        params.setDelayScale(1.0 + 0.25 * static_cast<double>(i));
        grid.push_back(scenarioCase(spec, NpuGeneration::D, params));
    }
    return grid;
}

TEST(EngineAllocations, DoNotGrowWithGatingVariants)
{
    SweepRunner runner(1);
    auto sweepAllocations = [&](const std::vector<SweepCase> &grid) {
        std::size_t before = g_allocs.load();
        auto reports = runner.run(grid);
        std::size_t n = g_allocs.load() - before;
        EXPECT_EQ(&reports.front().execution(),
                  &reports.back().execution());
        return n;
    };
    auto small = gatingVariants(8);
    auto large = gatingVariants(64);
    sweepAllocations(small);  // Settle one-time statics.
    std::size_t at8 = sweepAllocations(small);
    std::size_t at64 = sweepAllocations(large);
    EXPECT_EQ(at8, at64);
    std::printf("sweep allocations, one execution: %zu at 8 gating "
                "variants, %zu at 64\n",
                at8, at64);
}

/** @p n Llama3-8B prefill cases of distinct seq_len: n executions. */
std::vector<SweepCase>
distinctExecutions(std::size_t n)
{
    std::vector<SweepCase> grid;
    const auto &row = *models::builtinScenario("Llama3-8B-Prefill");
    for (std::size_t i = 0; i < n; ++i) {
        auto spec = std::make_shared<models::ScenarioSpec>(row);
        spec->name = "prefill-" + std::to_string(i);
        spec->seqLen = 1024 + 8 * static_cast<std::int64_t>(i);
        grid.push_back(scenarioCase(spec, NpuGeneration::D));
    }
    return grid;
}

/** Peak live heap bytes above the start while @p sweep runs. */
template <typename Sweep>
std::size_t
peakHeapGrowth(Sweep sweep)
{
    std::size_t base = g_live_bytes.load();
    g_peak_bytes.store(base);
    sweep();
    return g_peak_bytes.load() - base;
}

TEST(EngineAllocations, PeakHeapOfAVisitorSweepDoesNotGrowWithExecutions)
{
    SweepRunner runner(1);
    auto visitPeak = [&](const std::vector<SweepCase> &grid) {
        std::size_t visits = 0;
        auto peak = peakHeapGrowth([&] {
            runner.run(grid, [&](std::size_t, WorkloadReport &&report) {
                visits += report.cycles() > 0;
            });
        });
        EXPECT_EQ(visits, grid.size());
        return peak;
    };
    auto keepPeak = [&](const std::vector<SweepCase> &grid) {
        return peakHeapGrowth([&] { runner.run(grid); });
    };
    auto small = distinctExecutions(16);
    auto large = distinctExecutions(64);
    visitPeak(small);  // Settle one-time statics.
    std::size_t visit16 = visitPeak(small);
    std::size_t visit64 = visitPeak(large);
    std::size_t keep16 = keepPeak(small);
    std::size_t keep64 = keepPeak(large);
    std::printf("sweep peak live heap: %zu B at 16 executions, %zu B at "
                "64 visited; %zu B and %zu B kept\n",
                visit16, visit64, keep16, keep64);

    // The sweep's own index per case (execution key, order, group
    // start) may grow the peak; a run kept per execution must not.
    constexpr std::size_t kIndexBytesPerCase = 128;
    EXPECT_LE(visit64, visit16 + 48 * kIndexBytesPerCase);
    // Keeping every report does keep every run.
    EXPECT_GT(keep64, keep16 + 48 * 4 * kIndexBytesPerCase);
}

TEST(EngineAllocations, MeanPerExecuteOverThePaperGrid)
{
    std::size_t cases = 0, allocs = 0, ops = 0;
    for (const auto &row : models::paperSuite()) {
        for (auto gen : {NpuGeneration::A, NpuGeneration::B,
                         NpuGeneration::C, NpuGeneration::D}) {
            const auto &spec = *row;
            const auto &cfg = arch::npuConfig(gen);
            auto setup = models::defaultScenarioSetup(spec, gen);
            auto compiled = compiler::compileGraph(
                models::buildScenarioGraph(spec, setup), cfg);
            Engine engine(cfg);
            allocs += executeAllocations(engine, compiled.graph,
                                         setup.chips);
            for (const auto &block : compiled.graph.blocks)
                ops += block.ops.size();
            ++cases;
        }
    }
    ASSERT_EQ(cases, 68u);
    std::printf("execute allocations over %zu paper cases: mean %.1f "
                "(%.1f ops per case)\n",
                cases, static_cast<double>(allocs) / cases,
                static_cast<double>(ops) / cases);
}

}  // namespace
}  // namespace sim
}  // namespace regate
