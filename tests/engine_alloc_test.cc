/**
 * @file
 * Heap allocations made by Engine::execute. This binary replaces the
 * global operator new/delete with counting malloc/free wrappers, which
 * is why it is a test executable of its own.
 *
 * Pins that execute's allocation count does not grow with the number
 * of operators in a block (records, usage lists and block timelines
 * are each sized once), that a sweep's gating variants of one
 * execution allocate nothing per variant (their reports share the
 * execution's run), and prints the mean count per execute over the
 * paper grid (17 workloads x 4 generations).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>

#include "compiler/compiler.h"
#include "models/registry.h"
#include "models/workload.h"
#include "sim/engine.h"
#include "sim/sweep.h"

namespace {

std::atomic<std::size_t> g_allocs{0};

}  // namespace

void *
operator new(std::size_t n)
{
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

// std::stable_sort's buffer comes from the nothrow form; it must be
// malloc'd too, since the replaced delete frees it.
void *
operator new(std::size_t n, const std::nothrow_t &) noexcept
{
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    return std::malloc(n ? n : 1);
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
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

TEST(EngineAllocations, DoNotGrowWithOpsPerBlock)
{
    Engine engine(arch::npuConfig(NpuGeneration::D));
    auto small = identicalOpsGraph(8);
    auto large = identicalOpsGraph(64);
    executeAllocations(engine, small, 1);  // Settle one-time statics.
    std::size_t at8 = executeAllocations(engine, small, 1);
    std::size_t at64 = executeAllocations(engine, large, 1);
    EXPECT_EQ(at8, at64);
    std::printf("execute allocations, one block: %zu at 8 ops, %zu at "
                "64 ops\n",
                at8, at64);
}

/** @p n gating variants (delay scales) of DLRM-L on NPU-D. */
std::vector<SweepCase>
gatingVariants(std::size_t n)
{
    std::vector<SweepCase> grid;
    auto spec = models::builtinScenario(models::Workload::DlrmL);
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

TEST(EngineAllocations, MeanPerExecuteOverThePaperGrid)
{
    std::size_t cases = 0, allocs = 0, ops = 0;
    for (auto w : models::allWorkloads()) {
        for (auto gen : {NpuGeneration::A, NpuGeneration::B,
                         NpuGeneration::C, NpuGeneration::D}) {
            const auto &spec = *models::builtinScenario(w);
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
