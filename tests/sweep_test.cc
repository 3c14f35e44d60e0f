/**
 * @file
 * Tests for the parallel sweep subsystem: the thread pool,
 * deterministic ordered fan-out, parallel vs serial sweep equivalence
 * (bitwise) on the enum and the scenario path, and the parallel SLO
 * search picking the serial winner at any thread count.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>

#include "common/thread_pool.h"
#include "models/spec.h"
#include "sim/slo.h"
#include "sim/sweep.h"

namespace regate {
namespace sim {
namespace {

using models::Workload;

TEST(ThreadPool, RunsAllTasksAndReturnsResults)
{
    ThreadPool pool(4);
    EXPECT_EQ(pool.threadCount(), 4u);
    std::atomic<int> ran{0};
    std::vector<std::future<int>> futs;
    for (int i = 0; i < 64; ++i) {
        futs.push_back(pool.submit([i, &ran] {
            ++ran;
            return i * i;
        }));
    }
    for (int i = 0; i < 64; ++i)
        EXPECT_EQ(futs[static_cast<std::size_t>(i)].get(), i * i);
    EXPECT_EQ(ran.load(), 64);
}

TEST(ThreadPool, PropagatesExceptions)
{
    ThreadPool pool(2);
    auto fut = pool.submit(
        []() -> int { throw ConfigError("boom"); });
    EXPECT_THROW(fut.get(), ConfigError);
}

TEST(ParallelMapOrdered, PreservesInputOrder)
{
    ThreadPool pool(8);
    std::vector<int> items;
    for (int i = 0; i < 200; ++i)
        items.push_back(i);
    auto out = parallelMapOrdered(pool, items,
                                  [](int v) { return 3 * v + 1; });
    ASSERT_EQ(out.size(), items.size());
    for (std::size_t i = 0; i < out.size(); ++i)
        EXPECT_EQ(out[i], 3 * static_cast<int>(i) + 1);
}

/** Exact comparison of everything a figure reads out of a run. */
void
expectRunsIdentical(const WorkloadRun &a, const WorkloadRun &b)
{
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.seconds, b.seconds);
    EXPECT_EQ(a.sramUsedIntegral, b.sramUsedIntegral);
    for (auto c : arch::kAllComponents)
        EXPECT_TRUE(a.timeline[c] == b.timeline[c])
            << "timeline mismatch for " << arch::componentName(c);
    ASSERT_EQ(a.opRecords.size(), b.opRecords.size());
    for (std::size_t i = 0; i < a.opRecords.size(); ++i) {
        EXPECT_EQ(a.opRecords[i].duration(), b.opRecords[i].duration());
        EXPECT_EQ(a.opRecords[i].dynamicJ(), b.opRecords[i].dynamicJ());
    }
    for (auto p : allPolicies()) {
        const auto &ra = a.result(p);
        const auto &rb = b.result(p);
        EXPECT_EQ(ra.overheadCycles, rb.overheadCycles);
        EXPECT_EQ(ra.seconds, rb.seconds);
        EXPECT_EQ(ra.perfOverhead, rb.perfOverhead);
        EXPECT_EQ(ra.avgPowerW, rb.avgPowerW);
        EXPECT_EQ(ra.peakPowerW, rb.peakPowerW);
        EXPECT_EQ(ra.vuGateEvents, rb.vuGateEvents);
        EXPECT_EQ(ra.sramSetpmPairs, rb.sramSetpmPairs);
        EXPECT_EQ(0, std::memcmp(&ra.energy, &rb.energy,
                                 sizeof(ra.energy)))
            << "energy breakdown mismatch for " << policyName(p);
    }
}

TEST(SweepRunner, ParallelBitwiseIdenticalToSerial)
{
    // The enum path over a small paper grid, plus the scenario path
    // over the MoE example spec (registry-only, no enum equivalent).
    auto grid = makeGrid({Workload::Prefill8B, Workload::Decode8B,
                          Workload::DlrmS, Workload::DiTXL},
                         {arch::NpuGeneration::B,
                          arch::NpuGeneration::D});
    ASSERT_EQ(grid.size(), 8u);
    auto moe = scenarioGrid(
        models::parseSpecFile(REGATE_SPEC_DIR "/moe_mixtral.spec")
            .scenarios,
        {arch::NpuGeneration::D});
    ASSERT_EQ(moe.size(), 3u);
    for (const auto &c : moe)
        ASSERT_NE(c.scenario, nullptr);
    grid.insert(grid.end(), moe.begin(), moe.end());

    auto serial = SweepRunner::runSerial(grid);
    for (unsigned threads : {1u, 4u}) {
        SweepRunner runner(threads);
        auto parallel = runner.run(grid);
        ASSERT_EQ(serial.size(), parallel.size());
        for (std::size_t i = 0; i < serial.size(); ++i) {
            EXPECT_EQ(serial[i].workload, parallel[i].workload);
            EXPECT_EQ(serial[i].scenario, parallel[i].scenario);
            EXPECT_EQ(serial[i].gen, parallel[i].gen);
            EXPECT_EQ(serial[i].units, parallel[i].units);
            expectRunsIdentical(serial[i].run(), parallel[i].run());
        }
    }
}

TEST(SweepRunner, SearchMatchesSerialSearch)
{
    auto grid = makeGrid({Workload::DlrmS},
                         {arch::NpuGeneration::C,
                          arch::NpuGeneration::D});
    SweepRunner runner(2);
    auto results = runner.search(grid);
    ASSERT_EQ(results.size(), 2u);
    for (std::size_t i = 0; i < grid.size(); ++i) {
        auto ref = findBestSetup(grid[i].workload, grid[i].gen,
                                 grid[i].params);
        EXPECT_EQ(results[i].setup.chips, ref.setup.chips);
        EXPECT_EQ(results[i].setup.batch, ref.setup.batch);
        EXPECT_EQ(results[i].secondsPerUnit, ref.secondsPerUnit);
        EXPECT_EQ(results[i].energyPerUnit, ref.energyPerUnit);
        EXPECT_EQ(results[i].sloRatio, ref.sloRatio);
    }
}

TEST(ParallelFindBestSetup, MatchesSerialAtEveryThreadCount)
{
    // REGATE_THREADS only sizes the default pool, so passing explicit
    // pools of 1/2/8 workers exercises exactly the configurations
    // REGATE_THREADS=1,2,8 would produce.
    for (auto w : {Workload::DlrmS, Workload::Prefill13B,
                   Workload::Decode8B}) {
        for (auto gen :
             {arch::NpuGeneration::A, arch::NpuGeneration::D}) {
            auto serial = findBestSetupSerial(w, gen);
            for (unsigned threads : {1u, 2u, 8u}) {
                ThreadPool pool(threads);
                auto par = findBestSetup(w, gen, {}, &pool);
                EXPECT_TRUE(par.setup == serial.setup)
                    << models::workloadName(w) << " threads="
                    << threads;
                EXPECT_EQ(par.secondsPerUnit, serial.secondsPerUnit);
                EXPECT_EQ(par.energyPerUnit, serial.energyPerUnit);
                EXPECT_EQ(par.sloRatio, serial.sloRatio);
                expectRunsIdentical(par.report.run(),
                                    serial.report.run());
            }
        }
    }
}

TEST(ParallelFindBestSetup, DefaultPoolMatchesSerial)
{
    auto serial = findBestSetupSerial(Workload::DlrmM,
                                      arch::NpuGeneration::C);
    auto par = findBestSetup(Workload::DlrmM, arch::NpuGeneration::C);
    EXPECT_TRUE(par.setup == serial.setup);
    EXPECT_EQ(par.energyPerUnit, serial.energyPerUnit);
    EXPECT_EQ(par.sloRatio, serial.sloRatio);
}

}  // namespace
}  // namespace sim
}  // namespace regate
