/**
 * @file
 * Tests for the compiled-graph / whole-run caches (sim/graph_cache.h)
 * and the parallel SLO search: cache hits must be indistinguishable
 * from cold compiles/simulations, the new content-hash keys must be
 * collision-free across realistic setups, and parallel findBestSetup
 * must pick the exact winner the serial loop picks at any thread
 * count.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "sim/graph_cache.h"
#include "sim/slo.h"
#include "sim/sweep.h"

namespace regate {
namespace sim {
namespace {

using models::RunSetup;
using models::Workload;

/** Field-by-field equality of two operator graphs. */
void
expectGraphsIdentical(const graph::OperatorGraph &a,
                      const graph::OperatorGraph &b)
{
    EXPECT_EQ(a.name, b.name);
    ASSERT_EQ(a.blocks.size(), b.blocks.size());
    for (std::size_t i = 0; i < a.blocks.size(); ++i) {
        const auto &ba = a.blocks[i];
        const auto &bb = b.blocks[i];
        EXPECT_EQ(ba.name, bb.name);
        EXPECT_EQ(ba.repeat, bb.repeat);
        ASSERT_EQ(ba.ops.size(), bb.ops.size());
        for (std::size_t j = 0; j < ba.ops.size(); ++j) {
            EXPECT_EQ(ba.ops[j].name, bb.ops[j].name);
            EXPECT_TRUE(ba.ops[j].sameWork(bb.ops[j]))
                << "op " << ba.ops[j].name << " differs";
        }
    }
}

/** Exact comparison of everything a figure reads out of a run. */
void
expectRunsIdentical(const WorkloadRun &a, const WorkloadRun &b)
{
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.seconds, b.seconds);
    EXPECT_EQ(a.sramUsedIntegral, b.sramUsedIntegral);
    ASSERT_EQ(a.opRecords.size(), b.opRecords.size());
    for (std::size_t i = 0; i < a.opRecords.size(); ++i) {
        EXPECT_EQ(a.opRecords[i].duration(),
                  b.opRecords[i].duration());
        EXPECT_EQ(a.opRecords[i].dynamicJ(),
                  b.opRecords[i].dynamicJ());
    }
    for (auto p : allPolicies()) {
        const auto &ra = a.result(p);
        const auto &rb = b.result(p);
        EXPECT_EQ(ra.overheadCycles, rb.overheadCycles);
        EXPECT_EQ(ra.seconds, rb.seconds);
        EXPECT_EQ(ra.avgPowerW, rb.avgPowerW);
        EXPECT_EQ(ra.peakPowerW, rb.peakPowerW);
        EXPECT_EQ(ra.vuGateEvents, rb.vuGateEvents);
        EXPECT_EQ(ra.sramSetpmPairs, rb.sramSetpmPairs);
        EXPECT_EQ(0, std::memcmp(&ra.energy, &rb.energy,
                                 sizeof(ra.energy)))
            << "energy breakdown mismatch for " << policyName(p);
    }
}

TEST(CompiledGraphCache, HitIdenticalToColdCompile)
{
    CompiledGraphCache cache;
    for (auto w : {Workload::Decode13B, Workload::DlrmM,
                   Workload::Gligen}) {
        const auto gen = arch::NpuGeneration::D;
        auto setup = models::defaultSetup(w, gen);
        const auto &cfg = arch::npuConfig(gen);

        EXPECT_EQ(cache.lookup(w, setup, gen), nullptr);
        auto stored = cache.store(
            w, setup, gen,
            compiler::compileGraph(models::buildGraph(w, setup), cfg));
        auto hit = cache.lookup(w, setup, gen);
        ASSERT_NE(hit, nullptr);
        EXPECT_EQ(hit.get(), stored.get());  // Same immutable entry.

        // A from-scratch compile matches the cached one field by
        // field (build + compile are deterministic).
        auto cold = compiler::compileGraph(
            models::buildGraph(w, setup), cfg);
        expectGraphsIdentical(hit->graph, cold.graph);
        EXPECT_EQ(hit->fusion.fusedOps, cold.fusion.fusedOps);
        EXPECT_EQ(hit->tiling.vuMappedGemms, cold.tiling.vuMappedGemms);
        EXPECT_EQ(hit->tiling.maxDemandBytes, cold.tiling.maxDemandBytes);
    }
    EXPECT_EQ(cache.size(), 3u);
    EXPECT_EQ(cache.hits(), 3u);
    EXPECT_EQ(cache.misses(), 3u);
    cache.clear();
    EXPECT_EQ(cache.size(), 0u);
}

TEST(CompiledGraphCache, DistinctKeysDoNotCollide)
{
    CompiledGraphCache cache;
    const auto w = Workload::Prefill13B;
    const auto gen = arch::NpuGeneration::D;
    auto setup = models::defaultSetup(w, gen);
    const auto &cfg = arch::npuConfig(gen);
    cache.store(w, setup, gen,
                compiler::compileGraph(models::buildGraph(w, setup),
                                       cfg));

    // Different workload, generation, or setup: all misses.
    EXPECT_EQ(cache.lookup(Workload::Decode13B, setup, gen), nullptr);
    EXPECT_EQ(cache.lookup(w, setup, arch::NpuGeneration::C), nullptr);
    RunSetup other = setup;
    other.batch *= 2;
    EXPECT_EQ(cache.lookup(w, other, gen), nullptr);
    other = setup;
    other.par.tp *= 2;
    EXPECT_EQ(cache.lookup(w, other, gen), nullptr);

    // A value-equal copy of the setup hits.
    RunSetup copy = setup;
    EXPECT_NE(cache.lookup(w, copy, gen), nullptr);
}

TEST(WorkloadMemo, WarmSimulateWorkloadBitwiseIdenticalToUncached)
{
    for (auto w : {Workload::Decode70B, Workload::DlrmL,
                   Workload::DiTXL}) {
        const auto gen = arch::NpuGeneration::D;
        // First call may be cold, second is a whole-run replay; the
        // uncached call rebuilds, recompiles, and resimulates from
        // scratch with no shared state.
        auto first = simulateWorkload(w, gen);
        auto warm = simulateWorkload(w, gen);
        auto independent = simulateWorkloadUncached(w, gen);
        expectRunsIdentical(first.run(), warm.run());
        expectRunsIdentical(warm.run(), independent.run());
        EXPECT_EQ(warm.units, independent.units);
    }
}

TEST(WorkloadMemo, RunCacheKeyedByGatingParams)
{
    const auto w = Workload::DlrmM;
    const auto gen = arch::NpuGeneration::D;
    arch::GatingParams scaled;
    scaled.setDelayScale(2.0);

    auto base = simulateWorkload(w, gen);
    auto alt = simulateWorkload(w, gen, scaled);
    // Different params must not replay each other's runs: the Base
    // policy pays the scaled wake-up delays directly, so its overhead
    // must differ between the two parameter sets.
    EXPECT_NE(base.run().result(Policy::Base).overheadCycles,
              alt.run().result(Policy::Base).overheadCycles);

    // And each stays self-consistent on replay.
    expectRunsIdentical(alt.run(), simulateWorkload(w, gen, scaled).run());
}

TEST(WorkloadMemo, ClearSharedCachesForcesColdRun)
{
    const auto w = Workload::Prefill8B;
    const auto gen = arch::NpuGeneration::B;
    simulateWorkload(w, gen);
    auto hits_before = sharedRunCache().hits();
    simulateWorkload(w, gen);
    EXPECT_GT(sharedRunCache().hits(), hits_before);

    clearSharedCaches();
    EXPECT_EQ(sharedRunCache().size(), 0u);
    EXPECT_EQ(sharedGraphCache().size(), 0u);
    auto misses_before = sharedRunCache().misses();
    auto rep = simulateWorkload(w, gen);
    EXPECT_GT(sharedRunCache().misses(), misses_before);
    EXPECT_GT(rep.run().cycles, 0u);
}

TEST(WorkloadMemo, WarmHitPerformsZeroRunCopies)
{
    const auto w = Workload::Decode13B;
    const auto gen = arch::NpuGeneration::D;
    clearSharedCaches();
    auto first = simulateWorkload(w, gen);  // Cold: fills the memo.
    ASSERT_NE(first.runShared(), nullptr);

    // The warm hit must be a pointer bump: zero WorkloadRun deep
    // copies, and the report aliases the cache's immutable entry.
    auto copies_before = WorkloadRun::copies();
    auto warm = simulateWorkload(w, gen);
    EXPECT_EQ(WorkloadRun::copies(), copies_before)
        << "warm simulateWorkload deep-copied the run";
    EXPECT_EQ(warm.runShared().get(), first.runShared().get());

    // Prove the counter observes real copies: one deliberate deep
    // copy bumps it by exactly one.
    WorkloadRun copied(first.run());
    EXPECT_EQ(WorkloadRun::copies(), copies_before + 1);
    EXPECT_EQ(copied.cycles, first.run().cycles);
    EXPECT_EQ(copied.opRecords.size(), first.run().opRecords.size());
}

TEST(WorkloadMemo, UncachedLeavesSharedCachesUntouched)
{
    const auto w = Workload::DlrmS;
    const auto gen = arch::NpuGeneration::C;
    clearSharedCaches();
    auto warm = simulateWorkload(w, gen);  // Populate shared caches.

    auto run_size = sharedRunCache().size();
    auto run_hits = sharedRunCache().hits();
    auto run_misses = sharedRunCache().misses();
    auto run_evictions = sharedRunCache().evictions();
    auto graph_size = sharedGraphCache().size();
    auto graph_hits = sharedGraphCache().hits();
    auto graph_misses = sharedGraphCache().misses();
    auto op_size = sharedOpCache(gen).size();
    ASSERT_GT(run_size, 0u);
    ASSERT_GT(op_size, 0u);

    // The independent path (fig16 validation) must not read from or
    // write to any shared cache — same results, untouched state.
    auto independent = simulateWorkloadUncached(w, gen);
    EXPECT_EQ(sharedRunCache().size(), run_size);
    EXPECT_EQ(sharedRunCache().hits(), run_hits);
    EXPECT_EQ(sharedRunCache().misses(), run_misses);
    EXPECT_EQ(sharedRunCache().evictions(), run_evictions);
    EXPECT_EQ(sharedGraphCache().size(), graph_size);
    EXPECT_EQ(sharedGraphCache().hits(), graph_hits);
    EXPECT_EQ(sharedGraphCache().misses(), graph_misses);
    EXPECT_EQ(sharedOpCache(gen).size(), op_size);
    expectRunsIdentical(warm.run(), independent.run());
}

TEST(EngineClearCaches, DropsMemoizedOperators)
{
    const auto w = Workload::Decode13B;
    const auto gen = arch::NpuGeneration::D;
    const auto &cfg = arch::npuConfig(gen);
    auto setup = models::defaultSetup(w, gen);
    auto compiled =
        compiler::compileGraph(models::buildGraph(w, setup), cfg);

    Engine engine(cfg);
    auto a = engine.run(compiled.graph, setup.chips);
    EXPECT_GT(engine.opCache().size(), 0u);

    engine.clearCaches();
    EXPECT_EQ(engine.opCache().size(), 0u);
    auto b = engine.run(compiled.graph, setup.chips);
    EXPECT_EQ(b.opCacheHits, a.opCacheHits);
    EXPECT_EQ(b.opCacheMisses, a.opCacheMisses);
    expectRunsIdentical(a, b);
}

// ---- Hash quality (mirrors workHash()/sameWork() coverage) ----

TEST(SetupHash, CopiesHashEqual)
{
    for (auto w : models::allWorkloads()) {
        auto setup = models::defaultSetup(w, arch::NpuGeneration::D);
        RunSetup copy = setup;
        EXPECT_TRUE(setup == copy);
        EXPECT_EQ(setup.contentHash(), copy.contentHash());
    }
}

TEST(SetupHash, DistinctSetupsHashDistinct)
{
    // Collect every candidate setup the SLO search explores across
    // all workloads and generations — a realistic key population —
    // and require zero hash collisions between value-distinct setups.
    std::vector<RunSetup> setups;
    for (auto w : models::allWorkloads()) {
        for (auto gen : arch::allGenerations()) {
            for (const auto &s : candidateSetups(w, gen))
                setups.push_back(s);
        }
    }
    ASSERT_GT(setups.size(), 100u);
    for (std::size_t i = 0; i < setups.size(); ++i) {
        for (std::size_t j = i + 1; j < setups.size(); ++j) {
            if (setups[i] == setups[j]) {
                EXPECT_EQ(setups[i].contentHash(),
                          setups[j].contentHash());
            } else {
                EXPECT_NE(setups[i].contentHash(),
                          setups[j].contentHash())
                    << "collision between distinct setups " << i
                    << " and " << j;
            }
        }
    }
}

TEST(SetupHash, EveryFieldContributes)
{
    RunSetup base;
    base.chips = 8;
    base.batch = 64;
    base.par = {2, 2, 2};

    auto perturbed = [&](auto mutate) {
        RunSetup s = base;
        mutate(s);
        EXPECT_FALSE(s == base);
        EXPECT_NE(s.contentHash(), base.contentHash());
    };
    perturbed([](RunSetup &s) { s.chips = 16; });
    perturbed([](RunSetup &s) { s.batch = 128; });
    perturbed([](RunSetup &s) { s.par.dp = 4; });
    perturbed([](RunSetup &s) { s.par.tp = 4; });
    perturbed([](RunSetup &s) { s.par.pp = 4; });
}

TEST(ParamsHash, CopiesEqualDistinctDiffer)
{
    arch::GatingParams a;
    arch::GatingParams b;
    EXPECT_TRUE(a == b);
    EXPECT_EQ(a.contentHash(), b.contentHash());

    arch::GatingParams scaled;
    scaled.setDelayScale(2.0);
    EXPECT_FALSE(a == scaled);
    EXPECT_NE(a.contentHash(), scaled.contentHash());

    arch::LeakageRatios r;
    r.logicOff = 0.2;
    arch::GatingParams leaky(r);
    EXPECT_FALSE(a == leaky);
    EXPECT_NE(a.contentHash(), leaky.contentHash());
}

// ---- Parallel SLO search determinism ----

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
                // Drop the shared memos so the parallel search
                // genuinely simulates its candidates concurrently
                // instead of replaying the serial pass's cached runs.
                clearSharedCaches();
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
    clearSharedCaches();  // Force the parallel pass to re-simulate.
    auto par = findBestSetup(Workload::DlrmM, arch::NpuGeneration::C);
    EXPECT_TRUE(par.setup == serial.setup);
    EXPECT_EQ(par.energyPerUnit, serial.energyPerUnit);
    EXPECT_EQ(par.sloRatio, serial.sloRatio);
}

TEST(RunCacheLru, EvictsLeastRecentlyUsedWithinByteBudget)
{
    auto rep = simulateWorkload(Workload::DlrmS,
                                arch::NpuGeneration::D);
    auto setup = rep.setup;
    std::size_t bytes = WorkloadRunCache::entryBytes(rep.run());
    EXPECT_GT(bytes, sizeof(WorkloadRun));

    // Four keys (distinct delay scales), one identical payload each,
    // so every entry charges the same byte count and the LRU order
    // is the only thing deciding who survives a budget of two.
    auto paramsFor = [](double scale) {
        arch::GatingParams p;
        p.setDelayScale(scale);
        return p;
    };
    WorkloadRunCache cache(2 * bytes + bytes / 2);
    for (double scale : {1.0, 2.0, 3.0})
        cache.store(Workload::DlrmS, setup, arch::NpuGeneration::D,
                    paramsFor(scale), rep.run());
    // Budget fits two: storing the third evicted scale 1.0.
    EXPECT_EQ(cache.size(), 2u);
    EXPECT_EQ(cache.evictions(), 1u);
    EXPECT_LE(cache.totalBytes(), cache.byteBudget());
    EXPECT_EQ(cache.lookup(Workload::DlrmS, setup,
                           arch::NpuGeneration::D, paramsFor(1.0)),
              nullptr);

    // Touch scale 2.0, then store a fourth entry: 3.0 is now the
    // least recently used and must be the one to go.
    EXPECT_NE(cache.lookup(Workload::DlrmS, setup,
                           arch::NpuGeneration::D, paramsFor(2.0)),
              nullptr);
    cache.store(Workload::DlrmS, setup, arch::NpuGeneration::D,
                paramsFor(4.0), rep.run());
    EXPECT_NE(cache.lookup(Workload::DlrmS, setup,
                           arch::NpuGeneration::D, paramsFor(2.0)),
              nullptr);
    EXPECT_EQ(cache.lookup(Workload::DlrmS, setup,
                           arch::NpuGeneration::D, paramsFor(3.0)),
              nullptr);

    // An entry bigger than the whole budget still survives its own
    // store (the cache never evicts the most recent entry).
    cache.setByteBudget(1);
    EXPECT_EQ(cache.size(), 1u);
}

TEST(RunCacheLru, EvictionPreservesResultCorrectness)
{
    auto grid = makeGrid({Workload::Prefill8B, Workload::Decode8B,
                          Workload::DlrmS, Workload::DiTXL},
                         {arch::NpuGeneration::D});
    clearSharedCaches();
    auto reference = SweepRunner::runSerial(grid);

    // Shrink the shared run memo to a single entry's worth of bytes:
    // every grid point now evicts its predecessor, so the sweep
    // below constantly re-simulates — and must not change a bit.
    std::size_t old_budget = sharedRunCache().byteBudget();
    sharedRunCache().setByteBudget(1);
    clearSharedCaches();
    SweepRunner runner(2);
    auto thrashed = runner.run(grid);
    auto again = runner.run(grid);  // Warm pass under eviction.
    EXPECT_LE(sharedRunCache().size(), 1u);
    EXPECT_GT(sharedRunCache().evictions(), 0u);
    sharedRunCache().setByteBudget(old_budget);

    ASSERT_EQ(thrashed.size(), reference.size());
    for (std::size_t i = 0; i < reference.size(); ++i) {
        expectRunsIdentical(thrashed[i].run(), reference[i].run());
        expectRunsIdentical(again[i].run(), reference[i].run());
        EXPECT_EQ(thrashed[i].units, reference[i].units);
    }
}

}  // namespace
}  // namespace sim
}  // namespace regate
