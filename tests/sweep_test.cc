/**
 * @file
 * Tests for the parallel sweep subsystem: the thread pool,
 * deterministic ordered fan-out and its error propagation, parallel
 * vs serial sweep equivalence (bitwise) over built-in rows and user
 * specs, including cases that share one execution, the SLO search
 * against its serial reference at any thread count (per-case and
 * per-identity errors, gating variants sharing one selection), the
 * rejection of a case without a scenario, and the automatic runner
 * keeping small sweeps on the calling thread.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <string>
#include <thread>

#include "common/thread_pool.h"
#include "models/registry.h"
#include "models/spec.h"
#include "sim/slo.h"
#include "sim/sweep.h"

namespace regate {
namespace sim {
namespace {

using models::Workload;

using ScenarioPtr = std::shared_ptr<const models::ScenarioSpec>;

/** The built-in rows of @p workloads. */
std::vector<ScenarioPtr>
rows(const std::vector<Workload> &workloads)
{
    std::vector<ScenarioPtr> out;
    for (auto w : workloads)
        out.push_back(models::builtinScenario(w));
    return out;
}

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

TEST(ThreadPool, DefaultThreadCountParsesTheWholeValue)
{
    const char *saved = std::getenv("REGATE_THREADS");
    std::string restore = saved ? saved : "";
    unsigned hw = std::max(1u, std::thread::hardware_concurrency());
    for (const auto &[value, want] :
         std::vector<std::pair<std::string, unsigned>>{
             {"3", 3},           {"8x", hw},  {"0", hw},
             {"-2", hw},         {"abc", hw}, {"", hw},
             {"99999999999", hw}, {"4294967297", hw}}) {
        ASSERT_EQ(setenv("REGATE_THREADS", value.c_str(), 1), 0);
        EXPECT_EQ(ThreadPool::defaultThreadCount(), want)
            << "REGATE_THREADS='" << value << "'";
        EXPECT_EQ(ThreadPool::envThreadCount(), value == "3" ? 3u : 0u)
            << "REGATE_THREADS='" << value << "'";
    }
    ASSERT_EQ(unsetenv("REGATE_THREADS"), 0);
    EXPECT_EQ(ThreadPool::envThreadCount(), 0u);
    EXPECT_EQ(ThreadPool::defaultThreadCount(), hw);
    if (saved)
        setenv("REGATE_THREADS", restore.c_str(), 1);
    else
        unsetenv("REGATE_THREADS");
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

TEST(ParallelMapOrdered, EmptyInput)
{
    ThreadPool pool(4);
    std::vector<int> none;
    auto out = parallelMapOrdered(pool, none, [](int v) { return v; });
    EXPECT_TRUE(out.empty());
}

TEST(ParallelMapOrdered, RethrowsLowestFailureAfterAllWorkersStop)
{
    // Items 50 and 70 throw; 50 only after a delay, so 70 usually
    // fails first in time. The caller must still see item 50's error
    // (the serial loop's), and only once no item is running any more.
    ThreadPool pool(4);
    std::vector<int> items;
    for (int i = 0; i < 200; ++i)
        items.push_back(i);
    std::atomic<int> running{0};
    std::atomic<int> ran{0};
    auto fn = [&](int v) {
        struct Running
        {
            std::atomic<int> &n;
            explicit Running(std::atomic<int> &c) : n(c) { ++n; }
            ~Running() { --n; }
        } guard(running);
        ++ran;
        if (v == 50) {
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
            throw ConfigError("item 50");
        }
        if (v == 70)
            throw ConfigError("item 70");
        std::this_thread::sleep_for(std::chrono::microseconds(200));
        return v;
    };
    try {
        parallelMapOrdered(pool, items, fn);
        FAIL() << "no exception propagated";
    } catch (const ConfigError &e) {
        EXPECT_EQ(running.load(), 0);
        EXPECT_NE(std::string(e.what()).find("item 50"),
                  std::string::npos)
            << e.what();
    }
    // Workers stop taking items once one has failed.
    EXPECT_LT(ran.load(), 200);
}

/** Exact comparison of everything a figure reads out of a report. */
void
expectRunsIdentical(const WorkloadReport &a, const WorkloadReport &b)
{
    EXPECT_EQ(a.cycles(), b.cycles());
    EXPECT_EQ(a.seconds(), b.seconds());
    EXPECT_EQ(a.execution().sramUsedIntegral,
              b.execution().sramUsedIntegral);
    for (auto c : arch::kAllComponents)
        EXPECT_TRUE(a.execution().timeline[c] == b.execution().timeline[c])
            << "timeline mismatch for " << arch::componentName(c);
    ASSERT_EQ(a.opRecords().size(), b.opRecords().size());
    for (std::size_t i = 0; i < a.opRecords().size(); ++i) {
        const auto &ra = a.opRecords()[i];
        const auto &rb = b.opRecords()[i];
        EXPECT_EQ(ra.count, rb.count);
        EXPECT_EQ(ra.duration, rb.duration);
        EXPECT_EQ(ra.sramDemandBytes, rb.sramDemandBytes);
        EXPECT_EQ(ra.dynamicJ, rb.dynamicJ);
        EXPECT_EQ(ra.sramUsedFrac, rb.sramUsedFrac);
        for (auto c : arch::kAllComponents)
            EXPECT_EQ(ra.activeFrac[c], rb.activeFrac[c]);
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

/** runSerial vs run at 1 and 4 threads, report by report. */
void
expectRunMatchesSerial(const std::vector<SweepCase> &grid)
{
    auto serial = SweepRunner::runSerial(grid);
    for (unsigned threads : {1u, 4u}) {
        SweepRunner runner(threads);
        auto grouped = runner.run(grid);
        ASSERT_EQ(serial.size(), grouped.size());
        for (std::size_t i = 0; i < serial.size(); ++i) {
            SCOPED_TRACE(testing::Message() << "case " << i
                                            << " threads=" << threads);
            EXPECT_EQ(serial[i].scenario, grouped[i].scenario);
            EXPECT_EQ(serial[i].gen, grouped[i].gen);
            EXPECT_TRUE(serial[i].setup == grouped[i].setup);
            EXPECT_EQ(serial[i].units, grouped[i].units);
            EXPECT_TRUE(serial[i].gatingParams() ==
                        grouped[i].gatingParams());
            expectRunsIdentical(serial[i], grouped[i]);
        }
    }
}

TEST(SweepRunner, ParallelBitwiseIdenticalToSerial)
{
    // A small paper grid, plus the MoE example spec (spec-only,
    // no paper workload).
    auto grid = scenarioGrid(rows({Workload::Prefill8B, Workload::Decode8B,
                                   Workload::DlrmS, Workload::DiTXL}),
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
    expectRunMatchesSerial(grid);
}

TEST(SweepRunner, GatingOverridesShareOneExecutionBitwise)
{
    // The §6.5 sensitivity workloads under several delay scales and
    // leakage ratios, interleaved so each workload's cases are spread
    // over the grid: every case of one workload shares an execution.
    std::vector<SweepCase> grid;
    for (double scale : {1.0, 1.5, 4.0}) {
        for (double logic_off : {0.03, 0.1}) {
            arch::LeakageRatios ratios;
            ratios.logicOff = logic_off;
            ratios.sramSleep = logic_off * 5;
            arch::GatingParams params(ratios);
            params.setDelayScale(scale);
            auto part = scenarioGrid(
                rows({Workload::Train405B, Workload::Prefill405B,
                      Workload::Decode405B, Workload::DlrmL,
                      Workload::DiTXL}),
                {arch::NpuGeneration::D}, params);
            grid.insert(grid.end(), part.begin(), part.end());
        }
    }
    ASSERT_EQ(grid.size(), 30u);
    expectRunMatchesSerial(grid);

    // One run object per workload, shared by its six variants.
    SweepRunner runner(2);
    auto reports = runner.run(grid);
    for (std::size_t i = 0; i < grid.size(); ++i) {
        SCOPED_TRACE(testing::Message() << "case " << i);
        for (std::size_t j = 0; j < 5; ++j)
            EXPECT_EQ(&reports[i].execution() == &reports[j].execution(),
                      i % 5 == j);
    }

    // The overrides do change the evaluation.
    EXPECT_NE(reports[0].result(Policy::Base).overheadCycles,
              reports[25].result(Policy::Base).overheadCycles);
}

TEST(SweepRunner, SpecGatingOverridesShareOneExecutionBitwise)
{
    // Scenario-path cases that differ in name, unit and gating
    // overrides only, the same scenario's HBM fit on NPU-D mapping
    // chips = 1, 2 and 4 onto one setup, and neighbours on that setup
    // whose graphs differ (top_k, seq_len).
    auto spec = models::parseSpecText(
        "@regate-spec v1\n"
        "[scenario a]\nfamily = moe\nmodel = 8b\nexperts = 16\n"
        "batch = 64\nchips = 1,2,4\n"
        "[scenario b]\nfamily = moe\nmodel = 8b\nexperts = 16\n"
        "batch = 64\nchips = 2\ndelay_scale = 3\nlogic_off = 0.2\n"
        "[scenario c]\nfamily = moe\nmodel = 8b\nexperts = 16\n"
        "batch = 64\nchips = 4\nsram_off = 0.05\nunit = request\n"
        "[scenario d]\nfamily = dlrm\nmodel = m\nbatch = 256\n"
        "chips = 4\nsram_sleep = 0.5\n"
        "[scenario e]\nfamily = moe\nmodel = 8b\nexperts = 16\n"
        "top_k = 4\nbatch = 64\nchips = 1\n"
        "[scenario f]\nfamily = moe\nmodel = 8b\nexperts = 16\n"
        "batch = 64\nchips = 1\nseq_len = 1024\n");
    auto grid = scenarioGrid(spec.scenarios, {arch::NpuGeneration::D,
                                              arch::NpuGeneration::B});
    ASSERT_EQ(grid.size(), 16u);
    std::size_t moe_d = 0;
    auto setup_d = models::defaultScenarioSetup(*spec.scenarios[0],
                                                arch::NpuGeneration::D);
    for (std::size_t i = 0; i < 5; ++i) {
        if (models::defaultScenarioSetup(*spec.scenarios[i],
                                         arch::NpuGeneration::D) ==
            setup_d)
            ++moe_d;
    }
    ASSERT_EQ(moe_d, 5u) << "the MoE chips values no longer share one "
                            "NPU-D setup";
    expectRunMatchesSerial(grid);
}

TEST(SweepRunner, SearchRecordsPerCaseErrors)
{
    // Fits NPU-D; on NPU-A the HBM fit needs more replicas than the
    // batch of 1, so no candidate setup exists there.
    auto spec = models::parseSpecText(
        "@regate-spec v1\n[scenario m]\nfamily = moe\nmodel = 8b\n"
        "experts = 16\nbatch = 1\nchips = 1\n");
    auto grid = scenarioGrid(spec.scenarios, {arch::NpuGeneration::A,
                                              arch::NpuGeneration::D});
    SweepRunner runner(2);
    auto results = runner.search(grid);
    ASSERT_EQ(results.size(), 2u);
    EXPECT_NE(results[0].error.find("no candidate setups"),
              std::string::npos)
        << results[0].error;
    EXPECT_EQ(results[0].report.gen, arch::NpuGeneration::A);
    EXPECT_EQ(results[0].report.scenario, grid[0].scenario);
    EXPECT_TRUE(results[1].error.empty()) << results[1].error;
    EXPECT_GT(results[1].energyPerUnit, 0);
}

/** An SLO search result against the serial reference, bitwise. */
void
expectSearchesIdentical(const SloResult &a, const SloResult &b)
{
    EXPECT_TRUE(a.error.empty()) << a.error;
    EXPECT_TRUE(a.setup == b.setup);
    EXPECT_EQ(a.secondsPerUnit, b.secondsPerUnit);
    EXPECT_EQ(a.energyPerUnit, b.energyPerUnit);
    EXPECT_EQ(a.sloRatio, b.sloRatio);
    EXPECT_EQ(a.report.scenario, b.report.scenario);
    EXPECT_EQ(a.report.gen, b.report.gen);
    EXPECT_TRUE(a.report.gatingParams() == b.report.gatingParams());
    expectRunsIdentical(a.report, b.report);
}

const std::vector<arch::NpuGeneration> kFig2Generations = {
    arch::NpuGeneration::A, arch::NpuGeneration::B,
    arch::NpuGeneration::C, arch::NpuGeneration::D};

/** findBestSetupSerial over one grid case. */
SloResult
searchSerially(const SweepCase &c)
{
    return findBestSetupSerial(c.scenario, c.gen, c.params);
}

TEST(SweepRunner, SearchMatchesSerialAtEveryThreadCount)
{
    // Fig. 2's grid: every paper workload on NPU-A to NPU-D.
    auto grid = scenarioGrid(rows(models::allWorkloads()),
                             kFig2Generations);
    ASSERT_EQ(grid.size(), 68u);
    std::vector<SloResult> serial;
    for (const auto &c : grid) {
        serial.push_back(searchSerially(c));
        SCOPED_TRACE(testing::Message()
                     << c.scenario->name << "/"
                     << arch::generationName(c.gen) << " findBestSetup");
        expectSearchesIdentical(findBestSetup(c.scenario, c.gen),
                                serial.back());
    }
    for (unsigned threads : {1u, 2u, 8u}) {
        SweepRunner runner(threads);
        auto results = runner.search(grid);
        ASSERT_EQ(results.size(), grid.size());
        for (std::size_t i = 0; i < grid.size(); ++i) {
            SCOPED_TRACE(testing::Message()
                         << grid[i].scenario->name << "/"
                         << arch::generationName(grid[i].gen)
                         << " threads=" << threads);
            expectSearchesIdentical(results[i], serial[i]);
        }
    }
}

TEST(SweepRunner, SearchAnchorErrorStopsEveryCaseOfItsIdentity)
{
    // Passes spec validation, then loses its sequence length, so the
    // NPU-D anchor's graph fails validation: every generation and
    // every gating variant of the scenario carries the anchor's error,
    // the one the serial search throws, while a healthy scenario in
    // the same grid still searches.
    auto spec = models::parseSpecText(
        "@regate-spec v1\n"
        "[scenario broken]\nfamily = llama-prefill\nmodel = 8b\n"
        "batch = 8\nchips = 1\n"
        "[scenario broken-gated]\nfamily = llama-prefill\n"
        "model = 8b\nbatch = 8\nchips = 1\nlogic_off = 0.2\n"
        "[scenario fine]\nfamily = dlrm\nmodel = s\nbatch = 64\n"
        "chips = 1\nsram_off = 0.05\n");
    for (std::size_t i : {0u, 1u}) {
        auto broken =
            std::make_shared<models::ScenarioSpec>(*spec.scenarios[i]);
        broken->seqLen = -1;
        spec.scenarios[i] = broken;
    }
    std::string serial_error;
    try {
        findBestSetupSerial(spec.scenarios[0], arch::NpuGeneration::B);
        FAIL() << "the serial search did not throw";
    } catch (const ConfigError &e) {
        serial_error = e.what();
    }
    auto grid = scenarioGrid(spec.scenarios, kFig2Generations);
    ASSERT_EQ(grid.size(), 12u);
    SweepRunner runner(2);
    auto results = runner.search(grid);
    ASSERT_EQ(results.size(), grid.size());
    for (std::size_t i = 0; i < 8; ++i) {
        SCOPED_TRACE(testing::Message() << "case " << i);
        EXPECT_EQ(results[i].error, serial_error);
        EXPECT_EQ(results[i].report.scenario, grid[i].scenario);
        EXPECT_EQ(results[i].report.gen, grid[i].gen);
    }
    for (std::size_t i = 8; i < grid.size(); ++i)
        expectSearchesIdentical(results[i], searchSerially(grid[i]));
}

TEST(SweepRunner, SearchGatingOverridesShareOneSelection)
{
    // Two scenarios that differ only in name and gating overrides
    // share one selection per generation, but each winner is evaluated
    // under its own case's params. A third that differs in its batch
    // too searches on its own.
    auto spec = models::parseSpecText(
        "@regate-spec v1\n"
        "[scenario plain]\nfamily = moe\nmodel = 8b\nexperts = 16\n"
        "batch = 64\nchips = 2\n"
        "[scenario gated]\nfamily = moe\nmodel = 8b\nexperts = 16\n"
        "batch = 64\nchips = 2\nlogic_off = 0.2\nsram_off = 0.3\n"
        "delay_scale = 4\n"
        "[scenario half-batch]\nfamily = moe\nmodel = 8b\n"
        "experts = 16\nbatch = 32\nchips = 2\nlogic_off = 0.2\n");
    auto grid = scenarioGrid(spec.scenarios, {arch::NpuGeneration::B,
                                              arch::NpuGeneration::D});
    ASSERT_EQ(grid.size(), 6u);
    for (unsigned threads : {1u, 4u}) {
        SweepRunner runner(threads);
        auto results = runner.search(grid);
        ASSERT_EQ(results.size(), grid.size());
        for (std::size_t i = 0; i < grid.size(); ++i) {
            SCOPED_TRACE(testing::Message() << "case " << i
                                            << " threads=" << threads);
            auto serial = searchSerially(grid[i]);
            expectSearchesIdentical(results[i], serial);
            EXPECT_EQ(results[i].report.result(Policy::Full)
                          .energy.busyTotal(),
                      serial.report.result(Policy::Full)
                          .energy.busyTotal());
        }
        // Same winner, different evaluation.
        EXPECT_TRUE(results[0].setup == results[2].setup);
        EXPECT_NE(
            results[0].report.result(Policy::Full).energy.busyTotal(),
            results[2].report.result(Policy::Full).energy.busyTotal());
    }
}

TEST(SweepRunner, CaseWithoutScenarioIsALogicError)
{
    auto grid = scenarioGrid(rows({Workload::DlrmS}),
                             {arch::NpuGeneration::C,
                              arch::NpuGeneration::D});
    grid.push_back(grid.front());
    grid[1].scenario = nullptr;
    SweepRunner runner(2);
    for (bool search : {false, true}) {
        try {
            if (search)
                runner.search(grid);
            else
                runner.run(grid);
            FAIL() << "no LogicError, search=" << search;
        } catch (const LogicError &e) {
            EXPECT_NE(std::string(e.what()).find("sweep case 1 "),
                      std::string::npos)
                << e.what();
        }
    }
}

/** Threads of this process (/proc/self/status); 0 if unreadable. */
unsigned
liveThreads()
{
    std::ifstream status("/proc/self/status");
    std::string key;
    while (status >> key) {
        if (key == "Threads:") {
            unsigned n = 0;
            status >> n;
            return n;
        }
        status.ignore(std::numeric_limits<std::streamsize>::max(), '\n');
    }
    return 0;
}

/** @p n delay-scale variants of DLRM-S on NPU-D: one execution. */
std::vector<SweepCase>
delayVariants(std::size_t n)
{
    std::vector<SweepCase> grid;
    for (std::size_t i = 0; i < n; ++i) {
        arch::GatingParams params;
        params.setDelayScale(1.0 + 0.01 * static_cast<double>(i));
        auto part = scenarioGrid(rows({Workload::DlrmS}),
                                 {arch::NpuGeneration::D}, params);
        grid.push_back(part.front());
    }
    return grid;
}

TEST(SweepRunner, AutomaticRunnerKeepsSmallSweepsOnTheCallingThread)
{
    const unsigned before = liveThreads();
    if (before == 0)
        GTEST_SKIP() << "no thread count in /proc/self/status";
    const char *saved = std::getenv("REGATE_THREADS");
    std::string restore = saved ? saved : "";
    ASSERT_EQ(unsetenv("REGATE_THREADS"), 0);
    SweepRunner automatic;
    if (saved)
        setenv("REGATE_THREADS", restore.c_str(), 1);
    EXPECT_EQ(automatic.threadCount(), ThreadPool::defaultThreadCount());

    // Below the threshold: no worker starts, and the reports are the
    // serial path's.
    auto small = delayVariants(SweepRunner::kMinParallelCases - 1);
    auto serial = SweepRunner::runSerial(small);
    auto reports = automatic.run(small);
    EXPECT_EQ(liveThreads(), before);
    ASSERT_EQ(reports.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        SCOPED_TRACE(testing::Message() << "case " << i);
        expectRunsIdentical(serial[i], reports[i]);
    }
    automatic.search(small);
    EXPECT_EQ(liveThreads(), before);

    // At the threshold the pool starts, once.
    automatic.run(delayVariants(SweepRunner::kMinParallelCases));
    EXPECT_EQ(liveThreads(), before + automatic.threadCount());
    automatic.run(delayVariants(SweepRunner::kMinParallelCases));
    EXPECT_EQ(liveThreads(), before + automatic.threadCount());

    // A given worker count is used for every sweep, however small.
    SweepRunner given(2);
    given.run(delayVariants(2));
    EXPECT_EQ(liveThreads(), before + automatic.threadCount() + 2);
}

}  // namespace
}  // namespace sim
}  // namespace regate
