/**
 * @file
 * Parallel sweep runner: fans (scenario x NPU generation x gating
 * params x pod setup) grids out across a worker pool and returns
 * results in the exact order of the input grid, so a parallel sweep is
 * a drop-in replacement for the serial loop the figure binaries used
 * to run. Every case carries its scenario spec, a built-in paper row
 * or a user spec alike. run() groups the points that build the same
 * graph on the same generation and setup (gating params aside),
 * executes each group once and evaluates that execution under every
 * point's own gating params; the group's reports share its one run
 * and each owns only its ReGate-Base/HW/Full results, so a gating
 * variant costs one evaluation and no copy of the run. search()
 * groups the points of one scenario identity and runs one SLO search
 * over each group (searchSameIdentity). Groups share nothing, so the
 * results are bitwise identical to the serial path, which simulates
 * every point from scratch. Unless told a worker count, the runner
 * keeps a small sweep (SweepRunner::kMinParallelCases) on the calling
 * thread.
 */

#ifndef REGATE_SIM_SWEEP_H
#define REGATE_SIM_SWEEP_H

#include <cstddef>
#include <memory>
#include <mutex>
#include <vector>

#include "common/thread_pool.h"
#include "sim/report.h"
#include "sim/slo.h"

namespace regate {
namespace sim {

/** One grid point of a sweep. */
struct SweepCase
{
    /**
     * The scenario, required: run() and search() reject a null one.
     * scenarioCase() turns a spec identical to a paper workload into
     * that workload's built-in row (models::builtinScenarioOf).
     */
    std::shared_ptr<const models::ScenarioSpec> scenario;

    /** Label set only by the makeGrid forward; never read. */
    models::Workload workload{};
    arch::NpuGeneration gen{};
    arch::GatingParams params;

    /** Pod/batch override; defaultScenarioSetup when unset. */
    bool hasSetup = false;
    models::RunSetup setup;
};

/**
 * Overlay a scenario's gating overrides (logic_off, sram_sleep,
 * sram_off, delay_scale) onto @p params; keys the spec does not set
 * keep their values from @p params.
 */
void applyScenarioGating(arch::GatingParams *params,
                         const models::ScenarioSpec &spec);

/**
 * One grid point for @p spec on @p gen: @p params plus the spec's
 * gating overrides. A spec that duplicates a paper workload runs as
 * its built-in row (models::builtinScenarioOf), canonical name
 * included.
 */
SweepCase scenarioCase(std::shared_ptr<const models::ScenarioSpec> spec,
                       arch::NpuGeneration gen,
                       const arch::GatingParams &params = {});

/** Dense (scenarios x generations) grid, scenario-major. */
std::vector<SweepCase> scenarioGrid(
    const std::vector<std::shared_ptr<const models::ScenarioSpec>>
        &scenarios,
    const std::vector<arch::NpuGeneration> &gens,
    const arch::GatingParams &params = {});

/**
 * The runner. One instance owns one worker pool, started by its first
 * parallel sweep, and can be reused.
 */
class SweepRunner
{
  public:
    /**
     * A runner whose worker count is not given (0 here and
     * REGATE_THREADS unset) runs sweeps of fewer than this many cases
     * on the calling thread. The paper's grids have at most 68 cases,
     * a few milliseconds of work: on 4 cores, running them there
     * rather than on four workers cut the CPU time of the 22 figure
     * binaries by about a quarter, and made the peak RSS the kernel
     * reports for each repeatable (with workers it moved from run to
     * run in 128 KiB steps). Spec sweeps of thousands of cases stay
     * parallel.
     */
    static constexpr std::size_t kMinParallelCases = 256;

    /**
     * @param threads  Worker count of a parallel sweep; 0 =
     *                 REGATE_THREADS, or else the hardware concurrency
     *                 for sweeps of at least kMinParallelCases cases
     *                 and the calling thread for smaller ones. A
     *                 given count is used for every sweep.
     */
    explicit SweepRunner(unsigned threads = 0);

    /**
     * Simulate every case; results are index-aligned with @p cases. A
     * case without a scenario is a LogicError naming its index.
     * Cases that build the same graph on the same generation and
     * resolved setup share one execution, whose run their reports
     * point at (WorkloadReport::execution() is one object), and
     * differ only in its evaluation (their gating params) and in
     * their report identity.
     */
    std::vector<WorkloadReport> run(const std::vector<SweepCase> &cases);

    /**
     * SLO-search every case (the Fig. 2 path); results index-aligned
     * with @p cases. One task per scenario identity runs
     * searchSameIdentity over that identity's cases. The per-case
     * setup override is ignored — the search explores its own
     * candidates. A case whose search fails with a ConfigError gets a
     * result carrying only that error and the case's identity
     * (SloResult::error). A case without a scenario is a LogicError
     * naming its index.
     */
    std::vector<SloResult> search(const std::vector<SweepCase> &cases);

    /** Serial reference implementation of run() for equivalence tests. */
    static std::vector<WorkloadReport> runSerial(
        const std::vector<SweepCase> &cases);

    /** Worker count of a parallel sweep. */
    unsigned threadCount() const { return threads_; }

  private:
    /**
     * Call @p fn(g) for every group g in [0, @p groups) of a sweep of
     * @p cases cases, on the pool or, for a small sweep of an
     * automatic runner, in order on the calling thread; parallelFor's
     * error contract either way.
     */
    template <typename Fn>
    void forEachGroup(std::size_t groups, std::size_t cases, Fn &&fn);

    unsigned threads_;
    bool automatic_;  ///< No worker count given.
    std::once_flag poolStarted_;
    std::unique_ptr<ThreadPool> pool_;
};

// Kept only because perfbench/layer_trace.cc calls it; it goes when
// that tracer becomes a driver over library spans (ROADMAP, "One
// benchmark").

/**
 * Dense (workloads x generations) grid of the built-in rows,
 * workload-major, each case labeled with its workload.
 */
std::vector<SweepCase> makeGrid(
    const std::vector<models::Workload> &workloads,
    const std::vector<arch::NpuGeneration> &gens,
    const arch::GatingParams &params = {});

}  // namespace sim
}  // namespace regate

#endif  // REGATE_SIM_SWEEP_H
