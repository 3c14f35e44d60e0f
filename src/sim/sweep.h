/**
 * @file
 * Parallel sweep runner: fans (scenario x NPU generation x gating
 * params x pod setup) grids out across worker threads and returns
 * results in the exact order of the input grid, so a parallel sweep is
 * a drop-in replacement for the serial loop the figure binaries used
 * to run. Every case carries its scenario spec, a built-in paper row
 * or a user spec alike. run() groups the points that build the same
 * graph on the same generation and setup (gating params aside),
 * executes each group once and evaluates that execution under every
 * point's own gating params; the group's reports share its one run
 * and each owns only its ReGate-Base/HW/Full results, so a gating
 * variant costs one evaluation and no copy of the run. A point whose
 * gating params equal those of the group's point before it costs no
 * evaluation, and one that shares its delay scale and logic leak
 * reuses its timeline walks (GatedMemo). run(cases, visit) hands each
 * report to the caller's visitor on the worker that made it, as soon
 * as it is made, so a caller that keeps only what it reads of a report
 * frees a group's run when the group's task ends; run(cases) keeps
 * every report, and with it every run, until the caller drops them.
 * search() groups the points of one scenario identity and runs one SLO
 * search over each group (searchSameIdentity). Groups share nothing,
 * so the results are bitwise identical to the serial path, which
 * simulates every point from scratch. Each parallel sweep starts its
 * workers and joins them before it returns (parallelFor), so a runner
 * holds no thread between sweeps. Unless told a worker count, the
 * runner keeps a small sweep (SweepRunner::kMinParallelCases) on the
 * calling thread.
 */

#ifndef REGATE_SIM_SWEEP_H
#define REGATE_SIM_SWEEP_H

#include <cstddef>
#include <functional>
#include <memory>
#include <vector>

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

    /** Label set only by the makeGrid forward, for
     *  perfbench/layer_trace.cc; nothing in the library reads it. */
    models::Workload workload{};
    arch::NpuGeneration gen{};
    arch::GatingParams params;

    /** Pod/batch override; defaultScenarioSetup when unset. */
    bool hasSetup = false;
    models::RunSetup setup;
};

/**
 * One grid point for @p spec on @p gen: @p params with the spec's
 * gating overrides laid over them (each set models::kGatingKeys slot
 * replaces its parameter; empty slots keep @p params' value). This is
 * the only way a spec's overrides reach a case: simulateScenario,
 * findBestSetup and hand-built SweepCases run under the params they
 * are given. A spec that duplicates a paper workload runs as its
 * built-in row (models::builtinScenarioOf), canonical name included.
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
 * Receives case @p i's report from SweepRunner::run(cases, visit), on
 * the worker that made it. Several workers may call it at once, each
 * with a different case.
 */
using SweepVisitor =
    std::function<void(std::size_t i, WorkloadReport &&report)>;

/** The runner: a worker count, reusable for any number of sweeps. */
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
     * @param threads  Worker count of a parallel sweep, the calling
     *                 thread included; 0 = REGATE_THREADS, or else the
     *                 hardware concurrency for sweeps of at least
     *                 kMinParallelCases cases and the calling thread
     *                 alone for smaller ones. A given count is used
     *                 for every sweep.
     */
    explicit SweepRunner(unsigned threads = 0);

    /**
     * Simulate every case and call @p visit(i, report) exactly once
     * for each case i, on the worker that simulated it: concurrently
     * from several workers, in no set order across groups, and in
     * input order within a group. A case without a scenario is a
     * LogicError naming its index, raised before any case runs.
     * Cases that build the same graph on the same generation and
     * resolved setup form a group and share one execution, whose run
     * their reports point at (WorkloadReport::execution() is one
     * object); they differ only in its evaluation (their gating
     * params) and in their report identity. In input order within a
     * group, a case whose params equal the previous case's copies its
     * Base/HW/Full results rather than evaluating them again, and the
     * group's GatedMemo carries timeline walks and wake-up overheads
     * from one evaluation to the next. The group's run lives as long
     * as a report of it does: a visitor that keeps no report lets it
     * die when the group's last case has been visited. If a case
     * fails (or @p visit throws), no new group starts, and once the
     * running ones end the exception of the first failing group in
     * execution-key order is rethrown, whatever the worker count.
     */
    void run(const std::vector<SweepCase> &cases, const SweepVisitor &visit);

    /**
     * run(cases, visit) keeping every report: results are
     * index-aligned with @p cases, and every run lives until the last
     * report of it is dropped.
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

    /**
     * Threads that work on a sweep of @p cases cases, the calling
     * thread included: 1 for a small sweep of an automatic runner
     * (below kMinParallelCases), the runner's worker count otherwise.
     */
    unsigned workersFor(std::size_t cases) const;

  private:
    unsigned threads_;
    bool automatic_;  ///< No worker count given.
};

// Kept only because perfbench/layer_trace.cc calls it. It goes with
// that tracer (ROADMAP item 6).

/**
 * Dense (workloads x generations) grid of the paperSuite() rows,
 * workload-major, each case labeled with its workload.
 */
std::vector<SweepCase> makeGrid(
    const std::vector<models::Workload> &workloads,
    const std::vector<arch::NpuGeneration> &gens,
    const arch::GatingParams &params = {});

}  // namespace sim
}  // namespace regate

#endif  // REGATE_SIM_SWEEP_H
