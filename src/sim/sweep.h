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
 * point's own gating params. search() groups the points of one
 * scenario identity and runs one SLO search over each group
 * (searchSameIdentity). Groups share nothing, so the results are
 * bitwise identical to the serial path, which simulates every point
 * from scratch.
 */

#ifndef REGATE_SIM_SWEEP_H
#define REGATE_SIM_SWEEP_H

#include <memory>
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

/** The runner. One instance owns one worker pool and can be reused. */
class SweepRunner
{
  public:
    /** @param threads 0 = REGATE_THREADS env or hardware concurrency. */
    explicit SweepRunner(unsigned threads = 0) : pool_(threads) {}

    /**
     * Simulate every case; results are index-aligned with @p cases. A
     * case without a scenario is a LogicError naming its index.
     * Cases that build the same graph on the same generation and
     * resolved setup share one execution and differ only in its
     * evaluation (their gating params) and in their report identity.
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

    unsigned threadCount() const { return pool_.threadCount(); }

  private:
    ThreadPool pool_;
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
