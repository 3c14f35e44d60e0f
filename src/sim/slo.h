/**
 * @file
 * SLO-compliant configuration search (§3, Table 4): for each workload
 * and NPU generation, find the most energy-efficient pod
 * configuration whose per-unit latency (or training throughput) meets
 * the SLO. The 1x SLO is defined as 5x the latency (1/5 the
 * throughput) of the default batch on the minimum NPU-D pod [78].
 */

#ifndef REGATE_SIM_SLO_H
#define REGATE_SIM_SLO_H

#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "sim/report.h"

namespace regate {
namespace sim {

/** Outcome of the search for one (workload, generation). */
struct SloResult
{
    models::RunSetup setup;
    double secondsPerUnit = 0;   ///< Achieved latency per work unit.
    double energyPerUnit = 0;    ///< NoPG J/unit (Fig. 2 metric).
    double sloRatio = 1;         ///< Attained SLO multiple (1 = meets
                                 ///< 1x; 2 = needed 2x relaxation).
    WorkloadReport report;       ///< The winning simulation.

    /**
     * Set when SweepRunner::search could not search this case (for
     * example, no candidate setup fits); the other fields are then
     * unset except the report's workload/scenario and generation.
     */
    std::string error;
};

/** Seconds-per-unit at the 1x SLO for @p workload. */
double sloTargetSecondsPerUnit(models::Workload workload);

/** The 1x SLO of a registry-driven custom scenario (same rule). */
double sloTargetSecondsPerUnit(
    const std::shared_ptr<const models::ScenarioSpec> &spec);

/**
 * Search candidate setups (chip counts around Table 4, halved/doubled
 * batches) on @p gen; returns the most energy-efficient compliant
 * configuration, or the fastest one with its attained (relaxed) SLO
 * ratio if none complies — mirroring the "2x" labels in Fig. 2.
 *
 * The candidate evaluations fan out on @p pool (nullptr picks a
 * process-wide pool sized by REGATE_THREADS / hardware concurrency,
 * separate from the sweep runner's so a SweepRunner::search worker
 * can nest this call without deadlocking). Winner selection replays
 * the serial loop over the input-ordered results, so ties break
 * identically to findBestSetupSerial at any thread count.
 */
SloResult findBestSetup(models::Workload workload,
                        arch::NpuGeneration gen,
                        const arch::GatingParams &params = {},
                        ThreadPool *pool = nullptr);

/** Serial reference implementation (equivalence tests). */
SloResult findBestSetupSerial(models::Workload workload,
                              arch::NpuGeneration gen,
                              const arch::GatingParams &params = {});

/** findBestSetup for a registry-driven custom scenario. */
SloResult findBestSetup(
    std::shared_ptr<const models::ScenarioSpec> spec,
    arch::NpuGeneration gen, const arch::GatingParams &params = {},
    ThreadPool *pool = nullptr);

/** Serial reference implementation of the scenario search. */
SloResult findBestSetupSerial(
    std::shared_ptr<const models::ScenarioSpec> spec,
    arch::NpuGeneration gen, const arch::GatingParams &params = {});

/** Candidate setups the search explores (exposed for tests). */
std::vector<models::RunSetup> candidateSetups(models::Workload workload,
                                              arch::NpuGeneration gen);

/** Scenario-path candidates (around defaultScenarioSetup). */
std::vector<models::RunSetup> candidateSetups(
    const models::ScenarioSpec &spec, arch::NpuGeneration gen);

/**
 * The one candidate enumerator both paths share: chip counts around
 * @p base (1x/2x/4x), batches halved/quartered, parallelism re-split
 * by growing dp with the extra chips, dp > batch candidates skipped.
 */
std::vector<models::RunSetup> candidateSetupsFrom(
    const models::RunSetup &base);

}  // namespace sim
}  // namespace regate

#endif  // REGATE_SIM_SLO_H
