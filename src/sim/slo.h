/**
 * @file
 * SLO-compliant configuration search (§3, Table 4): for each scenario
 * and NPU generation, find the most energy-efficient pod
 * configuration whose per-unit latency (or training throughput) meets
 * the SLO. The 1x SLO is defined as 5x the latency (1/5 the
 * throughput) of the default batch on the minimum NPU-D pod [78].
 */

#ifndef REGATE_SIM_SLO_H
#define REGATE_SIM_SLO_H

#include <string>
#include <vector>

#include "sim/report.h"

namespace regate {
namespace sim {

struct SweepCase;

/** Outcome of the search for one (scenario, generation). */
struct SloResult
{
    models::RunSetup setup;
    double secondsPerUnit = 0;   ///< Achieved latency per work unit.
    double energyPerUnit = 0;    ///< NoPG J/unit (Fig. 2 metric).
    double sloRatio = 1;         ///< Attained SLO multiple (1 = meets
                                 ///< 1x; 2 = needed 2x relaxation).
    WorkloadReport report;       ///< The winning simulation.

    /**
     * Set when searchSameIdentity (SweepRunner::search) could not
     * search this case (for example, no candidate setup fits); the
     * other fields are then unset except the report's scenario and
     * generation.
     */
    std::string error;
};

/** Seconds per work unit at the 1x SLO of @p spec. */
double sloTargetSecondsPerUnit(
    const std::shared_ptr<const models::ScenarioSpec> &spec);

/**
 * Search candidate setups (chip counts around the spec's default
 * setup, halved/quartered batches) on @p gen; returns the most
 * energy-efficient compliant configuration, or the fastest one with
 * its attained (relaxed) SLO ratio if none complies — mirroring the
 * "2x" labels in Fig. 2. searchSameIdentity's steps for the one case;
 * a failed search throws its ConfigError instead of recording it.
 */
SloResult findBestSetup(
    std::shared_ptr<const models::ScenarioSpec> spec,
    arch::NpuGeneration gen, const arch::GatingParams &params = {});

/**
 * Serial reference implementation (equivalence tests): simulates the
 * SLO anchor and every candidate from scratch under @p params.
 */
SloResult findBestSetupSerial(
    std::shared_ptr<const models::ScenarioSpec> spec,
    arch::NpuGeneration gen, const arch::GatingParams &params = {});

/**
 * The SLO search behind findBestSetup and SweepRunner::search, over
 * @p cases that share one scenario identity (specs equal but for
 * their name and gating overrides) on any generations under any
 * gating params; results are index-aligned with @p cases, and each
 * case's setup override is ignored.
 *
 * The NPU-D default setup is executed once: its NoPG latency is the
 * 1x target, and the same execution is NPU-D's base candidate. Each
 * generation's candidates are executed once, in order, for all the
 * cases on that generation, keeping only the running best and fastest
 * execution; the selection reads only NoPG, which no gating parameter
 * changes. ReGate-Base/HW/Full are evaluated on each case's winner
 * alone, under that case's params; the cases that share a winner
 * share its run (WorkloadReport::execution()). The results are
 * bitwise those of findBestSetupSerial. A ConfigError is recorded in
 * SloResult::error of every case it stops: the anchor's stops them
 * all, a generation's stops that generation's cases.
 */
std::vector<SloResult> searchSameIdentity(
    const std::vector<const SweepCase *> &cases);

/**
 * Candidate setups the search explores: chip counts around @p spec's
 * default setup on @p gen (1x/2x/4x), batches halved/quartered,
 * parallelism re-split by growing dp with the extra chips, dp > batch
 * candidates skipped.
 */
std::vector<models::RunSetup> candidateSetups(
    const models::ScenarioSpec &spec, arch::NpuGeneration gen);

// Workload-keyed forwards through models::builtinScenario, kept only
// because perfbench/layer_trace.cc calls them. They go when that
// tracer becomes a driver over library spans (ROADMAP, "One
// benchmark").
SloResult findBestSetup(models::Workload workload,
                        arch::NpuGeneration gen,
                        const arch::GatingParams &params = {});
SloResult findBestSetupSerial(models::Workload workload,
                              arch::NpuGeneration gen,
                              const arch::GatingParams &params = {});
std::vector<models::RunSetup> candidateSetups(models::Workload workload,
                                              arch::NpuGeneration gen);

}  // namespace sim
}  // namespace regate

#endif  // REGATE_SIM_SLO_H
