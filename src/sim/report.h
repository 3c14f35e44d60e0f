/**
 * @file
 * High-level facade: simulate one scenario (a built-in paper row or a
 * user spec) on one NPU generation and expose the quantities the
 * figures need, including the duty-cycle/PUE accounting of §3 (60%
 * duty cycle [84], PUE 1.1 [32]) and the per-policy idle power of a
 * powered-on but jobless chip. Every call builds, compiles and runs
 * its graph from scratch; nothing is kept between calls. executeCase
 * and makeReport are the two halves of one simulation, for a caller
 * that evaluates one execution under several gating params
 * (SweepRunner::run).
 */

#ifndef REGATE_SIM_REPORT_H
#define REGATE_SIM_REPORT_H

#include <memory>

#include "arch/gating_params.h"
#include "models/workload.h"
#include "sim/engine.h"

namespace regate {
namespace sim {

/** Datacenter accounting constants (§3). */
struct FleetParams
{
    double dutyCycle = 0.6;  ///< Fraction of wall time running jobs.
    double pue = 1.1;        ///< Power usage efficiency.
};

/** One simulated scenario on one generation. */
struct WorkloadReport
{
    /**
     * The simulated scenario; set on every simulated report. Shared,
     * immutable — a report copy is still a pointer bump.
     */
    std::shared_ptr<const models::ScenarioSpec> scenario;

    /** Label set only by the simulateWorkload forward; never read. */
    models::Workload workload{};
    arch::NpuGeneration gen{};
    models::RunSetup setup;
    double units = 0;  ///< Work units per run (tokens, images, ...).

    /**
     * The simulated run. Copies of a report share one immutable run
     * (SLO searches and sweeps copy reports freely). A
     * default-constructed report reads as an empty run.
     */
    const WorkloadRun &run() const;

    /** Busy energy per run across the whole pod, joules. */
    double podBusyEnergy(Policy p) const;

    /**
     * Total energy per run including the idle portion implied by the
     * duty cycle and the PUE multiplier (the Fig. 2 metric).
     */
    double podTotalEnergy(Policy p, const FleetParams &fleet = {}) const;

    /** Energy per work unit (J/iter, J/token, ...), Fig. 2. */
    double energyPerUnit(Policy p, const FleetParams &fleet = {}) const;

    /** Wall-clock idle seconds implied by the duty cycle. */
    double idleSeconds(Policy p, const FleetParams &fleet = {}) const;

    /** Per-chip idle power of a powered-on, jobless chip, watts. */
    double idlePowerW(Policy p) const;

    /** Idle energy share of total (the Fig. 3 "Idle" bar). */
    double idleShare(Policy p, const FleetParams &fleet = {}) const;

    const arch::NpuConfig &config() const;

    /** The gating params this report was simulated under. */
    const arch::GatingParams &gatingParams() const { return params_; }

  private:
    friend WorkloadReport makeReport(
        std::shared_ptr<const models::ScenarioSpec>, arch::NpuGeneration,
        const models::RunSetup &, const arch::GatingParams &,
        WorkloadRun);
    std::shared_ptr<const WorkloadRun> run_;
    arch::GatingParams params_;
};

/**
 * Build, compile, and simulate @p spec on @p gen, with
 * defaultScenarioSetup unless @p setup_override is given. @p spec must
 * be a validated spec (parseSpecText/validateScenario have run, or a
 * models::builtinScenario row).
 */
WorkloadReport simulateScenario(
    std::shared_ptr<const models::ScenarioSpec> spec,
    arch::NpuGeneration gen, const arch::GatingParams &params = {},
    const models::RunSetup *setup_override = nullptr);

/**
 * Build and compile the graph of @p spec with @p setup for @p gen, and
 * execute it: the part of a simulation that no gating parameter
 * changes.
 */
Execution executeCase(const models::ScenarioSpec &spec,
                      arch::NpuGeneration gen,
                      const models::RunSetup &setup);

/** The report of @p spec whose @p run was evaluated under @p params. */
WorkloadReport makeReport(std::shared_ptr<const models::ScenarioSpec> spec,
                          arch::NpuGeneration gen,
                          const models::RunSetup &setup,
                          const arch::GatingParams &params,
                          WorkloadRun run);

/** Idle power of a jobless chip under a policy (used by Fig. 24). */
double idleStaticPower(const energy::PowerModel &power,
                       const arch::GatingParams &params, Policy policy);

// Kept only because perfbench/layer_trace.cc calls them; they go when
// that tracer becomes a driver over library spans (ROADMAP, "One
// benchmark").

/** A no-op. */
void clearSharedCaches();

/** simulateScenario of models::builtinScenario(@p workload), labeled. */
WorkloadReport simulateWorkload(models::Workload workload,
                                arch::NpuGeneration gen,
                                const arch::GatingParams &params = {},
                                const models::RunSetup *setup_override =
                                    nullptr);

}  // namespace sim
}  // namespace regate

#endif  // REGATE_SIM_REPORT_H
