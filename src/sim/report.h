/**
 * @file
 * High-level facade: simulate one of the paper's workloads on one NPU
 * generation and expose the quantities the figures need, including
 * the duty-cycle/PUE accounting of §3 (60% duty cycle [84], PUE 1.1
 * [32]) and the per-policy idle power of a powered-on but jobless
 * chip. Every call builds, compiles and runs its graph from scratch;
 * nothing is kept between calls.
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

/** One simulated workload on one generation. */
struct WorkloadReport
{
    models::Workload workload{};
    arch::NpuGeneration gen{};
    models::RunSetup setup;
    double units = 0;  ///< Work units per run (tokens, images, ...).

    /**
     * Custom-scenario identity: null on the enum workload path (and
     * `workload` is authoritative); set when the report came from
     * simulateScenario over a registry-driven ScenarioSpec (and
     * `workload` is a meaningless default). Shared, immutable — a
     * report copy is still a pointer bump.
     */
    std::shared_ptr<const models::ScenarioSpec> scenario;

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
    friend WorkloadReport simulateWorkload(models::Workload,
                                           arch::NpuGeneration,
                                           const arch::GatingParams &,
                                           const models::RunSetup *);
    friend WorkloadReport simulateScenario(
        std::shared_ptr<const models::ScenarioSpec>,
        arch::NpuGeneration, const arch::GatingParams &,
        const models::RunSetup *);
    std::shared_ptr<const WorkloadRun> run_;
    arch::GatingParams params_;
};

/**
 * Build, compile, and simulate @p workload on @p gen. Uses
 * defaultSetup unless @p setup_override is given.
 */
WorkloadReport simulateWorkload(models::Workload workload,
                                arch::NpuGeneration gen,
                                const arch::GatingParams &params = {},
                                const models::RunSetup *setup_override =
                                    nullptr);

/**
 * simulateWorkload for a registry-driven custom scenario: build,
 * compile, and simulate @p spec on @p gen, with defaultScenarioSetup
 * unless @p setup_override is given. @p spec must be a validated spec
 * (parseSpecText/validateScenario have run).
 */
WorkloadReport simulateScenario(
    std::shared_ptr<const models::ScenarioSpec> spec,
    arch::NpuGeneration gen, const arch::GatingParams &params = {},
    const models::RunSetup *setup_override = nullptr);

/** Idle power of a jobless chip under a policy (used by Fig. 24). */
double idleStaticPower(const energy::PowerModel &power,
                       const arch::GatingParams &params, Policy policy);

/** A no-op, kept only for its caller in perfbench/layer_trace.cc. */
void clearSharedCaches();

}  // namespace sim
}  // namespace regate

#endif  // REGATE_SIM_REPORT_H
