/**
 * @file
 * The workload engine: runs a compiled operator graph through the
 * per-operator simulator, composes whole-run activity timelines, and
 * evaluates the five §6.1 designs — NoPG, ReGate-Base, ReGate-HW,
 * ReGate-Full, Ideal — on the same execution.
 *
 * Policy -> mechanism mapping (§4):
 *   component | NoPG | Base        | HW          | Full        | Ideal
 *   SA        | none | HwDetect    | HwDetect+PE | HwDetect+PE | Ideal+PE
 *   VU        | none | HwDetect    | HwDetect    | SwExact     | Ideal
 *   HBM       | none | HwDetect    | HwDetect    | HwDetect    | Ideal
 *   ICI       | none | HwDetect    | HwDetect    | HwDetect    | Ideal
 *   SRAM      | none | sleep unused| sleep unused| off unused  | zero
 *   Other     | never gated (§3)
 */

#ifndef REGATE_SIM_ENGINE_H
#define REGATE_SIM_ENGINE_H

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "arch/gating_params.h"
#include "arch/npu_config.h"
#include "energy/energy_breakdown.h"
#include "energy/power_model.h"
#include "graph/graph.h"
#include "sim/operator_sim.h"

namespace regate {
namespace sim {

/** The five evaluated designs. */
enum class Policy { NoPG, Base, HW, Full, Ideal };

constexpr std::size_t kNumPolicies = 5;

/** All policies in paper order. */
const std::array<Policy, kNumPolicies> &allPolicies();

/** Printable name ("NoPG", "ReGate-Base", ...). */
std::string policyName(Policy p);

/**
 * Per-operator record kept for figure generation. A run's records
 * follow the compiled graph in block order: record i is the i-th
 * operator of graph.blocks[0].ops, graph.blocks[1].ops, ... in turn,
 * so an operator's name and kind are read from the graph.
 */
struct OpRecord
{
    std::uint64_t count = 0;   ///< Instances (block repeat).
    Cycles duration = 0;       ///< Cycles per instance.
    double sramDemandBytes = 0;
    double dynamicJ = 0;       ///< Dynamic energy per instance.
    double sramUsedFrac = 0;
    arch::ComponentMap<double> activeFrac;
};

/** Evaluation of one policy over one run (per chip, busy time). */
struct PolicyResult
{
    Policy policy = Policy::NoPG;
    Cycles overheadCycles = 0;   ///< Wake-up cycles added to runtime.
    double seconds = 0;          ///< Runtime including overhead.
    double perfOverhead = 0;     ///< Fractional slowdown vs NoPG.
    energy::EnergyBreakdown energy;  ///< Busy energy per chip.
    double avgPowerW = 0;
    double peakPowerW = 0;       ///< Most power-hungry operator.
    std::uint64_t vuGateEvents = 0;   ///< Gated VU intervals.
    std::uint64_t sramSetpmPairs = 0; ///< SRAM resize setpm pairs.
};

/** The policies whose evaluation reads the gating params. */
constexpr std::array<Policy, 3> kGatedPolicies = {Policy::Base, Policy::HW,
                                                  Policy::Full};

/** One result per kGatedPolicies entry, in its order. */
using GatedResults = std::array<PolicyResult, kGatedPolicies.size()>;

/** Fractional busy-energy saving of @p p relative to @p nopg. */
double savingVs(const PolicyResult &nopg, const PolicyResult &p);

/**
 * One workload execution and its policy results. Names of the graph
 * and its operators stay in the graph: opRecords[i] is its i-th
 * operator in block order. A slot never evaluated keeps policy NoPG.
 */
struct WorkloadRun
{
    Cycles cycles = 0;      ///< Base runtime (no gating overhead).
    double seconds = 0;
    arch::ComponentMap<core::ActivityTimeline> timeline;
    energy::WorkCounters work;
    sa::SaTileStats saStats;
    double sramUsedIntegral = 0;  ///< Sum over time of used fraction.
    /** One record per operator of the executed graph, in block order. */
    std::vector<OpRecord> opRecords;
    std::array<PolicyResult, kNumPolicies> policies;

    /** @p p's result; a LogicError if @p p was never evaluated. */
    const PolicyResult &result(Policy p) const;

    /** Fig. 4/6/8/9 metric. */
    double temporalUtil(arch::Component c) const;

    /** Fig. 5 metric. */
    double saSpatialUtil() const { return saStats.spatialUtilization(); }

    /** Fractional energy saving of @p p vs NoPG. */
    double savingVsNoPg(Policy p) const;
};

/**
 * A graph's execution: everything of a run that no GatingParams value
 * changes. `run` holds the timelines, the op records (one per graph
 * operator, in block order), work/SA/SRAM totals, ReGate-Full's SRAM
 * setpm pairs (in its otherwise unevaluated slot) and the NoPG and
 * Ideal results, which read no gating parameter (NoPG gates nothing,
 * Ideal gates every idle cycle for free: no overhead, leak factors
 * fixed at 1 and 0). Base/HW/Full stay unevaluated, so reading them off
 * `run` is a LogicError; `blocks` keeps what their wake-up overheads
 * are charged from. One execution can be evaluated under any number of
 * gating params (Engine::evaluateGated) without copying `run`, and
 * reports share `run` alone: the blocks die with the execution.
 */
struct Execution
{
    /** Usage window of one component inside a block. */
    struct Usage
    {
        Cycles start;
        Cycles end;
        arch::Component bottleneck;  ///< Bottleneck of the op using it.
    };

    /** One graph block, as the wake-up overhead model sees it. */
    struct Block
    {
        std::uint64_t repeat = 1;
        Cycles duration = 0;  ///< One instance.
        arch::ComponentMap<std::vector<Usage>> usage;
        /** VU activations of each SA-bound op that also used the VU. */
        std::vector<std::uint64_t> vuStallActivations;
    };

    WorkloadRun run;
    std::vector<Block> blocks;
};

/** The engine. */
class Engine
{
  public:
    Engine(const arch::NpuConfig &cfg,
           const arch::GatingParams &params = {});

    /**
     * Run a compiled graph on one chip of a @p pod_chips pod.
     * @p graph must already be compiled (fusion + tiling annotations).
     * Equal to evaluate(execute(graph, pod_chips)): every policy
     * evaluated.
     */
    WorkloadRun run(const graph::OperatorGraph &graph,
                    int pod_chips) const;

    /**
     * Simulate a compiled graph on one chip of a @p pod_chips pod and
     * evaluate NoPG and Ideal, without reading the gating params.
     */
    Execution execute(const graph::OperatorGraph &graph,
                      int pod_chips) const;

    /**
     * Charge the wake-up overheads of @p blocks and evaluate
     * ReGate-Base/HW/Full over @p run (an Execution's) under this
     * engine's gating params, leaving @p run as it is.
     */
    GatedResults evaluateGated(
        const WorkloadRun &run,
        const std::vector<Execution::Block> &blocks) const;

    /** @p ex's run with Base/HW/Full evaluated into it (Engine::run). */
    WorkloadRun evaluate(Execution ex) const;

    /** A no-op, kept only for its caller in perfbench/layer_trace.cc. */
    void setMemoization(bool) {}

    const energy::PowerModel &powerModel() const { return power_; }
    const arch::GatingParams &params() const { return params_; }
    const arch::NpuConfig &config() const { return cfg_; }

  private:
    /** Wake-up cycles each policy adds over the whole run. */
    std::array<Cycles, kNumPolicies> wakeOverheads(
        const std::vector<Execution::Block> &blocks) const;

    /**
     * Evaluate @p policy over @p run into @p res, adding @p overhead
     * wake-up cycles. Reads no policy result of @p run, so @p res may
     * be one of its slots.
     */
    void evaluatePolicy(const WorkloadRun &run, Policy policy,
                        Cycles overhead, PolicyResult &res) const;

    const arch::NpuConfig &cfg_;
    arch::GatingParams params_;
    energy::PowerModel power_;
};

}  // namespace sim
}  // namespace regate

#endif  // REGATE_SIM_ENGINE_H
