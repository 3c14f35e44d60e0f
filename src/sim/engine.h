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
#include <unordered_map>
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

/** Per-operator record kept for figure generation. */
struct OpRecord
{
    std::string name;
    graph::OpKind kind = graph::OpKind::Elementwise;
    std::uint64_t count = 0;   ///< Instances (block repeat).
    Cycles duration = 0;       ///< Cycles per instance.
    double sramDemandBytes = 0;
    double dynamicJ = 0;       ///< Dynamic energy per instance.
    double sramUsedFrac = 0;
    arch::ComponentMap<double> activeFrac;
};

/**
 * Struct-of-arrays storage for a run's per-operator records, with an
 * interned name table: one parallel vector per field plus a flattened
 * active-fraction matrix, and each distinct operator name stored once
 * (transformer blocks repeat the same few op names hundreds of
 * times). Figure loops touch one or two fields of every record, so
 * the arena is both cache-friendlier and far smaller than the
 * vector<OpRecord> it replaced.
 *
 * append() takes the familiar OpRecord value; seal() drops the
 * build-time interner and trims capacity once a run is complete.
 * Indexing and iteration yield lightweight Ref proxies with accessor
 * methods (rec.duration(), rec.name(), rec.activeFrac(c), ...).
 */
class OpRecordArena
{
  public:
    /** Cheap view of one record; valid while the arena lives. */
    class Ref
    {
      public:
        const std::string &
        name() const
        {
            return a_->names_[a_->nameId_[i_]];
        }
        graph::OpKind kind() const { return a_->kind_[i_]; }
        std::uint64_t count() const { return a_->count_[i_]; }
        Cycles duration() const { return a_->duration_[i_]; }
        double
        sramDemandBytes() const
        {
            return a_->sramDemandBytes_[i_];
        }
        double dynamicJ() const { return a_->dynamicJ_[i_]; }
        double sramUsedFrac() const { return a_->sramUsedFrac_[i_]; }
        double
        activeFrac(arch::Component c) const
        {
            return a_->activeFrac_[i_ * arch::kNumComponents +
                                   arch::componentIndex(c)];
        }

      private:
        friend class OpRecordArena;
        Ref(const OpRecordArena *a, std::size_t i) : a_(a), i_(i) {}
        const OpRecordArena *a_;
        std::size_t i_;
    };

    /** Forward iterator yielding Ref values (range-for support). */
    class Iterator
    {
      public:
        Ref operator*() const { return Ref(a_, i_); }
        Iterator &
        operator++()
        {
            ++i_;
            return *this;
        }
        bool
        operator==(const Iterator &o) const
        {
            return i_ == o.i_;
        }
        bool
        operator!=(const Iterator &o) const
        {
            return i_ != o.i_;
        }

      private:
        friend class OpRecordArena;
        Iterator(const OpRecordArena *a, std::size_t i) : a_(a), i_(i)
        {}
        const OpRecordArena *a_;
        std::size_t i_;
    };

    /** Append one record, interning its name. */
    void append(const OpRecord &rec);

    /** Pre-size every column for @p n records. */
    void reserve(std::size_t n);

    /**
     * Drop the build-time interner map and trim every column to its
     * size. Call once the run is complete; append() after seal()
     * stays correct but no longer dedups new names.
     */
    void seal();

    std::size_t size() const { return duration_.size(); }
    bool empty() const { return duration_.empty(); }
    Ref operator[](std::size_t i) const { return Ref(this, i); }
    Iterator begin() const { return Iterator(this, 0); }
    Iterator end() const { return Iterator(this, size()); }

  private:
    std::vector<std::uint32_t> nameId_;
    std::vector<graph::OpKind> kind_;
    std::vector<std::uint64_t> count_;
    std::vector<Cycles> duration_;
    std::vector<double> sramDemandBytes_;
    std::vector<double> dynamicJ_;
    std::vector<double> sramUsedFrac_;
    /** size() * kNumComponents, record-major. */
    std::vector<double> activeFrac_;
    std::vector<std::string> names_;  ///< Interned name table.
    std::unordered_map<std::string, std::uint32_t> interner_;
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

/** One workload execution with all policies evaluated. */
struct WorkloadRun
{
    std::string name;
    Cycles cycles = 0;      ///< Base runtime (no gating overhead).
    double seconds = 0;
    arch::ComponentMap<core::ActivityTimeline> timeline;
    energy::WorkCounters work;
    sa::SaTileStats saStats;
    double sramUsedIntegral = 0;  ///< Sum over time of used fraction.
    OpRecordArena opRecords;
    std::array<PolicyResult, kNumPolicies> policies;

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
 * changes. `run` holds the timelines, op records, work/SA/SRAM totals
 * and ReGate-Full's SRAM setpm pairs, with the policies unevaluated;
 * `blocks` keeps what the wake-up overheads are charged from. One
 * execution can be evaluated under any number of gating params.
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
     * Equal to evaluate(execute(graph, pod_chips)).
     */
    WorkloadRun run(const graph::OperatorGraph &graph,
                    int pod_chips) const;

    /**
     * Simulate a compiled graph on one chip of a @p pod_chips pod
     * without reading the gating params.
     */
    Execution execute(const graph::OperatorGraph &graph,
                      int pod_chips) const;

    /**
     * Charge the wake-up overheads and evaluate every policy under
     * this engine's gating params. The rvalue overload moves the run
     * out of @p ex instead of copying it.
     */
    WorkloadRun evaluate(const Execution &ex) const;
    WorkloadRun evaluate(Execution &&ex) const;

    /** A no-op, kept only for its caller in perfbench/layer_trace.cc. */
    void setMemoization(bool) {}

    const energy::PowerModel &powerModel() const { return power_; }
    const arch::GatingParams &params() const { return params_; }
    const arch::NpuConfig &config() const { return cfg_; }

  private:
    /** Wake-up cycles each policy adds over the whole run. */
    std::array<Cycles, kNumPolicies> wakeOverheads(
        const std::vector<Execution::Block> &blocks) const;

    void evaluatePolicy(WorkloadRun &run, Policy policy,
                        const std::array<Cycles, kNumPolicies>
                            &overheads) const;

    const arch::NpuConfig &cfg_;
    arch::GatingParams params_;
    energy::PowerModel power_;
};

}  // namespace sim
}  // namespace regate

#endif  // REGATE_SIM_ENGINE_H
