/**
 * @file
 * Per-operator tile-level simulation (§4.4): derives each component's
 * active time, activity burst shape, and work counters for one tensor
 * operator on one chip. Operator latency is the max over overlapped
 * components (the compiler double-buffers DMA against compute).
 *
 * A gated unit's activity inside an operator is recorded as a burst
 * shape (core::ActivityTimeline::fromBursts), not a built timeline:
 * the engine composes shapes straight into its block timelines with
 * appendBursts, and OpExecution::timeline builds a unit's timeline
 * only when someone asks for it.
 */

#ifndef REGATE_SIM_OPERATOR_SIM_H
#define REGATE_SIM_OPERATOR_SIM_H

#include <cstdint>

#include "arch/component.h"
#include "arch/npu_config.h"
#include "core/activity.h"
#include "energy/power_model.h"
#include "graph/operator.h"
#include "ici/collective.h"
#include "mem/hbm.h"
#include "sa/sa_analytical.h"

namespace regate {
namespace sim {

/**
 * Burst shapes of the gated units (SA/VU/HBM/ICI) over one operator:
 * unit c is active for about active[c] of span cycles in about
 * bursts[c] bursts. SRAM is capacity-based and has no shape.
 */
struct OpBursts
{
    Cycles span = 0;
    arch::ComponentMap<Cycles> active;
    arch::ComponentMap<std::uint64_t> bursts;

    /** Unit @p c's timeline over the operator; empty for SRAM/Other. */
    core::ActivityTimeline operator[](arch::Component c) const;
};

/** Result of simulating one operator instance. */
struct OpExecution
{
    Cycles duration = 0;                  ///< Operator latency, cycles.
    arch::Component bottleneck = arch::Component::Other;

    /** Active cycles per component within the operator. */
    arch::ComponentMap<Cycles> active;

    /** Activity of SA/VU/HBM/ICI; timeline[c] builds one timeline. */
    OpBursts timeline;

    /** Dynamic-energy work counters. */
    energy::WorkCounters work;

    /** PE-granularity SA stats (zero for non-SA ops). */
    sa::SaTileStats saStats;

    /** SRAM bytes actually occupied during the op (capped demand). */
    double sramUsedBytes = 0;

    /** Fraction of the op during which component @p c is active. */
    double activeFraction(arch::Component c) const;
};

/** The per-operator simulator. */
class OperatorSimulator
{
  public:
    /**
     * @param cfg   Chip generation.
     * @param coll  Collective model for the pod this chip is part of.
     */
    OperatorSimulator(const arch::NpuConfig &cfg,
                      const ici::CollectiveModel &coll);

    /**
     * Simulate one (compiled) operator. A cycle or MAC count past 64
     * bits is an OverflowError that names the operator.
     */
    OpExecution simulate(const graph::Operator &op) const;

  private:
    const arch::NpuConfig &cfg_;
    const ici::CollectiveModel &coll_;
    mem::HbmModel hbm_;
};

}  // namespace sim
}  // namespace regate

#endif  // REGATE_SIM_OPERATOR_SIM_H
