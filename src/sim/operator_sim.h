/**
 * @file
 * Per-operator tile-level simulation (§4.4): derives each component's
 * active time, activity timeline, and work counters for one tensor
 * operator on one chip. Operator latency is the max over overlapped
 * components (the compiler double-buffers DMA against compute).
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

/** Result of simulating one operator instance. */
struct OpExecution
{
    Cycles duration = 0;                  ///< Operator latency, cycles.
    arch::Component bottleneck = arch::Component::Other;

    /** Active cycles per component within the operator. */
    arch::ComponentMap<Cycles> active;

    /** Activity timelines (SA/VU/HBM/ICI; SRAM is capacity-based). */
    arch::ComponentMap<core::ActivityTimeline> timeline;

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

    /** Simulate one (compiled) operator. */
    OpExecution simulate(const graph::Operator &op) const;

  private:
    const arch::NpuConfig &cfg_;
    const ici::CollectiveModel &coll_;
    mem::HbmModel hbm_;
};

}  // namespace sim
}  // namespace regate

#endif  // REGATE_SIM_OPERATOR_SIM_H
