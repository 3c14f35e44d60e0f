/**
 * @file
 * In-order VLIW NPU core timing model with power-state structural
 * hazards (§4.1 "Power state management in NPU core pipeline"). The
 * core has SAs and VUs; it is the cycle-level reference for how the
 * engine (sim::Engine) gates them.
 *
 * The core issues one bundle per cycle unless a required functional
 * unit is busy, powering off, or waking up. A power-gated unit is
 * simply "not ready": dispatching an operation to it triggers a
 * wake-up and the bundle stalls until the wake completes. setpm in the
 * misc slot changes SA/VU power modes; `setpm ... on` wakes units
 * ahead of their next use so no stall is exposed (the Fig. 15
 * pattern). SRAM and DMA setpm are encodable (isa/instruction.h) but
 * not executed here: sim::Engine charges SRAM capacity gating, and
 * HBM/DMA gating is hardware-managed.
 *
 * Optionally the core emulates the hardware auto-gating policy: a unit
 * in `auto` mode that stays idle for the detection window is gated,
 * and the next operation pays the exposed wake-up delay (ReGate-Base
 * behaviour on VUs/SAs). cross_validation_test checks this mode
 * against the engine's HwDetect gating.
 */

#ifndef REGATE_ISA_VLIW_CORE_H
#define REGATE_ISA_VLIW_CORE_H

#include <cstdint>
#include <vector>

#include "arch/gating_params.h"
#include "core/activity.h"
#include "core/interval.h"
#include "isa/program.h"

namespace regate {
namespace isa {

/** Core configuration. */
struct VliwCoreConfig
{
    int numSa = 2;
    int numVu = 2;

    /** Full-SA on/off delay (Table 3). */
    Cycles saWakeDelay =
        arch::GatingParams{}.onOffDelay(arch::GatedUnit::SaFull);
    /** VU on/off delay (Table 3). */
    Cycles vuWakeDelay =
        arch::GatingParams{}.onOffDelay(arch::GatedUnit::Vu);

    /** Emulate hardware idle-detection on auto-mode units. */
    bool autoIdleDetect = false;
    /** BET(SA full)/3, the hardware detection window (§6.1). */
    Cycles saIdleWindow =
        arch::GatingParams{}.detectionWindow(arch::GatedUnit::SaFull);
    /** BET(VU)/3, the hardware detection window (§6.1). */
    Cycles vuIdleWindow =
        arch::GatingParams{}.detectionWindow(arch::GatedUnit::Vu);
};

/** Per-unit results after a run. */
struct UnitTrace
{
    std::vector<core::Interval> busy;   ///< Dispatch occupancy.
    std::vector<std::size_t> busyBundle;///< Bundle index per interval.
    std::vector<core::Interval> gated;  ///< Fully-off intervals.
    std::uint64_t wakeEvents = 0;       ///< Wake-ups triggered.
    Cycles gatedCycles() const;
};

/** The core model. */
class VliwCore
{
  public:
    explicit VliwCore(const VliwCoreConfig &cfg);

    /** Execute @p program to completion; can be called once. */
    void run(const Program &program);

    /** Total execution cycles. */
    Cycles totalCycles() const { return totalCycles_; }

    const UnitTrace &vuTrace(int unit) const;

    /** setpm instructions executed. */
    std::uint64_t setpmExecuted() const { return setpmExecuted_; }

    /** Dispatch cycle of each bundle, in program order. */
    const std::vector<Cycles> &
    bundleDispatch() const
    {
        return bundleDispatch_;
    }

    /** Cycles bundles spent stalled on wake-ups. */
    Cycles wakeStallCycles() const { return wakeStallCycles_; }

    /** Activity timeline of a unit over the whole run. */
    core::ActivityTimeline vuActivity(int unit) const;
    core::ActivityTimeline saActivity(int unit) const;

  private:
    struct Unit
    {
        Cycles busyUntil = 0;
        Cycles lastBusyEnd = 0;
        PowerMode mode = PowerMode::Auto;
        bool gatedNow = false;
        Cycles gateStart = 0;
        Cycles wakeDelay = 0;
        Cycles idleWindow = 0;
        UnitTrace trace;
    };

    Unit &unitFor(const SlotOp &op);
    void applySetpm(const SetpmInstr &instr, Cycles now);

    /**
     * Resolve readiness of @p unit for an op arriving at @p t,
     * triggering wakes / lazy auto-gating; returns the cycle the unit
     * becomes usable.
     */
    Cycles resolveReady(Unit &unit, Cycles t);

    VliwCoreConfig cfg_;
    std::vector<Unit> sa_, vu_;
    std::vector<Cycles> bundleDispatch_;
    Cycles nextIssue_ = 0;
    Cycles totalCycles_ = 0;
    Cycles wakeStallCycles_ = 0;
    std::uint64_t setpmExecuted_ = 0;
    bool ran_ = false;
};

}  // namespace isa
}  // namespace regate

#endif  // REGATE_ISA_VLIW_CORE_H
