#include "isa/vliw_core.h"

#include <algorithm>

#include "common/error.h"

namespace regate {
namespace isa {

Cycles
UnitTrace::gatedCycles() const
{
    Cycles total = 0;
    for (const auto &iv : gated)
        total += iv.length();
    return total;
}

VliwCore::VliwCore(const VliwCoreConfig &cfg)
    : cfg_(cfg)
{
    REGATE_CHECK(cfg.numSa > 0 && cfg.numVu > 0,
                 "core needs at least one of each unit class");
    auto make = [](int n, Cycles wake, Cycles window) {
        std::vector<Unit> v(n);
        for (auto &u : v) {
            u.wakeDelay = wake;
            u.idleWindow = window;
        }
        return v;
    };
    sa_ = make(cfg.numSa, cfg.saWakeDelay, cfg.saIdleWindow);
    vu_ = make(cfg.numVu, cfg.vuWakeDelay, cfg.vuIdleWindow);
}

VliwCore::Unit &
VliwCore::unitFor(const SlotOp &op)
{
    switch (op.kind) {
      case SlotOp::Kind::SaPop:
        REGATE_CHECK(op.unit >= 0 && op.unit < cfg_.numSa,
                     "SA index ", op.unit, " out of range");
        return sa_[op.unit];
      case SlotOp::Kind::VuOp:
        REGATE_CHECK(op.unit >= 0 && op.unit < cfg_.numVu,
                     "VU index ", op.unit, " out of range");
        return vu_[op.unit];
    }
    throw LogicError("unknown SlotOp kind");
}

Cycles
VliwCore::resolveReady(Unit &unit, Cycles t)
{
    Cycles avail = std::max(t, unit.busyUntil);

    // Lazy hardware idle-detection: if the unit sat idle in auto mode
    // long enough, the FSM gated it at lastBusyEnd + window and this
    // op now pays the wake-up.
    if (!unit.gatedNow && cfg_.autoIdleDetect &&
        unit.mode == PowerMode::Auto &&
        avail >= unit.lastBusyEnd + unit.idleWindow &&
        avail > unit.lastBusyEnd) {
        unit.gatedNow = true;
        unit.gateStart = unit.lastBusyEnd + unit.idleWindow +
                         unit.wakeDelay;  // power-off transition
    }

    if (unit.gatedNow) {
        // The op triggers the wake at `avail`.
        if (unit.gateStart < avail)
            unit.trace.gated.push_back({unit.gateStart, avail});
        unit.gatedNow = false;
        ++unit.trace.wakeEvents;
        avail += unit.wakeDelay;
    }
    return avail;
}

void
VliwCore::applySetpm(const SetpmInstr &instr, Cycles now)
{
    ++setpmExecuted_;
    REGATE_CHECK(instr.fuType == FuType::Sa ||
                     instr.fuType == FuType::Vu,
                 "the core model executes SA/VU setpm only, got ",
                 instr.toString(), ": SRAM capacity gating is charged "
                 "by sim::Engine, and HBM/DMA gating is "
                 "hardware-managed");

    std::vector<Unit> *units = instr.fuType == FuType::Sa ? &sa_ : &vu_;

    for (std::size_t i = 0; i < units->size() && i < 8; ++i) {
        if (!((instr.bitmap >> i) & 1))
            continue;
        Unit &u = (*units)[i];
        switch (instr.mode) {
          case PowerMode::Off:
            if (!u.gatedNow) {
                u.gatedNow = true;
                // Powering off starts once the unit drains and takes
                // one on/off delay before leakage actually stops.
                u.gateStart = std::max(now, u.busyUntil) + u.wakeDelay;
            }
            u.mode = PowerMode::Off;
            break;
          case PowerMode::On:
            if (u.gatedNow) {
                if (u.gateStart < now)
                    u.trace.gated.push_back({u.gateStart, now});
                u.gatedNow = false;
                ++u.trace.wakeEvents;
                u.busyUntil = std::max(u.busyUntil, now + u.wakeDelay);
            }
            u.mode = PowerMode::On;
            break;
          case PowerMode::Auto:
            u.mode = PowerMode::Auto;
            break;
          case PowerMode::Sleep:
            throw ConfigError("sleep mode is SRAM-only");
        }
    }
}

void
VliwCore::run(const Program &program)
{
    REGATE_CHECK(!ran_, "VliwCore::run can only be called once");
    ran_ = true;

    for (std::size_t bi = 0; bi < program.bundles().size(); ++bi) {
        const auto &bundle = program.bundles()[bi];
        // Dispatch when every required unit is ready; gated units are
        // structural hazards whose wake this dispatch triggers.
        Cycles t = nextIssue_;
        for (const auto &op : bundle.ops)
            t = std::max(t, unitFor(op).busyUntil);
        Cycles dispatch = t;
        for (const auto &op : bundle.ops)
            dispatch = std::max(dispatch, resolveReady(unitFor(op), t));
        wakeStallCycles_ += dispatch - t;
        bundleDispatch_.push_back(dispatch);

        for (const auto &op : bundle.ops) {
            Unit &u = unitFor(op);
            Cycles end = dispatch + op.cycles;
            u.trace.busy.push_back({dispatch, end});
            u.trace.busyBundle.push_back(bi);
            u.busyUntil = end;
            u.lastBusyEnd = end;
        }
        if (bundle.misc.has_value())
            applySetpm(*bundle.misc, dispatch);

        nextIssue_ = dispatch + std::max<Cycles>(1, bundle.nopCycles);
        totalCycles_ = std::max(totalCycles_, nextIssue_);
        for (const auto &op : bundle.ops)
            totalCycles_ =
                std::max(totalCycles_, unitFor(op).busyUntil);
    }

    // Close any still-open gated intervals at end of execution.
    auto close = [this](std::vector<Unit> &units) {
        for (auto &u : units) {
            if (u.gatedNow && u.gateStart < totalCycles_) {
                u.trace.gated.push_back({u.gateStart, totalCycles_});
                u.gatedNow = false;
            }
        }
    };
    close(sa_);
    close(vu_);
}

const UnitTrace &
VliwCore::vuTrace(int unit) const
{
    REGATE_CHECK(unit >= 0 && unit < cfg_.numVu, "bad VU index");
    return vu_[unit].trace;
}

core::ActivityTimeline
VliwCore::vuActivity(int unit) const
{
    return core::ActivityTimeline::fromIntervals(totalCycles_,
                                                 vuTrace(unit).busy);
}

core::ActivityTimeline
VliwCore::saActivity(int unit) const
{
    REGATE_CHECK(unit >= 0 && unit < cfg_.numSa, "bad SA index");
    return core::ActivityTimeline::fromIntervals(totalCycles_,
                                                 sa_[unit].trace.busy);
}

}  // namespace isa
}  // namespace regate
