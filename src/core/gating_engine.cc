#include "core/gating_engine.h"

#include "common/error.h"
#include "core/bet.h"

namespace regate {
namespace core {

GatingResult
evaluateTimeline(const ActivityTimeline &timeline, const UnitSpec &spec,
                 GatingMode mode, const arch::GatingParams &params)
{
    REGATE_CHECK(spec.staticPower >= 0 && spec.cycleTime > 0,
                 "bad unit spec for ", arch::gatedUnitName(spec.kind));

    const double p = spec.staticPower;
    const double tau = spec.cycleTime;
    const double leak = params.gatedLeakage(spec.kind);
    const Cycles delay = params.onOffDelay(spec.kind);
    const Cycles bet = params.breakEven(spec.kind);
    const Cycles window = params.detectionWindow(spec.kind);

    GatingResult r;
    r.span = timeline.span();
    r.activeCycles = timeline.activeCycles();
    r.staticEnergyNoPg = p * tau * static_cast<double>(r.span);

    // Active cycles always burn full static power.
    double energy = p * tau * static_cast<double>(r.activeCycles);

    const double e_tr =
        transitionEnergy(p, bet, delay, leak, tau);

    for (const auto &gap : timeline.gaps()) {
        const Cycles len = gap.length;
        const double n = static_cast<double>(gap.count);
        const double full_gap_j = p * tau * static_cast<double>(len);

        switch (mode) {
          case GatingMode::None:
            energy += n * full_gap_j;
            continue;

          case GatingMode::Ideal:
            // Every idle cycle gated at zero leakage, free transitions.
            r.gatedCycles += len * gap.count;
            continue;

          case GatingMode::SwExact: {
            if (!shouldGateSw(len, bet, delay)) {
                energy += n * full_gap_j;
                continue;
            }
            // Both transitions fit inside the interval (2 * delay at
            // full power), the remainder is gated at residual leakage,
            // and the compiler pre-wakes so nothing is exposed.
            const Cycles gated = len - 2 * delay;
            energy += n * (p * tau * static_cast<double>(2 * delay) +
                           leak * p * tau * static_cast<double>(gated) +
                           e_tr);
            r.transitionEnergy += n * e_tr;
            r.gatedCycles += gated * gap.count;
            r.gateEvents += gap.count;
            continue;
          }

          case GatingMode::HwDetect: {
            if (!wouldGateHw(len, window)) {
                energy += n * full_gap_j;
                continue;
            }
            // The detection window is wasted at full power and the
            // rest of the interval is gated. The next access eats the
            // wake-up delay as a runtime stall, which
            // sim::Engine::wakeOverheads charges.
            const Cycles gated = len - window;
            energy += n * (p * tau * static_cast<double>(window) +
                           leak * p * tau * static_cast<double>(gated) +
                           e_tr);
            r.transitionEnergy += n * e_tr;
            r.gatedCycles += gated * gap.count;
            r.gateEvents += gap.count;
            continue;
          }
        }
        throw LogicError("unreachable gating mode");
    }

    r.staticEnergy = energy;
    return r;
}

}  // namespace core
}  // namespace regate
