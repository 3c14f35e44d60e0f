#include "compiler/instrument.h"

#include "common/error.h"
#include "core/bet.h"

namespace regate {
namespace compiler {

namespace {

/**
 * Try to merge a setpm for VU @p unit with mode @p mode into
 * @p bundle's misc slot. Succeeds if the slot is empty or already
 * holds a compatible VU setpm (same mode).
 */
bool
mergeSetpm(isa::Bundle &bundle, int unit, isa::PowerMode mode)
{
    std::uint8_t bit = static_cast<std::uint8_t>(1u << unit);
    if (!bundle.misc.has_value()) {
        isa::SetpmInstr instr;
        instr.fuType = isa::FuType::Vu;
        instr.mode = mode;
        instr.bitmap = bit;
        instr.immediate = true;
        bundle.misc = instr;
        return true;
    }
    auto &misc = *bundle.misc;
    if (misc.fuType != isa::FuType::Vu || misc.mode != mode ||
        !misc.immediate) {
        return false;
    }
    misc.bitmap |= bit;
    return true;
}

}  // namespace

InstrumentStats
instrumentVuGating(isa::Program &program,
                   const IdlenessAnalysis &analysis,
                   const arch::GatingParams &params)
{
    InstrumentStats stats;
    const Cycles bet = params.breakEven(arch::GatedUnit::Vu);
    const Cycles delay = params.onOffDelay(arch::GatedUnit::Vu);

    // Program mutation below only touches misc slots, so the dispatch
    // times from the dry run remain valid while we plan.
    auto &bundles =
        const_cast<std::vector<isa::Bundle> &>(program.bundles());
    REGATE_ASSERT(analysis.bundleDispatch.size() == bundles.size(),
                  "analysis does not match program");

    for (const auto &idle : analysis.vuIdle) {
        Cycles len = idle.interval.length();
        if (!core::shouldGateSw(len, bet, delay))
            continue;
        REGATE_CHECK(idle.unit < 8, "bitmap setpm addresses 8 units");

        // Latest bundle whose dispatch leaves the full wake delay
        // before the next use.
        Cycles wake_by = idle.interval.end - delay;
        std::size_t on_bundle = idle.lastUseBundle;
        for (std::size_t b = idle.lastUseBundle + 1;
             b < idle.nextUseBundle; ++b) {
            if (analysis.bundleDispatch[b] <= wake_by)
                on_bundle = b;
        }
        if (on_bundle == idle.lastUseBundle)
            continue;  // No room to wake without stalling.

        if (!mergeSetpm(bundles[idle.lastUseBundle], idle.unit,
                        isa::PowerMode::Off)) {
            continue;
        }
        if (!mergeSetpm(bundles[on_bundle], idle.unit,
                        isa::PowerMode::On)) {
            // Roll back the off-bitmap bit we just set.
            auto &misc = bundles[idle.lastUseBundle].misc;
            misc->bitmap &=
                static_cast<std::uint8_t>(~(1u << idle.unit));
            if (misc->bitmap == 0)
                misc.reset();
            continue;
        }
        ++stats.gatedIntervals;
        stats.gatedCycles += len;
    }

    stats.setpmInserted = program.setpmCount();
    return stats;
}

}  // namespace compiler
}  // namespace regate
