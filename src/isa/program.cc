#include "isa/program.h"

#include "common/error.h"

namespace regate {
namespace isa {

Program::BundleBuilder &
Program::BundleBuilder::saPop(int unit, Cycles cycles)
{
    b_.ops.push_back({SlotOp::Kind::SaPop, unit, cycles});
    return *this;
}

Program::BundleBuilder &
Program::BundleBuilder::vuOp(int unit, Cycles cycles)
{
    b_.ops.push_back({SlotOp::Kind::VuOp, unit, cycles});
    return *this;
}

Program::BundleBuilder &
Program::BundleBuilder::setpm(std::uint8_t bitmap, FuType type,
                              PowerMode mode)
{
    REGATE_CHECK(!b_.misc.has_value(),
                 "bundle already has a misc-slot instruction; only one "
                 "setpm can issue per cycle (§4.2)");
    SetpmInstr instr;
    instr.fuType = type;
    instr.mode = mode;
    instr.bitmap = bitmap;
    instr.immediate = true;
    // Round-trip through the encoder to validate the instruction.
    b_.misc = decodeSetpm(encodeSetpm(instr));
    return *this;
}

Program::BundleBuilder &
Program::BundleBuilder::setpmSram(std::uint8_t start_reg,
                                  std::uint8_t end_reg,
                                  PowerMode mode)
{
    REGATE_CHECK(!b_.misc.has_value(),
                 "bundle already has a misc-slot instruction");
    SetpmInstr instr;
    instr.fuType = FuType::Sram;
    instr.mode = mode;
    instr.startAddrReg = start_reg;
    instr.endAddrReg = end_reg;
    b_.misc = decodeSetpm(encodeSetpm(instr));
    return *this;
}

Program::BundleBuilder &
Program::BundleBuilder::nop(Cycles cycles)
{
    b_.nopCycles = cycles;
    return *this;
}

Program::BundleBuilder
Program::bundle()
{
    bundles_.emplace_back();
    return BundleBuilder(bundles_.back());
}

std::size_t
Program::setpmCount() const
{
    std::size_t n = 0;
    for (const auto &b : bundles_)
        n += b.misc.has_value() ? 1 : 0;
    return n;
}

}  // namespace isa
}  // namespace regate
