#include "isa/instruction.h"

#include <sstream>

#include "common/error.h"

namespace regate {
namespace isa {

std::string
powerModeName(PowerMode mode)
{
    switch (mode) {
      case PowerMode::Auto:
        return "auto";
      case PowerMode::On:
        return "on";
      case PowerMode::Off:
        return "off";
      case PowerMode::Sleep:
        return "sleep";
    }
    throw LogicError("unknown PowerMode");
}

std::string
fuTypeName(FuType t)
{
    switch (t) {
      case FuType::Sa:
        return "sa";
      case FuType::Vu:
        return "vu";
      case FuType::Sram:
        return "sram";
      case FuType::Dma:
        return "dma";
    }
    throw LogicError("unknown FuType");
}

bool
SetpmInstr::operator==(const SetpmInstr &o) const
{
    if (fuType != o.fuType || mode != o.mode)
        return false;
    if (fuType == FuType::Sram)
        return startAddrReg == o.startAddrReg &&
               endAddrReg == o.endAddrReg;
    if (immediate != o.immediate)
        return false;
    return immediate ? bitmap == o.bitmap : bitmapReg == o.bitmapReg;
}

std::string
SetpmInstr::toString() const
{
    std::ostringstream os;
    os << "setpm ";
    if (fuType == FuType::Sram) {
        os << "%r" << int{startAddrReg} << ",%r" << int{endAddrReg};
    } else if (immediate) {
        os << "0b";
        for (int b = 7; b >= 0; --b)
            os << ((bitmap >> b) & 1);
    } else {
        os << "%r" << int{bitmapReg};
    }
    os << "," << fuTypeName(fuType) << ","
       << powerModeName(mode);
    return os.str();
}

namespace {

void
validate(const SetpmInstr &instr)
{
    REGATE_CHECK(instr.mode != PowerMode::Sleep ||
                     instr.fuType == FuType::Sram,
                 "sleep mode is only defined for SRAM (§4.2)");
    if (instr.fuType != FuType::Sram && instr.immediate) {
        REGATE_CHECK(instr.bitmap != 0,
                     "setpm with empty unit bitmap has no effect; "
                     "the encoder rejects it");
    }
}

}  // namespace

std::uint32_t
encodeSetpm(const SetpmInstr &instr)
{
    validate(instr);
    std::uint32_t word = 0;
    word |= static_cast<std::uint32_t>(instr.fuType) & 0x7u;
    word |= (static_cast<std::uint32_t>(instr.mode) & 0x3u) << 3;
    if (instr.fuType == FuType::Sram) {
        word |= 1u << 5;  // SRAM variant always register-addressed.
        word |= static_cast<std::uint32_t>(instr.startAddrReg) << 14;
        word |= static_cast<std::uint32_t>(instr.endAddrReg) << 22;
    } else if (instr.immediate) {
        word |= 1u << 5;
        word |= static_cast<std::uint32_t>(instr.bitmap) << 6;
    } else {
        word |= static_cast<std::uint32_t>(instr.bitmapReg) << 6;
    }
    return word;
}

SetpmInstr
decodeSetpm(std::uint32_t word)
{
    REGATE_CHECK((word >> 30) == 0,
                 "malformed setpm: reserved bits set");
    SetpmInstr instr;
    std::uint32_t fu = word & 0x7u;
    REGATE_CHECK(fu <= static_cast<std::uint32_t>(FuType::Dma),
                 "malformed setpm: unknown functional unit type ", fu);
    instr.fuType = static_cast<FuType>(fu);
    instr.mode = static_cast<PowerMode>((word >> 3) & 0x3u);
    bool imm = (word >> 5) & 1u;
    if (instr.fuType == FuType::Sram) {
        instr.startAddrReg = static_cast<std::uint8_t>((word >> 14) & 0xffu);
        instr.endAddrReg = static_cast<std::uint8_t>((word >> 22) & 0xffu);
    } else if (imm) {
        instr.immediate = true;
        instr.bitmap = static_cast<std::uint8_t>((word >> 6) & 0xffu);
    } else {
        instr.immediate = false;
        instr.bitmapReg = static_cast<std::uint8_t>((word >> 6) & 0xffu);
    }
    validate(instr);
    return instr;
}

}  // namespace isa
}  // namespace regate
