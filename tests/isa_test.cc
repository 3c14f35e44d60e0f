/**
 * @file
 * Tests for the setpm ISA extension (Fig. 14): encoding, decoding,
 * round-trips, malformed-word rejection, program building, and the
 * unit names.
 */

#include <gtest/gtest.h>

#include "common/error.h"
#include "common/prng.h"
#include "isa/instruction.h"
#include "isa/program.h"

namespace regate {
namespace isa {
namespace {

TEST(Setpm, PaperExampleEncoding)
{
    // setpm 0b1011,vu,off -> power-gate VU 0, 1, and 3 (§4.2).
    SetpmInstr instr;
    instr.fuType = FuType::Vu;
    instr.mode = PowerMode::Off;
    instr.bitmap = 0b1011;
    instr.immediate = true;

    auto word = encodeSetpm(instr);
    auto back = decodeSetpm(word);
    EXPECT_EQ(back, instr);
    EXPECT_EQ(back.toString(), "setpm 0b00001011,vu,off");
}

TEST(Setpm, RoundTripAllVariants)
{
    Prng rng(5);
    for (int i = 0; i < 200; ++i) {
        SetpmInstr instr;
        instr.fuType = static_cast<FuType>(rng.uniform(0, 3));
        if (instr.fuType == FuType::Sram) {
            instr.mode = static_cast<PowerMode>(rng.uniform(0, 3));
            instr.startAddrReg =
                static_cast<std::uint8_t>(rng.uniform(0, 255));
            instr.endAddrReg =
                static_cast<std::uint8_t>(rng.uniform(0, 255));
        } else {
            instr.mode = static_cast<PowerMode>(rng.uniform(0, 2));
            instr.immediate = rng.uniform(0, 1) == 1;
            if (instr.immediate)
                instr.bitmap =
                    static_cast<std::uint8_t>(rng.uniform(1, 255));
            else
                instr.bitmapReg =
                    static_cast<std::uint8_t>(rng.uniform(0, 255));
        }
        auto back = decodeSetpm(encodeSetpm(instr));
        EXPECT_EQ(back, instr) << i;
    }
}

TEST(Setpm, SramVariantCarriesAddressRegs)
{
    SetpmInstr instr;
    instr.fuType = FuType::Sram;
    instr.mode = PowerMode::Sleep;
    instr.startAddrReg = 3;
    instr.endAddrReg = 7;
    auto back = decodeSetpm(encodeSetpm(instr));
    EXPECT_EQ(back.startAddrReg, 3);
    EXPECT_EQ(back.endAddrReg, 7);
    EXPECT_EQ(back.mode, PowerMode::Sleep);
    EXPECT_EQ(back.toString(), "setpm %r3,%r7,sram,sleep");
}

TEST(Setpm, SleepOnlyForSram)
{
    SetpmInstr instr;
    instr.fuType = FuType::Vu;
    instr.mode = PowerMode::Sleep;
    instr.bitmap = 1;
    EXPECT_THROW(encodeSetpm(instr), ConfigError);
}

TEST(Setpm, EmptyBitmapRejected)
{
    SetpmInstr instr;
    instr.fuType = FuType::Sa;
    instr.mode = PowerMode::Off;
    instr.bitmap = 0;
    EXPECT_THROW(encodeSetpm(instr), ConfigError);
}

TEST(Setpm, MalformedWordsRejected)
{
    // Reserved bits set.
    EXPECT_THROW(decodeSetpm(0xC0000000u), ConfigError);
    // Unknown functional-unit type (0x7).
    EXPECT_THROW(decodeSetpm(0x7u | (1u << 5) | (1u << 6)),
                 ConfigError);
}

TEST(Program, BuilderAndCounting)
{
    Program p;
    p.bundle().saPop(0).saPop(1).vuOp(0).vuOp(1);
    p.bundle().vuOp(0).vuOp(1).setpm(0b11, FuType::Vu, PowerMode::Off);
    p.bundle().saPop(0).saPop(1).nop(6);
    p.bundle().setpm(0b11, FuType::Vu, PowerMode::On);

    EXPECT_EQ(p.size(), 4u);
    EXPECT_EQ(p.setpmCount(), 2u);
    EXPECT_EQ(p.bundles()[0].ops.size(), 4u);
    EXPECT_EQ(p.bundles()[2].nopCycles, 6u);
    EXPECT_TRUE(p.bundles()[1].misc.has_value());
    EXPECT_EQ(p.bundles()[1].misc->bitmap, 0b11);
}

TEST(Program, OneMiscSlotPerBundle)
{
    Program p;
    auto b = p.bundle();
    b.setpm(0b1, FuType::Vu, PowerMode::Off);
    EXPECT_THROW(b.setpm(0b10, FuType::Vu, PowerMode::On), ConfigError);
}

TEST(Program, SramSetpmInBundle)
{
    Program p;
    p.bundle().setpmSram(1, 2, PowerMode::Off);
    EXPECT_EQ(p.bundles()[0].misc->fuType, FuType::Sram);
}

TEST(FuType, Names)
{
    EXPECT_EQ(fuTypeName(FuType::Sa), "sa");
    EXPECT_EQ(fuTypeName(FuType::Sram), "sram");
}

}  // namespace
}  // namespace isa
}  // namespace regate
