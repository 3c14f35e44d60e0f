/**
 * @file
 * Tests for the per-operator tile-level simulator: bottleneck
 * selection, component activity, work counters, and counts that do
 * not fit in 64 bits.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "common/checked.h"
#include "sim/operator_sim.h"

namespace regate {
namespace sim {
namespace {

using arch::Component;
using arch::NpuGeneration;
using graph::Operator;
using graph::OpKind;

class OpSimFixture : public ::testing::Test
{
  protected:
    OpSimFixture()
        : cfg_(arch::npuConfig(NpuGeneration::D)),
          torus_(ici::Torus::forChips(cfg_, 8)),
          coll_(cfg_, torus_),
          sim_(cfg_, coll_)
    {}

    const arch::NpuConfig &cfg_;
    ici::Torus torus_;
    ici::CollectiveModel coll_;
    OperatorSimulator sim_;
};

TEST_F(OpSimFixture, LargeGemmIsSaBound)
{
    Operator op;
    op.kind = OpKind::MatMul;
    op.name = "gemm";
    op.m = 65536;
    op.k = 8192;
    op.n = 1280;
    op.hbmReadBytes = 2e7;
    auto ex = sim_.simulate(op);

    EXPECT_EQ(ex.bottleneck, Component::Sa);
    EXPECT_GT(ex.active[Component::Sa], 0u);
    EXPECT_EQ(ex.duration, ex.active[Component::Sa]);
    EXPECT_DOUBLE_EQ(ex.work.macs,
                     65536.0 * 8192 * 1280);
    // SA spatial utilization near peak for large M (Fig. 5).
    EXPECT_GT(ex.saStats.spatialUtilization(), 0.9);
    // SA active nearly the whole op; VU only drains outputs.
    EXPECT_GT(ex.activeFraction(Component::Sa), 0.99);
    EXPECT_LT(ex.activeFraction(Component::Vu), 0.2);
}

TEST_F(OpSimFixture, VuMappedGemmSkipsSa)
{
    Operator op;
    op.kind = OpKind::MatMul;
    op.name = "decode-gemm";
    op.m = 8;
    op.k = 4096;
    op.n = 4096;
    op.mapToVu = true;
    auto ex = sim_.simulate(op);
    EXPECT_EQ(ex.active[Component::Sa], 0u);
    EXPECT_DOUBLE_EQ(ex.work.macs, 0.0);
    EXPECT_GT(ex.work.vuOps, 8.0 * 4096 * 4096 - 1);
    EXPECT_EQ(ex.saStats.macs, 0u);
}

TEST_F(OpSimFixture, MemoryBoundOpIsHbmBound)
{
    Operator op;
    op.kind = OpKind::Normalization;
    op.name = "norm";
    op.vuOps = 1e6;
    op.hbmReadBytes = 1e9;
    op.hbmWriteBytes = 1e9;
    auto ex = sim_.simulate(op);
    EXPECT_EQ(ex.bottleneck, Component::Hbm);
    EXPECT_GT(ex.activeFraction(Component::Hbm), 0.99);
}

TEST_F(OpSimFixture, CollectiveIsIciBound)
{
    Operator op;
    op.kind = OpKind::Collective;
    op.name = "ar";
    op.coll = graph::CollKind::AllReduce;
    op.collBytes = 256e6;
    auto ex = sim_.simulate(op);
    EXPECT_EQ(ex.bottleneck, Component::Ici);
    EXPECT_GT(ex.work.iciBytes, 0.0);
    EXPECT_EQ(ex.active[Component::Sa], 0u);
}

TEST_F(OpSimFixture, EmbeddingGatherSlowerThanStream)
{
    Operator gather;
    gather.kind = OpKind::Embedding;
    gather.name = "emb";
    gather.lookups = 1e6;
    gather.bytesPerLookup = 512;
    gather.hbmReadBytes = 512e6;
    auto g = sim_.simulate(gather);

    Operator stream;
    stream.kind = OpKind::Transfer;
    stream.name = "copy";
    stream.hbmReadBytes = 512e6;
    auto s = sim_.simulate(stream);

    EXPECT_GT(g.active[Component::Hbm], s.active[Component::Hbm]);
}

TEST_F(OpSimFixture, MinimumOpLatency)
{
    Operator op;
    op.kind = OpKind::Elementwise;
    op.name = "tiny";
    op.vuOps = 1;
    auto ex = sim_.simulate(op);
    EXPECT_GE(ex.duration, 64u);
}

TEST_F(OpSimFixture, TimelinesSpanOpDuration)
{
    Operator op;
    op.kind = OpKind::MatMul;
    op.name = "gemm";
    op.m = 4096;
    op.k = 1024;
    op.n = 1024;
    auto ex = sim_.simulate(op);
    for (auto c : {Component::Sa, Component::Vu, Component::Hbm,
                   Component::Ici}) {
        EXPECT_EQ(ex.timeline[c].span(), ex.duration)
            << arch::componentName(c);
        ex.timeline[c].checkInvariants();
    }
    // ICI idle for non-collectives.
    EXPECT_EQ(ex.timeline[Component::Ici].activeCycles(), 0u);
}

TEST_F(OpSimFixture, SramUsageCappedAtCapacity)
{
    Operator op;
    op.kind = OpKind::MatMul;
    op.name = "huge";
    op.m = 65536;
    op.k = 16384;
    op.n = 53248;
    op.sramDemandBytes = 1e12;
    auto ex = sim_.simulate(op);
    EXPECT_DOUBLE_EQ(ex.sramUsedBytes,
                     static_cast<double>(cfg_.sramBytes));
}

TEST_F(OpSimFixture, SmallHeadDimLowersSpatialUtil)
{
    Operator op;
    op.kind = OpKind::MatMul;
    op.name = "dit-scores";
    op.batch = 2048;
    op.m = 1024;
    op.k = 72;
    op.n = 1024;
    auto ex = sim_.simulate(op);
    EXPECT_LT(ex.saStats.spatialUtilization(), 0.6);
}

/** The message of the OverflowError @p fn throws, or "" if none. */
template <typename Fn>
std::string
overflowMessage(Fn &&fn)
{
    try {
        fn();
    } catch (const OverflowError &e) {
        return e.what();
    }
    return "";
}

TEST(SaAnalytical, MacsPast64BitsAreAnOverflowError)
{
    // 1e12 x 128 x 1e12 is 1.28e26 MACs; wrapped, it would be 1.67e19.
    EXPECT_THROW(sa::analyzeMatmul(1000000000000, 128, 1000000000000, 128),
                 OverflowError);
    // Counts that fit stay exact: 2^40 rows through one full tile.
    auto s = sa::analyzeMatmul(std::int64_t{1} << 40, 128, 128, 128);
    EXPECT_EQ(s.macs, std::uint64_t{1} << 54);
    EXPECT_EQ(s.computeCycles, (std::uint64_t{1} << 40) + 255);
}

TEST_F(OpSimFixture, CountsPast64BitsNameTheOperator)
{
    Operator gemm;
    gemm.kind = OpKind::MatMul;
    gemm.name = "qkv_proj";
    gemm.m = 1000000000000;
    gemm.k = 4096;
    gemm.n = 1000000000000;
    EXPECT_EQ(overflowMessage([&] { sim_.simulate(gemm); })
                  .rfind("config error: operator 'qkv_proj': SA ", 0),
              0u);

    Operator vu;
    vu.kind = OpKind::Elementwise;
    vu.name = "huge_add";
    vu.vuOps = 1e40;
    EXPECT_NE(overflowMessage([&] { sim_.simulate(vu); })
                  .find("operator 'huge_add': VU cycle count"),
              std::string::npos);

    Operator copy;
    copy.kind = OpKind::Elementwise;
    copy.name = "huge_copy";
    copy.hbmReadBytes = 1e20;
    EXPECT_NE(overflowMessage([&] { sim_.simulate(copy); })
                  .find("operator 'huge_copy': HBM byte count"),
              std::string::npos);

    // 1e20 s is more than 2^64 cycles at any clock here.
    EXPECT_THROW(cfg_.cyclesFor(1e20), OverflowError);
    EXPECT_THROW(cfg_.cyclesFor(std::nan("")), OverflowError);
}

}  // namespace
}  // namespace sim
}  // namespace regate
