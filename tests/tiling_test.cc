/**
 * @file
 * Tests for the tiling pass: SRAM demand (the Fig. 7 metric) and the
 * VU-routing of small GEMMs.
 */

#include <gtest/gtest.h>

#include "compiler/tiling.h"
#include "common/units.h"

namespace regate {
namespace compiler {
namespace {

using arch::NpuGeneration;
using graph::Operator;
using graph::OpKind;

Operator
gemm(std::int64_t m, std::int64_t k, std::int64_t n)
{
    Operator op;
    op.kind = OpKind::MatMul;
    op.name = "gemm";
    op.m = m;
    op.k = k;
    op.n = n;
    return op;
}

TEST(Tiling, WeightResidentDemandForLargeM)
{
    const auto &cfg = arch::npuConfig(NpuGeneration::D);
    // Large M, modest weights: keeping the [k, n] weights resident is
    // the cheapest full-reuse plan.
    auto op = gemm(1 << 20, 1024, 1024);
    double demand = operatorSramDemand(op, cfg);
    double weights = 1024.0 * 1024 * 2;
    EXPECT_GE(demand, weights);
    EXPECT_LT(demand, weights + units::MiB(8));
}

TEST(Tiling, ActivationResidentDemandForSmallM)
{
    const auto &cfg = arch::npuConfig(NpuGeneration::D);
    // Tiny activations, huge weights (decode lm_head): keeping the
    // activations resident is cheaper.
    auto op = gemm(8, 8192, 128000);
    double demand = operatorSramDemand(op, cfg);
    EXPECT_LT(demand, units::MiB(32));
}

TEST(Tiling, DemandCanExceedCapacity)
{
    // Fig. 7: demands reach hundreds of MB to 1.5 GB -- the metric is
    // a demand, not an allocation.
    const auto &cfg = arch::npuConfig(NpuGeneration::D);
    auto op = gemm(1 << 16, 16384, 53248);
    EXPECT_GT(operatorSramDemand(op, cfg),
              static_cast<double>(cfg.sramBytes));
}

TEST(Tiling, StreamingOpsDemandDoubleBuffer)
{
    const auto &cfg = arch::npuConfig(NpuGeneration::D);
    Operator ew;
    ew.kind = OpKind::Elementwise;
    ew.vuOps = 1e9;
    double demand = operatorSramDemand(ew, cfg);
    // 2 x BW x latency: ~2.2 MB on NPU-D; far below DLRM's 8 MB cap.
    EXPECT_GT(demand, units::MiB(1));
    EXPECT_LT(demand, units::MiB(8));
}

TEST(Tiling, SmallGemmsRouteToVu)
{
    const auto &cfg = arch::npuConfig(NpuGeneration::D);
    graph::OperatorGraph g;
    g.name = "decode";
    graph::Block b;
    b.name = "b";
    b.repeat = 5;
    b.ops.push_back(gemm(8, 4096, 4096));     // Decode-style: to VU.
    b.ops.push_back(gemm(4096, 4096, 4096));  // Prefill-style: SA.
    g.blocks.push_back(b);

    auto stats = tileGraph(g, cfg);
    EXPECT_TRUE(g.blocks[0].ops[0].mapToVu);
    EXPECT_FALSE(g.blocks[0].ops[1].mapToVu);
    EXPECT_EQ(stats.vuMappedGemms, 5u);
}

TEST(Tiling, FusedOpsHaveNoSeparateDemand)
{
    const auto &cfg = arch::npuConfig(NpuGeneration::D);
    graph::OperatorGraph g;
    g.name = "fused";
    graph::Block b;
    b.name = "b";
    b.ops.push_back(gemm(1024, 1024, 1024));
    graph::Operator relu;
    relu.kind = OpKind::Elementwise;
    relu.vuOps = 100;
    relu.fusedIntoPrev = true;
    b.ops.push_back(relu);
    g.blocks.push_back(b);

    tileGraph(g, cfg);
    EXPECT_GT(g.blocks[0].ops[0].sramDemandBytes, 0.0);
    EXPECT_DOUBLE_EQ(g.blocks[0].ops[1].sramDemandBytes, 0.0);
}

TEST(Tiling, CollectiveDemandCapped)
{
    const auto &cfg = arch::npuConfig(NpuGeneration::D);
    Operator coll;
    coll.kind = OpKind::Collective;
    coll.coll = graph::CollKind::AllReduce;
    coll.collBytes = 1e12;
    EXPECT_LE(operatorSramDemand(coll, cfg),
              4.0 * units::MiB(4));
}

TEST(Tiling, TracksMaxDemand)
{
    const auto &cfg = arch::npuConfig(NpuGeneration::D);
    graph::OperatorGraph g;
    g.name = "t";
    graph::Block b;
    b.name = "b";
    b.ops.push_back(gemm(4096, 8192, 8192));
    g.blocks.push_back(b);
    auto stats = tileGraph(g, cfg);
    EXPECT_DOUBLE_EQ(stats.maxDemandBytes,
                     g.blocks[0].ops[0].sramDemandBytes);
}

}  // namespace
}  // namespace compiler
}  // namespace regate
