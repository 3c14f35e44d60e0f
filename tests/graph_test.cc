/**
 * @file
 * Tests for the operator IR.
 */

#include <gtest/gtest.h>

#include "common/error.h"

#include "graph/graph.h"

namespace regate {
namespace graph {
namespace {

TEST(Operator, MacsAndFlops)
{
    Operator op;
    op.kind = OpKind::MatMul;
    op.batch = 2;
    op.m = 4;
    op.k = 8;
    op.n = 16;
    EXPECT_DOUBLE_EQ(op.macs(), 1024.0);
    EXPECT_DOUBLE_EQ(op.flops(), 2048.0);

    Operator ew;
    ew.kind = OpKind::Elementwise;
    ew.vuOps = 100;
    EXPECT_DOUBLE_EQ(ew.macs(), 0.0);
    EXPECT_DOUBLE_EQ(ew.flops(), 100.0);
}

TEST(Operator, Validation)
{
    Operator op;
    op.kind = OpKind::MatMul;
    op.m = 0;
    EXPECT_THROW(op.validate(), ConfigError);

    Operator coll;
    coll.kind = OpKind::Collective;
    EXPECT_THROW(coll.validate(), ConfigError);
    coll.coll = CollKind::AllReduce;
    coll.collBytes = 100;
    EXPECT_NO_THROW(coll.validate());

    Operator emb;
    emb.kind = OpKind::Embedding;
    EXPECT_THROW(emb.validate(), ConfigError);
}

TEST(OperatorGraph, Totals)
{
    OperatorGraph g;
    g.name = "test";
    Block b;
    b.name = "layer";
    b.repeat = 3;
    Operator mm;
    mm.kind = OpKind::MatMul;
    mm.m = 10;
    mm.k = 10;
    mm.n = 10;
    mm.hbmReadBytes = 100;
    mm.validate();
    b.ops.push_back(mm);
    g.blocks.push_back(b);

    EXPECT_EQ(g.opCount(), 3u);
    EXPECT_DOUBLE_EQ(g.totalFlops(), 3 * 2000.0);
    EXPECT_DOUBLE_EQ(g.totalHbmBytes(), 300.0);
    EXPECT_NO_THROW(g.validate());
}

TEST(OperatorGraph, ValidationCatchesEmpties)
{
    OperatorGraph g;
    g.name = "bad";
    EXPECT_THROW(g.validate(), ConfigError);
    Block b;
    b.name = "empty";
    g.blocks.push_back(b);
    EXPECT_THROW(g.validate(), ConfigError);
}

}  // namespace
}  // namespace graph
}  // namespace regate
