/**
 * @file
 * Tests for the DLRM workload generator: graph structure, AllToAll
 * presence, and the memory/network-bound character the paper relies
 * on (§3).
 */

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>

#include "common/error.h"

#include "models/dlrm.h"

namespace regate {
namespace models {
namespace {

using graph::CollKind;
using graph::OpKind;

/** The card whose spec `model` key is @p key. */
const DlrmConfig &
card(std::string_view key)
{
    for (const auto &c : dlrmConfigs())
        if (c.key == key)
            return c;
    throw std::out_of_range(std::string(key));
}

TEST(Dlrm, ConfigsMatchTable1Sizes)
{
    // Table 1's three sizes, in order: embedding storage in GB.
    const std::pair<const char *, double> sizes[] = {
        {"s", 20.0}, {"m", 45.0}, {"l", 98.0}};
    for (auto [model, gb] : sizes)
        EXPECT_NEAR(card(model).tableBytes / 1e9, gb, 0.1)
            << card(model).name;
}

TEST(Dlrm, GraphHasAllStages)
{
    auto g = dlrmInference(card("m"), 4096, 8);
    g.validate();
    bool has_embedding = false, has_alltoall = false,
         has_interaction = false;
    int gemms = 0;
    for (const auto &op : g.blocks[0].ops) {
        has_embedding |= op.kind == OpKind::Embedding;
        has_alltoall |= op.coll == CollKind::AllToAll;
        has_interaction |= op.name == "interaction";
        gemms += op.kind == OpKind::MatMul ? 1 : 0;
    }
    EXPECT_TRUE(has_embedding);
    EXPECT_TRUE(has_alltoall);
    EXPECT_TRUE(has_interaction);
    // Bottom MLP (3 fcs) + top MLP (5 fcs).
    EXPECT_EQ(gemms, 8);
}

TEST(Dlrm, SingleChipHasNoAllToAll)
{
    auto g = dlrmInference(card("s"), 1024, 1);
    for (const auto &op : g.blocks[0].ops)
        EXPECT_NE(op.kind, OpKind::Collective);
}

TEST(Dlrm, LowArithmeticIntensityRelativeToPrefill)
{
    // DLRM is memory/network-bound (§3): its arithmetic intensity is
    // at least an order of magnitude below a compute-bound LLM
    // prefill graph's.
    auto g = dlrmInference(card("l"), 4096, 8);
    double dlrm_intensity = g.totalFlops() / g.totalHbmBytes();
    EXPECT_LT(dlrm_intensity, 300.0);
}

TEST(Dlrm, AllToAllScalesWithBatchAndDim)
{
    auto small = dlrmInference(card("s"), 1024, 8);
    auto big = dlrmInference(card("l"), 4096, 8);
    EXPECT_GT(big.totalCollectiveBytes(),
              4.0 * small.totalCollectiveBytes());
}

TEST(Dlrm, EmbeddingLookupsCoverGlobalBatch)
{
    const auto &cfg = card("m");
    auto g = dlrmInference(cfg, 4096, 8);
    for (const auto &op : g.blocks[0].ops) {
        if (op.kind != OpKind::Embedding)
            continue;
        // This chip's table shard serves the global batch.
        EXPECT_DOUBLE_EQ(op.lookups, 4096.0 * cfg.tables / 8 *
                                         cfg.pooling);
    }
}

TEST(Dlrm, GemmRowsAreLocalBatch)
{
    auto g = dlrmInference(card("s"), 4096, 8);
    for (const auto &op : g.blocks[0].ops) {
        if (op.kind == OpKind::MatMul) {
            EXPECT_EQ(op.m, 512);  // 4096 / 8 chips.
        }
    }
}

TEST(Dlrm, RejectsBadChips)
{
    EXPECT_THROW(dlrmInference(card("s"), 1024, 0),
                 ConfigError);
}

}  // namespace
}  // namespace models
}  // namespace regate
