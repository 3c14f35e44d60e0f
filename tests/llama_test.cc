/**
 * @file
 * Tests for the Llama workload generators: parameter counts against
 * the public model cards, graph structure, parallelism effects, and
 * phase characteristics (prefill compute-bound, decode memory-bound).
 */

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <string_view>

#include "common/error.h"

#include "models/llama.h"

namespace regate {
namespace models {
namespace {

using graph::OpKind;

/** The card whose spec `model` key is @p key. */
const LlamaConfig &
card(std::string_view key)
{
    for (const auto &c : llamaConfigs())
        if (c.key == key)
            return c;
    throw std::out_of_range(std::string(key));
}

TEST(Llama, ParameterCountsMatchModelCards)
{
    // Within 10% of the nominal sizes (embeddings/rounding differ).
    EXPECT_NEAR(card("8b").params() / 1e9, 8.0, 0.8);
    EXPECT_NEAR(card("13b").params() / 1e9, 13.0,
                1.3);
    EXPECT_NEAR(card("70b").params() / 1e9, 70.0,
                7.0);
    EXPECT_NEAR(card("405b").params() / 1e9, 405.0,
                40.0);
}

TEST(Llama, KvCacheBytes)
{
    // 70B GQA: 8 KV heads x 128 dims x 80 layers x 2 (K,V) x 2 B.
    EXPECT_DOUBLE_EQ(card("70b").kvBytesPerToken(),
                     2.0 * 80 * 8 * 128 * 2);
}

TEST(Llama, PrefillGraphStructure)
{
    const auto &cfg = card("8b");
    auto g = llamaPrefill(cfg, 4, 4096, {1, 2, 1});
    g.validate();
    // Layer block repeats `layers` times.
    EXPECT_EQ(g.blocks[0].repeat, 32u);
    // Tensor parallelism inserts two AllReduces per layer.
    int collectives = 0;
    for (const auto &op : g.blocks[0].ops)
        collectives += op.kind == OpKind::Collective ? 1 : 0;
    EXPECT_EQ(collectives, 2);
}

TEST(Llama, NoCollectivesWithoutTp)
{
    auto g = llamaPrefill(card("8b"), 4, 4096,
                          {1, 1, 1});
    for (const auto &op : g.blocks[0].ops)
        EXPECT_NE(op.kind, OpKind::Collective) << op.name;
}

TEST(Llama, PrefillIsComputeBound)
{
    auto g = llamaPrefill(card("8b"), 4, 4096,
                          {1, 1, 1});
    // Arithmetic intensity (FLOPs per HBM byte) should be high.
    EXPECT_GT(g.totalFlops() / g.totalHbmBytes(), 100.0);
}

TEST(Llama, DecodeIsMemoryBound)
{
    auto g = llamaDecode(card("8b"), 4, 4096, 512,
                         {1, 1, 1});
    EXPECT_LT(g.totalFlops() / g.totalHbmBytes(), 10.0);
}

TEST(Llama, DecodeRepeatsPerToken)
{
    const auto &cfg = card("13b");
    auto g = llamaDecode(cfg, 4, 4096, 512, {1, 1, 1});
    EXPECT_EQ(g.blocks[0].repeat, 512u * 40u);
}

TEST(Llama, DecodeGemmsHaveSmallM)
{
    auto g = llamaDecode(card("8b"), 4, 4096, 512,
                         {1, 1, 1});
    for (const auto &op : g.blocks[0].ops) {
        if (op.kind == OpKind::MatMul && op.name == "qkv_proj") {
            EXPECT_EQ(op.m, 4);  // batch only; §3's VU-mapping driver.
        }
    }
}

TEST(Llama, TensorParallelismShrinksPerChipWork)
{
    const auto &cfg = card("70b");
    auto tp1 = llamaPrefill(cfg, 8, 4096, {1, 1, 1});
    auto tp8 = llamaPrefill(cfg, 8, 4096, {1, 8, 1});
    EXPECT_GT(tp1.totalFlops(), 4.0 * tp8.totalFlops());
}

TEST(Llama, DataParallelismShardsBatch)
{
    const auto &cfg = card("8b");
    auto dp1 = llamaPrefill(cfg, 8, 4096, {1, 1, 1});
    auto dp4 = llamaPrefill(cfg, 8, 4096, {4, 1, 1});
    EXPECT_NEAR(dp1.totalFlops() / dp4.totalFlops(), 4.0, 0.5);
}

TEST(Llama, TrainingCostsRoughlyThreeForwardPasses)
{
    const auto &cfg = card("8b");
    auto fwd = llamaPrefill(cfg, 32, 4096, {1, 1, 1});
    auto train = llamaTraining(cfg, 32, 4096, {1, 1, 1});
    EXPECT_NEAR(train.totalFlops() / fwd.totalFlops(), 3.0, 0.3);
}

TEST(Llama, TrainingWithDpHasGradAllReduce)
{
    const auto &cfg = card("8b");
    auto g = llamaTraining(cfg, 32, 4096, {2, 1, 1});
    bool found = false;
    for (const auto &b : g.blocks)
        for (const auto &op : b.ops)
            found |= op.name == "grad.allreduce";
    EXPECT_TRUE(found);
}

TEST(Llama, PipelineAddsP2pBlock)
{
    const auto &cfg = card("70b");
    auto g = llamaPrefill(cfg, 8, 4096, {1, 1, 2});
    bool found = false;
    for (const auto &b : g.blocks)
        found |= b.name == "pipeline-xfer";
    EXPECT_TRUE(found);
    // Layers split across stages.
    EXPECT_EQ(g.blocks[0].repeat, 40u);
}

TEST(Llama, RejectsOverpartitionedBatch)
{
    const Parallelism dp4{4, 1, 1};
    auto errorOf = [](auto build) -> std::string {
        try {
            build();
        } catch (const ConfigError &e) {
            return e.what();
        }
        return "no ConfigError";
    };
    EXPECT_EQ(errorOf([&] { llamaPrefill(card("8b"), 2, 4096, dp4); }),
              "config error: Llama3-8B prefill: batch 2 too small for "
              "dp=4");
    EXPECT_EQ(errorOf([&] { llamaDecode(card("70b"), 3, 512, 8, dp4); }),
              "config error: Llama3-70B decode: batch 3 too small for "
              "dp=4");
    EXPECT_EQ(
        errorOf([&] { llamaTraining(card("405b"), 1, 4096, dp4); }),
        "config error: Llama3.1-405B training: batch 1 too small for "
        "dp=4");
}

}  // namespace
}  // namespace models
}  // namespace regate
