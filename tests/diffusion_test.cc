/**
 * @file
 * Tests for the diffusion workload generators (DiT-XL, GLIGEN).
 */

#include <gtest/gtest.h>

#include "common/error.h"

#include "models/diffusion.h"

namespace regate {
namespace models {
namespace {

using graph::OpKind;

TEST(Diffusion, DitHeadSizeIs72)
{
    // §3: "DiT-XL has an attention head size of 72, which is smaller
    // than the SA width (128)" -- the Fig. 5 spatial-underutilization
    // driver.
    auto g = ditInference(128, {1, 1, 1});
    bool found = false;
    for (const auto &op : g.blocks[0].ops) {
        if (op.name == "attn.scores") {
            EXPECT_EQ(op.k, 72);
            found = true;
        }
        if (op.name == "attn.value") {
            EXPECT_EQ(op.n, 72);
        }
    }
    EXPECT_TRUE(found);
}

TEST(Diffusion, DitRepeatsBlocksTimesSteps)
{
    auto g = ditInference(128, {1, 1, 1});
    EXPECT_EQ(g.blocks[0].repeat,
              28u * static_cast<unsigned>(kDiffusionSteps));
}

TEST(Diffusion, GligenShrinksHeadSizeWithDepth)
{
    auto g = gligenInference(4, {1, 1, 1});
    // First level: head size 40; deeper levels grow to 160 while the
    // spatial resolution shrinks.
    std::vector<std::int64_t> head_sizes;
    for (const auto &b : g.blocks) {
        for (const auto &op : b.ops) {
            if (op.name.find(".self.scores") != std::string::npos)
                head_sizes.push_back(op.k);
        }
    }
    ASSERT_EQ(head_sizes.size(), 4u);
    EXPECT_EQ(head_sizes[0], 40);
    EXPECT_EQ(head_sizes[1], 80);
    EXPECT_EQ(head_sizes[2], 160);
    // The shallow (large-image) levels dominate the attention FLOPs
    // and sit well below the 128-wide SA -> spatial underutilization
    // (Fig. 5 GLIGEN at ~45%).
    EXPECT_LT(head_sizes[0], 128);
    EXPECT_LT(head_sizes[1], 128);
}

TEST(Diffusion, GligenHasConvsAndGatedAttention)
{
    auto g = gligenInference(4, {1, 1, 1});
    bool has_conv = false, has_gated = false;
    for (const auto &b : g.blocks) {
        for (const auto &op : b.ops) {
            has_conv |= op.name.find("conv3x3") != std::string::npos;
            has_gated |= op.name.find(".gated.") != std::string::npos;
        }
    }
    EXPECT_TRUE(has_conv);
    EXPECT_TRUE(has_gated);
}

TEST(Diffusion, ComputeBound)
{
    for (auto build : {ditInference, gligenInference}) {
        auto g = build(64, {1, 1, 1});
        EXPECT_GT(g.totalFlops() / g.totalHbmBytes(), 50.0)
            << g.name;
    }
}

TEST(Diffusion, DataParallelOnly)
{
    EXPECT_THROW(ditInference(64, {1, 2, 1}), ConfigError);
    EXPECT_THROW(gligenInference(64, {1, 1, 2}), ConfigError);
}

}  // namespace
}  // namespace models
}  // namespace regate
