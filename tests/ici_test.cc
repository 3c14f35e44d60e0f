/**
 * @file
 * Tests for the torus topology and collective cost models.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/error.h"

#include "common/units.h"
#include "ici/collective.h"
#include "ici/topology.h"

namespace regate {
namespace ici {
namespace {

using arch::NpuGeneration;
using graph::CollKind;
using units::MiB;

TEST(Torus, ExplicitDims)
{
    Torus t({4, 4});
    EXPECT_EQ(t.numChips(), 16);
    EXPECT_EQ(t.rank(), 2);
    EXPECT_EQ(t.diameterHops(), 4);
}

/** Torus::forChips's factorization, scanning every candidate factor. */
std::vector<int>
bruteForceDims(int rank, int chips)
{
    std::vector<int> dims(rank, 1);
    int remaining = chips;
    for (int i = 0; i < rank; ++i) {
        int target = static_cast<int>(
            std::max(1.0, std::round(std::pow(
                static_cast<double>(remaining), 1.0 / (rank - i)))));
        int best = 1;
        for (int f = 1; f <= remaining; ++f) {
            if (remaining % f == 0 && f <= target)
                best = f;
        }
        dims[i] = i == rank - 1 ? remaining : best;
        remaining /= dims[i];
    }
    std::sort(dims.begin(), dims.end());
    return dims;
}

TEST(Torus, FactorizationMatchesBruteForceScan)
{
    for (auto gen : {NpuGeneration::A, NpuGeneration::D}) {
        const auto &cfg = arch::npuConfig(gen);
        ASSERT_EQ(cfg.torusDims, gen == NpuGeneration::A ? 2 : 3);
        for (int chips = 1; chips <= 4096; ++chips) {
            ASSERT_EQ(Torus::forChips(cfg, chips).dims(),
                      bruteForceDims(cfg.torusDims, chips))
                << "chips=" << chips << " rank=" << cfg.torusDims;
        }
    }
}

TEST(Torus, FactorizationPreservesChipCount)
{
    for (auto gen : {NpuGeneration::A, NpuGeneration::D}) {
        const auto &cfg = arch::npuConfig(gen);
        for (int chips : {1, 2, 4, 8, 16, 64, 128, 4096}) {
            Torus t = Torus::forChips(cfg, chips);
            EXPECT_EQ(t.numChips(), chips) << "chips=" << chips;
            EXPECT_EQ(t.rank(), cfg.torusDims);
        }
    }
}

TEST(Torus, NearRegularShape)
{
    Torus t = Torus::forChips(arch::npuConfig(NpuGeneration::D), 64);
    // 3D torus: 4x4x4.
    EXPECT_EQ(t.dims()[0] * t.dims()[1] * t.dims()[2], 64);
    EXPECT_LE(t.dims().back() / std::max(1, t.dims().front()), 4);
}

TEST(Torus, Validation)
{
    EXPECT_THROW(Torus({}), ConfigError);
    EXPECT_THROW(Torus({0, 4}), ConfigError);
    EXPECT_THROW(
        Torus::forChips(arch::npuConfig(NpuGeneration::D), 0),
        ConfigError);
}

TEST(Collective, SingleChipIsFree)
{
    const auto &cfg = arch::npuConfig(NpuGeneration::D);
    CollectiveModel m(cfg, Torus({1}));
    EXPECT_DOUBLE_EQ(m.seconds(CollKind::AllReduce, MiB(64)), 0.0);
    EXPECT_DOUBLE_EQ(m.wireBytes(CollKind::AllReduce, MiB(64)),
                     0.0);
}

TEST(Collective, AllReduceCostsTwiceReduceScatter)
{
    const auto &cfg = arch::npuConfig(NpuGeneration::D);
    CollectiveModel m(cfg, Torus({4, 2}));
    double ar = m.wireBytes(CollKind::AllReduce, MiB(64));
    double rs = m.wireBytes(CollKind::ReduceScatter, MiB(64));
    double ag = m.wireBytes(CollKind::AllGather, MiB(64));
    EXPECT_NEAR(ar, rs + ag, 1.0);
    EXPECT_DOUBLE_EQ(rs, ag);
}

TEST(Collective, LatencyFloorIsMicroseconds)
{
    // §1: an operator is "typically at least a few us".
    const auto &cfg = arch::npuConfig(NpuGeneration::D);
    CollectiveModel m(cfg, Torus({2, 2, 2}));
    EXPECT_GE(m.seconds(CollKind::AllReduce, 64), 2e-6);
}

TEST(Collective, TimeMonotonicInBytes)
{
    const auto &cfg = arch::npuConfig(NpuGeneration::D);
    CollectiveModel m(cfg, Torus({4, 4, 4}));
    for (auto kind :
         {CollKind::AllReduce, CollKind::AllGather,
          CollKind::AllToAll, CollKind::P2P}) {
        EXPECT_LT(m.seconds(kind, MiB(1)), m.seconds(kind, MiB(64)))
            << static_cast<int>(kind);
    }
}

TEST(Collective, AllToAllPaysTorusPenalty)
{
    const auto &cfg = arch::npuConfig(NpuGeneration::D);
    CollectiveModel m(cfg, Torus({4, 4, 4}));
    EXPECT_GT(m.seconds(CollKind::AllToAll, MiB(64)),
              m.seconds(CollKind::AllGather, MiB(64)));
}

TEST(Collective, BiggerPodsCostMorePerChip)
{
    const auto &cfg = arch::npuConfig(NpuGeneration::D);
    CollectiveModel small(cfg, Torus({2, 2, 2}));
    CollectiveModel big(cfg, Torus({8, 8, 8}));
    EXPECT_LT(small.seconds(CollKind::AllReduce, MiB(64)),
              big.seconds(CollKind::AllReduce, MiB(64)));
}

TEST(Collective, FasterLinksFasterCollectives)
{
    Torus t({2, 2});
    CollectiveModel a(arch::npuConfig(NpuGeneration::A), t);
    CollectiveModel b(arch::npuConfig(NpuGeneration::B), t);
    EXPECT_GT(a.seconds(CollKind::AllReduce, MiB(256)),
              b.seconds(CollKind::AllReduce, MiB(256)));
}

TEST(Collective, NoKindIsALogicError)
{
    // Operator::validate rejects a kindless collective first; the
    // cost model still refuses one, even on a single chip.
    const auto &cfg = arch::npuConfig(NpuGeneration::D);
    for (auto torus : {Torus({1}), Torus({4, 4})}) {
        CollectiveModel m(cfg, torus);
        EXPECT_THROW(m.seconds(CollKind::None, MiB(1)), LogicError);
        EXPECT_THROW(m.wireBytes(CollKind::None, MiB(1)), LogicError);
    }
}

}  // namespace
}  // namespace ici
}  // namespace regate
