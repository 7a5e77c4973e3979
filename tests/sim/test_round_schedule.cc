#include <gtest/gtest.h>

#include "model/bandwidth_model.h"
#include "model/cycle_model.h"
#include "sim/round_schedule.h"
#include "test_helpers.h"
#include "util/logging.h"
#include "util/math.h"

namespace mclp {
namespace {

struct RoundCase
{
    int64_t n, m, r, c, k, s, tn, tm, tr, tc;
};

class RoundScheduleSweep : public ::testing::TestWithParam<RoundCase>
{
};

TEST_P(RoundScheduleSweep, AgreesWithAnalyticalModels)
{
    RoundCase p = GetParam();
    SCOPED_TRACE(test::layerCaseText(p));
    nn::ConvLayer l = test::layer(p.n, p.m, p.r, p.c, p.k, p.s);
    model::ClpShape shape{p.tn, p.tm};
    model::Tiling tiling{p.tr, p.tc};
    auto rounds = sim::roundsForLayer(l, shape, tiling);

    // Round count: rsteps * csteps * msteps * nsteps.
    int64_t expected_rounds = util::ceilDiv(l.r, tiling.tr) *
                              util::ceilDiv(l.c, tiling.tc) *
                              util::ceilDiv(l.m, shape.tm) *
                              util::ceilDiv(l.n, shape.tn);
    EXPECT_EQ(static_cast<int64_t>(rounds.size()), expected_rounds);

    // Compute cycles match the cycle model exactly.
    EXPECT_EQ(sim::totalComputeCycles(rounds),
              model::layerCycles(l, shape));

    // Transfer totals match the bandwidth model exactly.
    auto traffic = model::layerTraffic(l, shape, tiling);
    EXPECT_EQ(sim::totalTransferWords(rounds), traffic.totalWords());

    // Every (r,c,m) group stores exactly once, on its last n step.
    int64_t nsteps = util::ceilDiv(l.n, shape.tn);
    int64_t stores = 0;
    int64_t group_starts = 0;
    for (size_t i = 0; i < rounds.size(); ++i) {
        EXPECT_GT(rounds[i].computeCycles, 0);
        EXPECT_GT(rounds[i].loadWords, 0);
        if (rounds[i].groupStart)
            ++group_starts;
        if (rounds[i].storeWords > 0) {
            ++stores;
            // n is the innermost round dimension, so stores land on
            // the last n step of each group.
            EXPECT_EQ(static_cast<int64_t>(i) % nsteps, nsteps - 1);
        }
    }
    EXPECT_EQ(stores, expected_rounds / nsteps);
    EXPECT_EQ(group_starts, expected_rounds / nsteps);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, RoundScheduleSweep,
    ::testing::Values(RoundCase{3, 48, 55, 55, 11, 4, 7, 64, 8, 8},
                      RoundCase{48, 128, 27, 27, 5, 1, 8, 19, 14, 27},
                      RoundCase{256, 192, 13, 13, 3, 1, 2, 64, 13, 13},
                      RoundCase{7, 9, 11, 13, 3, 2, 2, 4, 3, 5},
                      RoundCase{5, 5, 5, 5, 1, 1, 5, 5, 5, 5},
                      RoundCase{64, 16, 56, 56, 1, 1, 9, 64, 28, 14}));

class RoundScheduleFuzz : public ::testing::TestWithParam<int>
{
};

TEST_P(RoundScheduleFuzz, RandomShapesAgreeWithModels)
{
    // Randomized cross-check of the round enumeration against the
    // closed-form models, over shapes the fixed cases above may miss.
    util::SplitMix64 rng(static_cast<uint64_t>(GetParam()));
    for (int trial = 0; trial < 20; ++trial) {
        int64_t n = rng.nextInt(1, 40);
        int64_t m = rng.nextInt(1, 40);
        int64_t r = rng.nextInt(1, 30);
        int64_t c = rng.nextInt(1, 30);
        int64_t k = 1 + 2 * rng.nextInt(0, 2);
        int64_t s = rng.nextInt(1, 3);
        nn::ConvLayer l = test::layer(n, m, r, c, k, s);
        model::ClpShape shape{rng.nextInt(1, 8), rng.nextInt(1, 16)};
        model::Tiling tiling{rng.nextInt(1, r), rng.nextInt(1, c)};

        auto rounds = sim::roundsForLayer(l, shape, tiling);
        EXPECT_EQ(sim::totalComputeCycles(rounds),
                  model::layerCycles(l, shape))
            << l.toString();
        EXPECT_EQ(sim::totalTransferWords(rounds),
                  model::layerTraffic(l, shape, tiling).totalWords())
            << l.toString();
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RoundScheduleFuzz,
                         ::testing::Values(101, 202, 303));

TEST(RoundSchedule, FirstRoundStartsGroup)
{
    nn::ConvLayer l = test::layer(8, 8, 8, 8, 3, 1);
    auto rounds = sim::roundsForLayer(l, {4, 4}, {4, 4});
    ASSERT_FALSE(rounds.empty());
    EXPECT_TRUE(rounds.front().groupStart);
}

TEST(RoundSchedule, BoundaryTilesAreSmaller)
{
    // R=10 with Tr=8: the second row of tiles has rloops=2.
    nn::ConvLayer l = test::layer(4, 4, 10, 10, 3, 1);
    auto rounds = sim::roundsForLayer(l, {4, 4}, {8, 8});
    // 4 spatial tiles, msteps=nsteps=1 -> 4 rounds.
    ASSERT_EQ(rounds.size(), 4u);
    EXPECT_EQ(rounds[0].computeCycles, 9 * 8 * 8);
    EXPECT_EQ(rounds[1].computeCycles, 9 * 8 * 2);
    EXPECT_EQ(rounds[2].computeCycles, 9 * 2 * 8);
    EXPECT_EQ(rounds[3].computeCycles, 9 * 2 * 2);
    // Boundary loads shrink too.
    EXPECT_GT(rounds[0].loadWords, rounds[3].loadWords);
}

TEST(RoundSchedule, LayerIdxPropagated)
{
    nn::ConvLayer l = test::layer(2, 2, 4, 4, 1, 1);
    auto rounds = sim::roundsForLayer(l, {2, 2}, {4, 4}, 17);
    for (const auto &round : rounds)
        EXPECT_EQ(round.layerIdx, 17);
}

TEST(RoundSchedule, InvalidTilingRejected)
{
    nn::ConvLayer l = test::layer(2, 2, 4, 4, 1, 1);
    EXPECT_THROW(sim::roundsForLayer(l, {2, 2}, {0, 4}),
                 util::FatalError);
    EXPECT_THROW(sim::roundsForLayer(l, {2, 2}, {5, 4}),
                 util::FatalError);
}

} // namespace
} // namespace mclp
