#include <gtest/gtest.h>

#include "model/bandwidth_model.h"
#include "model/bram_model.h"
#include "model/cycle_model.h"
#include "sim/round_schedule.h"
#include "test_helpers.h"
#include "util/logging.h"
#include "util/math.h"

namespace mclp {
namespace {

struct TrafficCase
{
    int64_t n, m, r, c, k, s, tn, tm, tr, tc;
    int64_t g = 1;
};

class TrafficAgainstRounds : public ::testing::TestWithParam<TrafficCase>
{
};

TEST_P(TrafficAgainstRounds, ClosedFormMatchesRoundEnumeration)
{
    // The analytical traffic formulas must agree exactly with a
    // brute-force enumeration of the tile rounds (boundary tiles
    // included).
    TrafficCase p = GetParam();
    SCOPED_TRACE(test::layerCaseText(p));
    nn::ConvLayer l =
        test::groupedLayer(p.n, p.m, p.r, p.c, p.k, p.s, p.g);
    model::ClpShape shape{p.tn, p.tm};
    model::Tiling tiling{p.tr, p.tc};

    auto rounds = sim::roundsForLayer(l, shape, tiling);
    int64_t load = 0;
    int64_t store = 0;
    for (const auto &round : rounds) {
        load += round.loadWords;
        store += round.storeWords;
    }

    model::LayerTraffic traffic = model::layerTraffic(l, shape, tiling);
    EXPECT_EQ(traffic.inputWords + traffic.weightWords, load);
    EXPECT_EQ(traffic.outputWords, store);
    EXPECT_EQ(traffic.outputWords, l.outputWords());
    EXPECT_EQ(traffic.totalWords(), load + store);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, TrafficAgainstRounds,
    ::testing::Values(
        TrafficCase{3, 48, 55, 55, 11, 4, 3, 24, 14, 19},
        TrafficCase{48, 128, 27, 27, 5, 1, 8, 19, 14, 27},
        TrafficCase{256, 192, 13, 13, 3, 1, 1, 96, 13, 13},
        TrafficCase{16, 64, 56, 56, 3, 1, 8, 16, 56, 56},
        TrafficCase{7, 9, 11, 13, 3, 2, 2, 4, 3, 5},
        TrafficCase{5, 5, 5, 5, 1, 1, 5, 5, 5, 5},
        TrafficCase{10, 20, 8, 8, 3, 1, 4, 8, 5, 7},
        // Grouped: Tn/Tm straddle the 8-map group spans.
        TrafficCase{32, 64, 14, 14, 3, 1, 3, 5, 9, 14, 4},
        // Depthwise: every group is a single map on each side.
        TrafficCase{16, 16, 12, 12, 3, 2, 4, 8, 7, 12, 16},
        // Grouped pointwise (ResNeXt reduce next to group3x3).
        TrafficCase{24, 48, 10, 10, 1, 1, 4, 6, 10, 10, 8}));

TEST(BandwidthModel, InputReloadedPerMStep)
{
    // Doubling the m steps doubles input traffic but not output.
    nn::ConvLayer l = test::layer(8, 32, 16, 16, 3, 1);
    model::Tiling tiling{16, 16};
    auto one_mstep = model::layerTraffic(l, {8, 32}, tiling);
    auto two_msteps = model::layerTraffic(l, {8, 16}, tiling);
    EXPECT_EQ(two_msteps.inputWords, 2 * one_mstep.inputWords);
    EXPECT_EQ(two_msteps.outputWords, one_mstep.outputWords);
    EXPECT_EQ(two_msteps.weightWords, one_mstep.weightWords);
}

TEST(BandwidthModel, WeightsReloadedPerSpatialTile)
{
    nn::ConvLayer l = test::layer(8, 32, 16, 16, 3, 1);
    auto whole = model::layerTraffic(l, {8, 32}, {16, 16});
    auto quarters = model::layerTraffic(l, {8, 32}, {8, 8});
    EXPECT_EQ(quarters.weightWords, 4 * whole.weightWords);
    EXPECT_EQ(quarters.outputWords, whole.outputWords);
    // Smaller tiles shrink each input load but overlap halos: total
    // input traffic grows.
    EXPECT_GT(quarters.inputWords, whole.inputWords);
}

TEST(BandwidthModel, PeakDecreasesWithLargerTiles)
{
    nn::ConvLayer l = test::layer(16, 64, 32, 32, 3, 1);
    model::ClpShape shape{4, 16};
    double small = model::layerPeakWordsPerCycle(l, shape, {4, 4});
    double medium = model::layerPeakWordsPerCycle(l, shape, {16, 16});
    double large = model::layerPeakWordsPerCycle(l, shape, {32, 32});
    EXPECT_GT(small, medium);
    EXPECT_GT(medium, large);
}

TEST(BandwidthModel, PeakCoversSteadyStateDemand)
{
    // Peak bandwidth x compute cycles must cover one round's input and
    // weight tile.
    nn::ConvLayer l = test::layer(48, 128, 27, 27, 5, 1);
    model::ClpShape shape{8, 19};
    model::Tiling tiling{14, 27};
    double peak = model::layerPeakWordsPerCycle(l, shape, tiling);
    int64_t comp = l.k * l.k * tiling.tr * tiling.tc;
    int64_t in_tile = shape.tn * model::inputBankWords(l, tiling);
    int64_t w_tile = shape.tn * shape.tm * l.k * l.k;
    EXPECT_GE(peak * static_cast<double>(comp),
              static_cast<double>(in_tile + w_tile));
}

TEST(BandwidthModel, UnconstrainedEqualsComputeBound)
{
    nn::ConvLayer l = test::layer(48, 128, 27, 27, 5, 1);
    model::ClpShape shape{8, 19};
    model::Tiling tiling{14, 27};
    EXPECT_EQ(model::layerCyclesUnderBandwidth(
                  l, shape, tiling, fpga::DataType::Float32, 0.0),
              model::layerCycles(l, shape));
}

TEST(BandwidthModel, AmplePeakBandwidthKeepsComputeBound)
{
    nn::ConvLayer l = test::layer(48, 128, 27, 27, 5, 1);
    model::ClpShape shape{8, 19};
    model::Tiling tiling{14, 27};
    double peak = model::layerPeakWordsPerCycle(l, shape, tiling) * 4.0;
    EXPECT_EQ(model::layerCyclesUnderBandwidth(
                  l, shape, tiling, fpga::DataType::Float32, peak),
              model::layerCycles(l, shape));
}

TEST(BandwidthModel, StarvedBandwidthIsTransferBound)
{
    nn::ConvLayer l = test::layer(48, 128, 27, 27, 5, 1);
    model::ClpShape shape{8, 19};
    model::Tiling tiling{14, 27};
    double bw = 0.25;  // bytes per cycle
    int64_t cycles = model::layerCyclesUnderBandwidth(
        l, shape, tiling, fpga::DataType::Float32, bw);
    auto traffic = model::layerTraffic(l, shape, tiling);
    int64_t bytes = traffic.totalWords() * 4;
    EXPECT_GE(cycles, model::layerCycles(l, shape));
    EXPECT_NEAR(static_cast<double>(cycles),
                static_cast<double>(bytes) / bw, 2.0);
}

TEST(BandwidthModel, CyclesMonotoneInBandwidth)
{
    nn::ConvLayer l = test::layer(16, 64, 56, 56, 3, 1);
    model::ClpShape shape{8, 16};
    model::Tiling tiling{28, 28};
    int64_t prev = model::layerCyclesUnderBandwidth(
        l, shape, tiling, fpga::DataType::Fixed16, 0.05);
    for (double bw : {0.1, 0.5, 1.0, 4.0, 16.0}) {
        int64_t cur = model::layerCyclesUnderBandwidth(
            l, shape, tiling, fpga::DataType::Fixed16, bw);
        EXPECT_LE(cur, prev);
        prev = cur;
    }
    EXPECT_EQ(prev, model::layerCycles(l, shape));
}

TEST(BandwidthModel, ClpAggregates)
{
    nn::Network net("pair", {test::layer(8, 16, 16, 16, 3, 1, "a"),
                             test::layer(16, 32, 8, 8, 3, 1, "b")});
    model::ClpConfig clp;
    clp.shape = {4, 8};
    clp.layers.push_back({0, {16, 16}});
    clp.layers.push_back({1, {8, 8}});

    double peak0 = model::layerPeakWordsPerCycle(net.layer(0), clp.shape,
                                                 {16, 16});
    double peak1 = model::layerPeakWordsPerCycle(net.layer(1), clp.shape,
                                                 {8, 8});
    EXPECT_DOUBLE_EQ(
        model::clpPeakBytesPerCycle(clp, net, fpga::DataType::Float32),
        std::max(peak0, peak1) * 4.0);

    int64_t traffic0 =
        model::layerTraffic(net.layer(0), clp.shape, {16, 16})
            .totalWords();
    int64_t traffic1 =
        model::layerTraffic(net.layer(1), clp.shape, {8, 8}).totalWords();
    EXPECT_EQ(
        model::clpTrafficBytes(clp, net, fpga::DataType::Float32),
        (traffic0 + traffic1) * 4);

    EXPECT_EQ(model::clpCyclesUnderBandwidth(clp, net,
                                             fpga::DataType::Float32,
                                             0.0),
              model::clpComputeCycles(clp, net));
}

TEST(BandwidthModel, InvalidTilingRejected)
{
    nn::ConvLayer l = test::layer(8, 16, 16, 16, 3, 1);
    EXPECT_THROW(model::layerTraffic(l, {4, 8}, {0, 4}),
                 util::FatalError);
    EXPECT_THROW(model::layerTraffic(l, {4, 8}, {17, 4}),
                 util::FatalError);
}

} // namespace
} // namespace mclp
