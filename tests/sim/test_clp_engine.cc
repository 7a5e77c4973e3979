#include <gtest/gtest.h>

#include <cmath>

#include "model/cycle_model.h"
#include "nn/reference.h"
#include "sim/clp_engine.h"
#include "test_helpers.h"
#include "util/logging.h"

namespace mclp {
namespace {

struct EngineCase
{
    int64_t n, m, r, c, k, s, tn, tm, tr, tc;
    int64_t g = 1;
};

class EngineSweep : public ::testing::TestWithParam<EngineCase>
{
};

TEST_P(EngineSweep, FloatMatchesReference)
{
    EngineCase p = GetParam();
    SCOPED_TRACE(test::layerCaseText(p));
    nn::ConvLayer l =
        test::groupedLayer(p.n, p.m, p.r, p.c, p.k, p.s, p.g);
    model::ClpShape shape{p.tn, p.tm};
    model::Tiling tiling{p.tr, p.tc};

    auto input = nn::makeRandomInput<float>(l, 100 + p.n);
    auto weights = nn::makeRandomWeights<float>(l, 200 + p.m);
    auto expected = nn::referenceConv(l, input, weights);
    auto got = sim::runLayerFunctional(l, shape, tiling, input, weights);

    ASSERT_EQ(got.output.size(), expected.size());
    for (size_t i = 0; i < expected.raw().size(); ++i) {
        float e = expected.raw()[i];
        float g = got.output.raw()[i];
        EXPECT_NEAR(g, e, 1e-3f * (1.0f + std::abs(e)))
            << "output index " << i;
    }

    // Timing bookkeeping matches the analytical model exactly.
    EXPECT_EQ(got.computeCycles, model::layerCycles(l, shape));
    EXPECT_EQ(got.macsPerformed, l.macs());
}

TEST_P(EngineSweep, FixedIsBitExactWithReference)
{
    EngineCase p = GetParam();
    SCOPED_TRACE(test::layerCaseText(p));
    nn::ConvLayer l =
        test::groupedLayer(p.n, p.m, p.r, p.c, p.k, p.s, p.g);
    model::ClpShape shape{p.tn, p.tm};
    model::Tiling tiling{p.tr, p.tc};

    auto input = nn::makeRandomInput<nn::Fixed16>(l, 300 + p.n);
    auto weights = nn::makeRandomWeights<nn::Fixed16>(l, 400 + p.m);
    auto expected = nn::referenceConv(l, input, weights);
    auto got = sim::runLayerFunctional(l, shape, tiling, input, weights);

    for (size_t i = 0; i < expected.raw().size(); ++i) {
        EXPECT_EQ(got.output.raw()[i].bits, expected.raw()[i].bits)
            << "output index " << i;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, EngineSweep,
    ::testing::Values(
        // Perfect fits.
        EngineCase{4, 8, 8, 8, 3, 1, 4, 8, 8, 8},
        EngineCase{4, 8, 8, 8, 3, 1, 2, 4, 4, 4},
        // Tn/Tm larger than N/M (idle lanes must not corrupt data).
        EngineCase{3, 5, 6, 6, 3, 1, 8, 16, 6, 6},
        // Non-dividing Tn/Tm and tilings.
        EngineCase{7, 9, 11, 13, 3, 2, 2, 4, 3, 5},
        EngineCase{5, 12, 10, 10, 5, 1, 3, 5, 4, 7},
        // Stride > 1 with K > S.
        EngineCase{3, 6, 7, 7, 5, 2, 3, 6, 3, 3},
        // 1x1 kernels (SqueezeNet squeeze / GoogLeNet reducers).
        EngineCase{16, 12, 9, 9, 1, 1, 5, 7, 4, 9},
        // AlexNet layer 1a shrunk spatially, same N/M/K/S structure.
        EngineCase{3, 48, 13, 13, 11, 4, 3, 24, 8, 8},
        // Grouped: Tn/Tm straddle the 4-map group spans.
        EngineCase{8, 8, 6, 6, 3, 1, 3, 3, 4, 6, 2},
        // Grouped with asymmetric group sizes (2 in, 6 out per group).
        EngineCase{8, 24, 7, 7, 3, 1, 2, 4, 4, 5, 4},
        // Depthwise (G = N = M), awkward tiling and stride 2.
        EngineCase{6, 6, 5, 5, 3, 2, 2, 2, 3, 4, 6},
        // Depthwise pointwise-expanded (M = 2N, one input per group).
        EngineCase{5, 10, 6, 6, 3, 1, 4, 4, 6, 6, 5}));

TEST(ClpEngine, SingleElementLayer)
{
    nn::ConvLayer l = test::layer(1, 1, 1, 1, 1, 1);
    nn::Tensor3<float> input(1, 1, 1);
    input.at(0, 0, 0) = 3.0f;
    nn::Tensor3<float> weights(1, 1, 1);
    weights.at(0, 0, 0) = -2.0f;
    auto got = sim::runLayerFunctional(l, {1, 1}, {1, 1}, input, weights);
    EXPECT_FLOAT_EQ(got.output.at(0, 0, 0), -6.0f);
    EXPECT_EQ(got.computeCycles, 1);
    EXPECT_EQ(got.rounds, 1);
}

TEST(ClpEngine, RoundsMatchSchedule)
{
    nn::ConvLayer l = test::layer(7, 9, 11, 13, 3, 2);
    auto input = nn::makeRandomInput<float>(l, 1);
    auto weights = nn::makeRandomWeights<float>(l, 2);
    auto got = sim::runLayerFunctional(l, {2, 4}, {3, 5}, input, weights);
    // rsteps=4, csteps=3, msteps=3, nsteps=4.
    EXPECT_EQ(got.rounds, 4 * 3 * 3 * 4);
}

TEST(ClpEngine, ShapeMismatchRejected)
{
    nn::ConvLayer l = test::layer(2, 2, 4, 4, 3, 1);
    nn::Tensor3<float> bad_input(1, 6, 6);
    nn::Tensor3<float> weights(4, 3, 3);
    EXPECT_THROW(
        sim::runLayerFunctional(l, {1, 1}, {4, 4}, bad_input, weights),
        util::FatalError);
}

TEST(ClpEngine, InvalidTilingRejected)
{
    nn::ConvLayer l = test::layer(2, 2, 4, 4, 3, 1);
    auto input = nn::makeRandomInput<float>(l, 1);
    auto weights = nn::makeRandomWeights<float>(l, 2);
    EXPECT_THROW(
        sim::runLayerFunctional(l, {1, 1}, {5, 4}, input, weights),
        util::FatalError);
    EXPECT_THROW(
        sim::runLayerFunctional(l, {0, 1}, {4, 4}, input, weights),
        util::FatalError);
}

} // namespace
} // namespace mclp
