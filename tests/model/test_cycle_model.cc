#include <gtest/gtest.h>

#include "model/cycle_model.h"
#include "model/dsp_model.h"
#include "nn/zoo.h"
#include "test_helpers.h"
#include "util/logging.h"
#include "util/math.h"

namespace mclp {
namespace {

TEST(CycleModel, FormulaOnSimpleLayer)
{
    nn::ConvLayer l = test::layer(10, 20, 8, 8, 3, 1);
    // ceil(10/4)=3, ceil(20/8)=3: 8*8*3*3*9 = 5184.
    EXPECT_EQ(model::layerCycles(l, {4, 8}), 5184);
    // Perfect fit: 8*8*1*1*9.
    EXPECT_EQ(model::layerCycles(l, {10, 20}), 576);
    // Oversized grid changes nothing.
    EXPECT_EQ(model::layerCycles(l, {16, 32}), 576);
}

TEST(CycleModel, GroupedFormulaScalesByGroups)
{
    // 4 groups of 8-in/16-out maps on a 4x8 grid: each group takes
    // ceil(8/4)*ceil(16/8) = 4 tile rounds of R*C*K^2 cycles, and the
    // groups run back to back.
    nn::ConvLayer l = test::groupedLayer(32, 64, 8, 8, 3, 1, 4);
    EXPECT_EQ(model::layerCycles(l, {4, 8}),
              4 * 8 * 8 * 2 * 2 * 9);
    // A grid sized for one whole group finishes in G rounds.
    EXPECT_EQ(model::layerCycles(l, {8, 16}), 4 * 8 * 8 * 9);
    // An oversized grid cannot merge groups: still G rounds, so the
    // grouped layer can never beat G * R*C*K^2.
    EXPECT_EQ(model::layerCycles(l, {32, 64}), 4 * 8 * 8 * 9);
}

TEST(CycleModel, DepthwiseCyclesIndependentOfGrid)
{
    // Depthwise: every group is 1x1 maps, so any grid runs it in
    // G * R*C*K^2 cycles — the shape that starves wide CLPs.
    nn::ConvLayer l = test::groupedLayer(96, 96, 14, 14, 3, 1, 96);
    EXPECT_EQ(model::layerCycles(l, {1, 1}), 96 * 14 * 14 * 9);
    EXPECT_EQ(model::layerCycles(l, {9, 64}), 96 * 14 * 14 * 9);
}

TEST(CycleModel, AlexNetSingleClp485MatchesTable2a)
{
    // Table 2(a): Tn=7, Tm=64 computes layer pairs in 732/510/338/
    // 256/170 kcycles, 2,006k total.
    nn::Network net = nn::makeAlexNet();
    model::ClpShape shape{7, 64};
    auto pair = [&](size_t i) {
        return model::layerCycles(net.layer(i), shape) +
               model::layerCycles(net.layer(i + 1), shape);
    };
    EXPECT_EQ(pair(0), 732050);
    EXPECT_EQ(pair(2), 510300);
    EXPECT_EQ(pair(4), 337662);
    EXPECT_EQ(pair(6), 255528);
    EXPECT_EQ(pair(8), 170352);
    int64_t total = 0;
    for (size_t i = 0; i < 10; ++i)
        total += model::layerCycles(net.layer(i), shape);
    EXPECT_EQ(total, 2005892);
}

TEST(CycleModel, AlexNetSingleClp690MatchesTable2b)
{
    // Table 2(b): Tn=9, Tm=64 -> 732/437/265/201/134 kcycles, 1,769k.
    nn::Network net = nn::makeAlexNet();
    model::ClpShape shape{9, 64};
    auto pair = [&](size_t i) {
        return model::layerCycles(net.layer(i), shape) +
               model::layerCycles(net.layer(i + 1), shape);
    };
    EXPECT_EQ(pair(0), 732050);
    EXPECT_EQ(pair(2), 437400);
    EXPECT_EQ(pair(4), 264654);
    EXPECT_EQ(pair(6), 200772);
    EXPECT_EQ(pair(8), 133848);
    int64_t total = 0;
    for (size_t i = 0; i < 10; ++i)
        total += model::layerCycles(net.layer(i), shape);
    EXPECT_EQ(total, 1768724);
}

TEST(CycleModel, AlexNetMultiClp485MatchesTable2c)
{
    // Table 2(c): per-CLP cycle counts 584+876 / 1,558 / 1,464 / 1,531
    // kcycles for CLP0..CLP3.
    nn::Network net = nn::makeAlexNet();
    // CLP0: Tn=2, Tm=64 on 5a/5b then 4a/4b.
    model::ClpShape clp0{2, 64};
    EXPECT_EQ(model::layerCycles(net.layer(8), clp0) +
                  model::layerCycles(net.layer(9), clp0),
              584064);
    EXPECT_EQ(model::layerCycles(net.layer(6), clp0) +
                  model::layerCycles(net.layer(7), clp0),
              876096);
    // CLP1: Tn=1, Tm=96 on 3a/3b.
    model::ClpShape clp1{1, 96};
    EXPECT_EQ(model::layerCycles(net.layer(4), clp1) +
                  model::layerCycles(net.layer(5), clp1),
              1557504);
    // CLP2: Tn=3, Tm=24 on 1a/1b.
    model::ClpShape clp2{3, 24};
    EXPECT_EQ(model::layerCycles(net.layer(0), clp2) +
                  model::layerCycles(net.layer(1), clp2),
              1464100);
    // CLP3: Tn=8, Tm=19 on 2a/2b.
    model::ClpShape clp3{8, 19};
    EXPECT_EQ(model::layerCycles(net.layer(2), clp3) +
                  model::layerCycles(net.layer(3), clp3),
              1530900);
}

TEST(CycleModel, AlexNetMultiClp690MatchesTable2d)
{
    nn::Network net = nn::makeAlexNet();
    // CLP0: Tn=1, Tm=64 on 5a/5b -> 1,168k.
    EXPECT_EQ(model::layerCycles(net.layer(8), {1, 64}) +
                  model::layerCycles(net.layer(9), {1, 64}),
              1168128);
    // CLP1: Tn=1, Tm=96 on 4a/4b -> 1,168k.
    EXPECT_EQ(model::layerCycles(net.layer(6), {1, 96}) +
                  model::layerCycles(net.layer(7), {1, 96}),
              1168128);
    // CLP2: Tn=2, Tm=64 on 3a/3b -> 1,168k.
    EXPECT_EQ(model::layerCycles(net.layer(4), {2, 64}) +
                  model::layerCycles(net.layer(5), {2, 64}),
              1168128);
    // CLP3/CLP4: Tn=1, Tm=48 on 1a (and 1b) -> 1,098k each.
    EXPECT_EQ(model::layerCycles(net.layer(0), {1, 48}), 1098075);
    EXPECT_EQ(model::layerCycles(net.layer(1), {1, 48}), 1098075);
    // CLP5: Tn=3, Tm=64 on 2a/2b -> 1,166k.
    EXPECT_EQ(model::layerCycles(net.layer(2), {3, 64}) +
                  model::layerCycles(net.layer(3), {3, 64}),
              1166400);
}

TEST(CycleModel, SqueezeNetMultiClp690SpotChecks)
{
    // Hand-derived from Table 4(d) while verifying the SqueezeNet
    // v1.1 layer table (see DESIGN.md).
    nn::Network net = nn::makeSqueezeNet();
    // CLP1: Tn=3, Tm=64 on layer 1 (conv1) -> 115k.
    EXPECT_EQ(model::layerCycles(net.layer(0), {3, 64}), 114921);
    // CLP0: Tn=8, Tm=16 on layers 2,6,3,5 -> 125k.
    int64_t clp0 = 0;
    for (size_t idx : {1u, 5u, 2u, 4u})
        clp0 += model::layerCycles(net.layer(idx), {8, 16});
    EXPECT_EQ(clp0, 125440);
    // CLP5: Tn=16, Tm=26 on layers 13,10 -> 141k.
    EXPECT_EQ(model::layerCycles(net.layer(12), {16, 26}) +
                  model::layerCycles(net.layer(9), {16, 26}),
              141120);
}

TEST(CycleModel, ClpComputeCyclesSumsLayers)
{
    nn::Network net = nn::makeAlexNet();
    model::ClpConfig clp;
    clp.shape = {7, 64};
    for (size_t i = 0; i < net.numLayers(); ++i)
        clp.layers.push_back({i, {net.layer(i).r, net.layer(i).c}});
    EXPECT_EQ(model::clpComputeCycles(clp, net), 2005892);
}

TEST(CycleModel, MinimumPossibleCycles)
{
    nn::Network net = nn::makeAlexNet();
    EXPECT_EQ(model::minimumPossibleCycles(net, 448),
              util::ceilDiv<int64_t>(665784864, 448));
    EXPECT_THROW(model::minimumPossibleCycles(net, 0), util::FatalError);
}

struct UtilCase
{
    int64_t n, m, tn, tm;
};

class UtilizationProperty : public ::testing::TestWithParam<UtilCase>
{
};

TEST_P(UtilizationProperty, BoundedAndConsistent)
{
    UtilCase p = GetParam();
    SCOPED_TRACE(::testing::Message() << "N=" << p.n << " M=" << p.m
                                      << " Tn=" << p.tn << " Tm=" << p.tm);
    nn::ConvLayer l = test::layer(p.n, p.m, 13, 13, 3, 1);
    model::ClpShape shape{p.tn, p.tm};
    double util = model::layerUtilization(l, shape);
    EXPECT_GT(util, 0.0);
    EXPECT_LE(util, 1.0 + 1e-12);
    // Cycles can never beat work / units.
    int64_t cycles = model::layerCycles(l, shape);
    EXPECT_GE(cycles * shape.macUnits(), l.macs());
    // Perfect divisibility means perfect utilization.
    if (p.n % p.tn == 0 && p.m % p.tm == 0) {
        EXPECT_DOUBLE_EQ(util, 1.0);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, UtilizationProperty,
    ::testing::Values(UtilCase{3, 64, 9, 64}, UtilCase{64, 16, 9, 64},
                      UtilCase{48, 128, 8, 64}, UtilCase{256, 192, 2, 64},
                      UtilCase{192, 128, 1, 64}, UtilCase{7, 7, 7, 7},
                      UtilCase{100, 100, 3, 7},
                      UtilCase{512, 1000, 32, 87}));

TEST(CycleModel, SqueezeNetLayerOneUtilizationQuote)
{
    // Section 3.2: with Tn,Tm = 9,64 SqueezeNet layer 1 (N,M = 3,64)
    // utilizes 33.3% and layer 2 (N,M = 64,16) utilizes 22.2%.
    nn::Network net = nn::makeSqueezeNet();
    EXPECT_NEAR(model::layerUtilization(net.layer(0), {9, 64}), 1.0 / 3.0,
                1e-9);
    EXPECT_NEAR(model::layerUtilization(net.layer(1), {9, 64}), 2.0 / 9.0,
                1e-9);
}

} // namespace
} // namespace mclp
