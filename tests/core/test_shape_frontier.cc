/**
 * @file
 * The shape-frontier engine must be an exact drop-in for the
 * brute-force shape search: same minimum-DSP shape, same tie-breaks,
 * for every layer range, budget, and target. These tests check the
 * frontier against an independent all-pairs oracle on randomized
 * layers, the two ComputeOptimizer engines against each other, and
 * that thread count never changes optimizer results.
 */

#include <gtest/gtest.h>

#include <numeric>
#include <optional>
#include <vector>

#include "core/compute_optimizer.h"
#include "core/optimizer.h"
#include "core/shape_frontier.h"
#include "model/dsp_model.h"
#include "nn/zoo.h"
#include "test_helpers.h"
#include "util/math.h"
#include "util/thread_pool.h"

namespace mclp {
namespace {

/** All-pairs oracle: min-DSP shape, ties to fewer cycles, lower Tn. */
struct OracleChoice
{
    model::ClpShape shape;
    int64_t dsp = 0;
    int64_t cycles = 0;
};

int64_t
rangeCycles(const std::vector<nn::ConvLayer> &layers, int64_t tn,
            int64_t tm)
{
    int64_t total = 0;
    for (const nn::ConvLayer &layer : layers)
        total += layer.r * layer.c * util::ceilDiv(layer.n, tn) *
                 util::ceilDiv(layer.m, tm) * layer.k * layer.k;
    return total;
}

std::optional<OracleChoice>
bruteForce(const std::vector<nn::ConvLayer> &layers, fpga::DataType type,
           int64_t units_budget, int64_t cycle_target)
{
    int64_t max_n = 0;
    int64_t max_m = 0;
    for (const nn::ConvLayer &layer : layers) {
        max_n = std::max(max_n, layer.n);
        max_m = std::max(max_m, layer.m);
    }
    std::optional<OracleChoice> best;
    for (int64_t tn = 1; tn <= std::min(max_n, units_budget); ++tn) {
        for (int64_t tm = 1; tm <= std::min(max_m, units_budget / tn);
             ++tm) {
            int64_t cycles = rangeCycles(layers, tn, tm);
            if (cycles > cycle_target)
                continue;
            int64_t dsp = model::clpDsp({tn, tm}, type);
            bool better =
                !best || dsp < best->dsp ||
                (dsp == best->dsp && cycles < best->cycles);
            if (better)
                best = OracleChoice{{tn, tm}, dsp, cycles};
        }
    }
    return best;
}

std::vector<nn::ConvLayer>
randomLayers(util::SplitMix64 &rng, int count)
{
    std::vector<nn::ConvLayer> layers;
    for (int i = 0; i < count; ++i) {
        int64_t k = std::vector<int64_t>{1, 3, 5}[static_cast<size_t>(
            rng.nextInt(0, 2))];
        std::string name("L");
        name += std::to_string(i);
        layers.push_back(nn::makeConvLayer(
            std::move(name), rng.nextInt(1, 64), rng.nextInt(1, 64),
            rng.nextInt(3, 14), rng.nextInt(3, 14), k, 1));
    }
    return layers;
}

/**
 * A zoo-like chain of @p count layers: channels in multiples of 16
 * (each layer's N is the previous layer's M), 1x1/3x3/5x5 kernels,
 * and one grouped layer (depthwise when its N and M agree).
 */
std::vector<nn::ConvLayer>
chainLayers(util::SplitMix64 &rng, int count)
{
    static const int64_t kChannels[] = {16, 32, 48, 64, 96, 128, 192, 256};
    int64_t n = kChannels[rng.nextInt(0, 2)];
    int64_t spatial = rng.nextInt(0, 1) ? 28 : 14;
    int grouped = static_cast<int>(rng.nextInt(0, count - 1));
    std::vector<nn::ConvLayer> layers;
    for (int i = 0; i < count; ++i) {
        int64_t m = kChannels[rng.nextInt(0, 7)];
        int64_t k = std::vector<int64_t>{1, 3, 5}[static_cast<size_t>(
            rng.nextInt(0, 2))];
        int64_t g = 1;
        if (i == grouped) {
            m = n;
            g = rng.nextInt(0, 1) ? n : 16;
        }
        std::string name("C");
        name += std::to_string(i);
        layers.push_back(nn::makeConvLayer(std::move(name), n, m, spatial,
                                           spatial, k, 1, g));
        n = m;
        if (spatial > 7 && rng.nextInt(0, 3) == 0)
            spatial /= 2;
    }
    return layers;
}

TEST(ShapeFrontier, MatchesBruteForceOnRandomRanges)
{
    util::SplitMix64 rng(20170624);  // ISCA'17 vibes, deterministic
    for (int trial = 0; trial < 40; ++trial) {
        auto layers = randomLayers(
            rng, static_cast<int>(rng.nextInt(1, 5)));
        std::vector<const nn::ConvLayer *> ptrs;
        for (const auto &layer : layers)
            ptrs.push_back(&layer);
        fpga::DataType type = trial % 2 == 0 ? fpga::DataType::Float32
                                             : fpga::DataType::Fixed16;
        int64_t units_budget = rng.nextInt(1, 600);

        core::BreakpointCache cache;
        core::ShapeFrontier frontier(ptrs, type, units_budget, cache);

        // Probe targets around the achievable range, plus extremes.
        int64_t tight = rangeCycles(layers, layers[0].n, layers[0].m);
        for (int probe = 0; probe < 12; ++probe) {
            int64_t target = probe == 0
                                 ? 1
                                 : tight * (probe + 1) / 3 + probe;
            auto expect =
                bruteForce(layers, type, units_budget, target);
            auto got = frontier.query(target);
            ASSERT_EQ(expect.has_value(), got.has_value())
                << "feasibility mismatch at target " << target;
            if (!expect)
                continue;
            EXPECT_EQ(expect->shape.tn, got->shape.tn);
            EXPECT_EQ(expect->shape.tm, got->shape.tm);
            EXPECT_EQ(expect->dsp, got->dsp);
            EXPECT_EQ(expect->cycles, got->cycles);
        }
    }
}

TEST(ShapeFrontier, PointsFormStrictStaircase)
{
    util::SplitMix64 rng(7);
    auto layers = randomLayers(rng, 4);
    std::vector<const nn::ConvLayer *> ptrs;
    for (const auto &layer : layers)
        ptrs.push_back(&layer);
    core::BreakpointCache cache;
    core::ShapeFrontier frontier(ptrs, fpga::DataType::Float32, 500,
                                 cache);
    ASSERT_FALSE(frontier.empty());
    const auto points = frontier.points();
    for (size_t i = 1; i < points.size(); ++i) {
        EXPECT_GT(points[i].dsp, points[i - 1].dsp);
        EXPECT_LT(points[i].cycles, points[i - 1].cycles);
    }
}

/**
 * A builder laid out over a whole run and fed it one layer at a time
 * must answer, at every prefix, exactly what a frontier built over
 * that prefix alone answers: the run's later breakpoints never emit a
 * point. Both at the builder's cap and at a smaller budget, over
 * grouped layers, repeated dims (drawn from a small pool), both data
 * types and caps from 1 to 3000.
 */
TEST(ShapeFrontier, BuilderOverAWholeRunMatchesFreshFrontiersAtEveryPrefix)
{
    util::SplitMix64 rng(2026);
    static const int64_t kDims[] = {3, 16, 24, 48, 64, 96, 100, 128};
    for (int trial = 0; trial < 60; ++trial) {
        std::vector<nn::ConvLayer> layers;
        int count = static_cast<int>(rng.nextInt(1, 12));
        for (int i = 0; i < count; ++i) {
            int64_t n = kDims[rng.nextInt(0, 7)];
            int64_t m = kDims[rng.nextInt(0, 7)];
            int64_t g = 1;
            if (rng.nextInt(0, 3) == 0) {
                m = n;
                g = rng.nextInt(0, 1) ? n : std::gcd(n, int64_t{16});
            }
            std::string name("L");
            name += std::to_string(i);
            layers.push_back(nn::makeConvLayer(
                std::move(name), n, m, rng.nextInt(3, 14),
                rng.nextInt(3, 14), 2 * rng.nextInt(0, 2) + 1, 1, g));
        }
        std::vector<const nn::ConvLayer *> run;
        for (const nn::ConvLayer &layer : layers)
            run.push_back(&layer);
        fpga::DataType type = trial % 2 == 0 ? fpga::DataType::Float32
                                             : fpga::DataType::Fixed16;
        int64_t cap = trial == 0 ? 1 : trial == 1 ? 3000
                                                  : rng.nextInt(1, 3000);

        core::BreakpointCache cache;
        core::ShapeFrontier::Builder builder(run, cap, cache);
        for (size_t p = 0; p < run.size(); ++p) {
            SCOPED_TRACE(testing::Message()
                         << "trial " << trial << ", prefix of " << p + 1
                         << " of " << run.size() << " layers, cap " << cap);
            builder.addLayer(*run[p], cache);
            ASSERT_EQ(builder.layers(), p + 1);
            std::vector<const nn::ConvLayer *> prefix(
                run.begin(), run.begin() + static_cast<ptrdiff_t>(p + 1));
            int64_t lower = rng.nextInt(1, cap);
            for (int64_t budget : {cap, lower}) {
                core::ShapeFrontier fresh(prefix, type, budget, cache);
                std::vector<core::FrontierPoint> want = fresh.points();
                std::vector<core::FrontierPoint> got =
                    builder.build(type, budget).points();
                ASSERT_EQ(got.size(), want.size()) << "budget " << budget;
                for (size_t i = 0; i < want.size(); ++i) {
                    EXPECT_EQ(got[i].shape.tn, want[i].shape.tn);
                    EXPECT_EQ(got[i].shape.tm, want[i].shape.tm);
                    EXPECT_EQ(got[i].dsp, want[i].dsp);
                    EXPECT_EQ(got[i].cycles, want[i].cycles);
                }
            }
        }
    }
}

/** The two engines must produce identical candidate partitions. */
TEST(ShapeFrontier, EnginesAgreeOnComputeCandidates)
{
    util::SplitMix64 rng(99);
    for (int trial = 0; trial < 10; ++trial) {
        auto layers = randomLayers(
            rng, static_cast<int>(rng.nextInt(2, 8)));
        nn::Network net("rand", layers);
        std::vector<size_t> order(net.numLayers());
        for (size_t i = 0; i < order.size(); ++i)
            order[i] = i;

        core::ComputeOptimizer fast(net, fpga::DataType::Float32, order,
                                    4, core::ComputeEngine::Frontier);
        core::ComputeOptimizer slow(net, fpga::DataType::Float32, order,
                                    4, core::ComputeEngine::Reference);
        for (int probe = 0; probe < 6; ++probe) {
            int64_t budget = rng.nextInt(100, 3000);
            int64_t target = rng.nextInt(1000, 4000000);
            auto a = fast.optimize(budget, target);
            auto b = slow.optimize(budget, target);
            ASSERT_EQ(a.size(), b.size())
                << "candidate count diverged";
            for (size_t ci = 0; ci < a.size(); ++ci) {
                EXPECT_EQ(a[ci].totalDsp, b[ci].totalDsp);
                ASSERT_EQ(a[ci].groups.size(), b[ci].groups.size());
                for (size_t g = 0; g < a[ci].groups.size(); ++g) {
                    EXPECT_EQ(a[ci].groups[g].shape.tn,
                              b[ci].groups[g].shape.tn);
                    EXPECT_EQ(a[ci].groups[g].shape.tm,
                              b[ci].groups[g].shape.tm);
                    EXPECT_EQ(a[ci].groups[g].cycles,
                              b[ci].groups[g].cycles);
                    EXPECT_EQ(a[ci].groups[g].layers,
                              b[ci].groups[g].layers);
                }
            }
        }
    }
}

/** Full-optimizer agreement: frontier + bisection == Listing 3. */
TEST(ShapeFrontier, EnginesAgreeOnAlexNetDesigns)
{
    nn::Network net = nn::makeAlexNet();
    for (const char *device : {"485t", "690t"}) {
        auto budget =
            fpga::standardBudget(fpga::deviceByName(device), 100.0);
        core::OptimizerOptions fast;
        fast.engine = core::OptimizerEngine::Frontier;
        core::OptimizerOptions slow;
        slow.engine = core::OptimizerEngine::Reference;
        auto a = core::MultiClpOptimizer(net, fpga::DataType::Float32,
                                         budget, fast)
                     .run();
        auto b = core::MultiClpOptimizer(net, fpga::DataType::Float32,
                                         budget, slow)
                     .run();
        EXPECT_EQ(a.metrics.epochCycles, b.metrics.epochCycles);
        EXPECT_EQ(a.iterations, b.iterations);
        EXPECT_DOUBLE_EQ(a.achievedTarget, b.achievedTarget);
        EXPECT_EQ(a.usedHeuristic, b.usedHeuristic);
        EXPECT_EQ(a.design.toString(net), b.design.toString(net));
    }
}

/**
 * Randomized full-optimizer parity: the bisection fast path rests on
 * an empirical monotonicity assumption (see runWithOrder), so probe
 * it across random networks and budgets, not just the zoo: short
 * plain networks with arbitrary channel counts, plus two 8-14-layer
 * zoo-like chains with a grouped layer, whose table rows reach far
 * past their first miss. Odd trials run Fixed16.
 */
TEST(ShapeFrontier, EnginesAgreeOnRandomNetworks)
{
    util::SplitMix64 rng(424242);
    for (int trial = 0; trial < 10; ++trial) {
        bool chain = trial % 5 == 4;
        auto layers =
            chain ? chainLayers(rng, static_cast<int>(rng.nextInt(8, 14)))
                  : randomLayers(rng, static_cast<int>(rng.nextInt(2, 6)));
        fpga::DataType type = trial % 2 == 0 ? fpga::DataType::Float32
                                             : fpga::DataType::Fixed16;
        nn::Network net("rand", layers);
        fpga::ResourceBudget budget;
        // 12-560 MAC units (up to 100 on a chain) whatever the type,
        // so both types enumerate like-sized shape sets.
        budget.dspSlices =
            fpga::dspPerMac(type) * rng.nextInt(12, chain ? 100 : 560);
        budget.bram18k = rng.nextInt(100, 2000);
        core::OptimizerOptions fast;
        fast.engine = core::OptimizerEngine::Frontier;
        fast.maxClps = 3;
        core::OptimizerOptions slow;
        slow.engine = core::OptimizerEngine::Reference;
        slow.maxClps = 3;
        std::optional<core::OptimizationResult> a;
        std::optional<core::OptimizationResult> b;
        try {
            a = core::MultiClpOptimizer(net, type, budget, fast).run();
        } catch (const util::FatalError &) {
        }
        try {
            b = core::MultiClpOptimizer(net, type, budget, slow).run();
        } catch (const util::FatalError &) {
        }
        ASSERT_EQ(a.has_value(), b.has_value())
            << "feasibility diverged on trial " << trial;
        if (!a)
            continue;
        EXPECT_EQ(a->metrics.epochCycles, b->metrics.epochCycles);
        EXPECT_EQ(a->iterations, b->iterations);
        EXPECT_EQ(a->design.toString(net), b->design.toString(net))
            << "designs diverged on trial " << trial;
    }
}

/**
 * Bandwidth-limited feasibility is not monotone in the target, so the
 * Frontier engine must fall back to the linear scan there and still
 * match the Reference engine exactly (this diverged once: a galloping
 * search skipped the true first-feasible step on this very case).
 */
TEST(ShapeFrontier, EnginesAgreeUnderBandwidthCap)
{
    nn::Network net = nn::makeSqueezeNet();
    auto budget = fpga::standardBudget(fpga::virtex7_690t(), 170.0);
    budget.setBandwidthGbps(21.3);
    core::OptimizerOptions fast;
    fast.engine = core::OptimizerEngine::Frontier;
    core::OptimizerOptions slow;
    slow.engine = core::OptimizerEngine::Reference;
    auto a = core::MultiClpOptimizer(net, fpga::DataType::Fixed16,
                                     budget, fast)
                 .run();
    auto b = core::MultiClpOptimizer(net, fpga::DataType::Fixed16,
                                     budget, slow)
                 .run();
    EXPECT_EQ(a.metrics.epochCycles, b.metrics.epochCycles);
    EXPECT_EQ(a.iterations, b.iterations);
    EXPECT_EQ(a.design.toString(net), b.design.toString(net));
}

/** A lent pool must never change results. */
TEST(ShapeFrontier, ThreadCountDoesNotChangeResults)
{
    nn::Network net = nn::makeSqueezeNet();
    auto budget = fpga::standardBudget(fpga::virtex7_690t(), 170.0);
    core::OptimizerOptions one;
    util::ThreadPool pool(8);
    core::OptimizerOptions many;
    many.pool = &pool;
    auto a = core::MultiClpOptimizer(net, fpga::DataType::Fixed16,
                                     budget, one)
                 .run();
    auto b = core::MultiClpOptimizer(net, fpga::DataType::Fixed16,
                                     budget, many)
                 .run();
    EXPECT_EQ(a.metrics.epochCycles, b.metrics.epochCycles);
    EXPECT_EQ(a.iterations, b.iterations);
    EXPECT_DOUBLE_EQ(a.achievedTarget, b.achievedTarget);
    EXPECT_EQ(a.usedHeuristic, b.usedHeuristic);
    EXPECT_EQ(a.design.toString(net), b.design.toString(net));
}

TEST(BreakpointCache, BreakpointsAreExactlyTheCeilingSteps)
{
    core::BreakpointCache cache;
    for (int64_t d : {1, 2, 7, 10, 96, 192, 384, 1000}) {
        const auto &table = cache.table(d);
        ASSERT_FALSE(table.bps.empty());
        EXPECT_EQ(table.bps.front(), 1);
        for (size_t k = 0; k < table.bps.size(); ++k) {
            int64_t t = table.bps[k];
            EXPECT_EQ(table.ceils[k], util::ceilDiv(d, t));
            if (t > 1) {
                EXPECT_NE(util::ceilDiv(d, t), util::ceilDiv(d, t - 1))
                    << "breakpoint " << t << " of " << d
                    << " changes nothing";
            }
        }
        // Completeness: every step of ceil(d/t) is listed.
        size_t k = 0;
        for (int64_t t = 1; t <= d; ++t) {
            if (k + 1 < table.bps.size() && table.bps[k + 1] <= t)
                ++k;
            EXPECT_EQ(util::ceilDiv(d, t), table.ceils[k]);
        }
    }
}

} // namespace
} // namespace mclp
