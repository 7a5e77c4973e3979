/**
 * @file
 * The warm DSE session layer must be invisible in results: a
 * DseSession::sweep over a budget ladder — one frontier build, shared
 * tiling options, shared tradeoff curves — has to produce designs
 * bit-identical to independent cold MultiClpOptimizer runs per
 * budget, for fixed and randomized networks, compute- and
 * bandwidth-bound budgets, BRAM-starved budgets, and any lent pool.
 * These tests pin exactly that, plus the budget-free frontier
 * truncation the reuse rests on.
 */

#include <gtest/gtest.h>

#include <vector>

#include "core/dse_session.h"
#include "core/memory_optimizer.h"
#include "core/optimizer.h"
#include "fpga/device.h"
#include "nn/zoo.h"
#include "test_helpers.h"
#include "util/logging.h"
#include "util/math.h"
#include "util/thread_pool.h"

namespace mclp {
namespace {

core::OptimizationResult
coldRun(const nn::Network &network, fpga::DataType type,
        const fpga::ResourceBudget &budget,
        const core::OptimizerOptions &options)
{
    return core::MultiClpOptimizer(network, type, budget, options).run();
}

void
expectSameResult(const core::OptimizationResult &warm,
                 const core::OptimizationResult &cold,
                 const std::string &what)
{
    EXPECT_TRUE(warm.design == cold.design) << what << ": designs differ";
    EXPECT_EQ(warm.metrics.epochCycles, cold.metrics.epochCycles) << what;
    EXPECT_EQ(warm.metrics.peakBandwidthBytesPerCycle,
              cold.metrics.peakBandwidthBytesPerCycle)
        << what;
    EXPECT_EQ(warm.achievedTarget, cold.achievedTarget) << what;
    EXPECT_EQ(warm.iterations, cold.iterations) << what;
    EXPECT_EQ(warm.usedHeuristic, cold.usedHeuristic) << what;
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

TEST(DseSession, SweepMatchesColdRunsOnAlexNet)
{
    nn::Network network = nn::makeAlexNet();
    std::vector<fpga::ResourceBudget> budgets =
        core::dspLadder({500, 1000, 2240, 2880}, 100.0);

    core::OptimizerOptions multi;
    multi.maxClps = 6;
    core::DseSession session(network, fpga::DataType::Float32);
    auto warm = session.sweep(budgets, multi);
    ASSERT_EQ(warm.size(), budgets.size());
    for (size_t i = 0; i < budgets.size(); ++i) {
        auto cold = coldRun(network, fpga::DataType::Float32,
                            budgets[i], multi);
        expectSameResult(warm[i], cold,
                         "multi budget " +
                             std::to_string(budgets[i].dspSlices));
    }
}

TEST(DseSession, SweepMatchesColdRunsSingleClp)
{
    nn::Network network = nn::makeAlexNet();
    std::vector<fpga::ResourceBudget> budgets =
        core::dspLadder({250, 750, 2000, 9600}, 100.0);

    core::OptimizerOptions single;
    single.singleClp = true;
    core::DseSession session(network, fpga::DataType::Float32);
    // Descending order: later (smaller) budgets must read prefixes of
    // the table built for the first (largest) rung.
    std::vector<fpga::ResourceBudget> descending(budgets.rbegin(),
                                                 budgets.rend());
    auto warm = session.sweep(descending, single);
    for (size_t i = 0; i < descending.size(); ++i) {
        auto cold = coldRun(network, fpga::DataType::Float32,
                            descending[i], single);
        expectSameResult(warm[i], cold,
                         "single budget " +
                             std::to_string(descending[i].dspSlices));
    }
}

TEST(DseSession, SweepMatchesColdRunsOnRandomNetworks)
{
    util::SplitMix64 rng(20170625);
    for (int trial = 0; trial < 4; ++trial) {
        auto layers = randomLayers(
            rng, static_cast<int>(rng.nextInt(3, 6)));
        nn::Network network("rand" + std::to_string(trial), layers);
        fpga::DataType type = trial % 2 == 0 ? fpga::DataType::Float32
                                             : fpga::DataType::Fixed16;

        std::vector<fpga::ResourceBudget> budgets;
        for (int b = 0; b < 3; ++b) {
            fpga::ResourceBudget budget;
            budget.dspSlices = rng.nextInt(64, 2000);
            // Mix generous and BRAM-starved budgets so both the
            // fast path and the memory-bound fallback are exercised.
            budget.bram18k =
                std::max<int64_t>(8, budget.dspSlices /
                                         (b == 1 ? 8 : 2));
            budget.frequencyMhz = 100.0;
            if (b == 2)
                budget.setBandwidthGbps(
                    static_cast<double>(rng.nextInt(1, 8)));
            budgets.push_back(budget);
        }

        core::OptimizerOptions options;
        options.maxClps = static_cast<int>(rng.nextInt(1, 4));
        core::DseSession session(network, type);
        for (size_t i = 0; i < budgets.size(); ++i) {
            // A hopeless budget makes the optimizer fatal(); warm and
            // cold must then agree on that too.
            std::optional<core::OptimizationResult> warm;
            std::optional<core::OptimizationResult> cold;
            try {
                warm = session.optimize(budgets[i], options);
            } catch (const util::FatalError &) {
            }
            try {
                cold = coldRun(network, type, budgets[i], options);
            } catch (const util::FatalError &) {
            }
            ASSERT_EQ(warm.has_value(), cold.has_value())
                << "trial " << trial << " budget "
                << budgets[i].dspSlices;
            if (warm) {
                expectSameResult(
                    *warm, *cold,
                    "trial " + std::to_string(trial) + " budget " +
                        std::to_string(budgets[i].dspSlices));
            }
        }
    }
}

TEST(DseSession, ThreadCountNeverChangesResults)
{
    nn::Network network = nn::makeAlexNet();
    std::vector<fpga::ResourceBudget> budgets =
        core::dspLadder({500, 1000, 1500, 2240, 2880, 3600}, 100.0);

    core::OptimizerOptions multi;
    multi.maxClps = 6;
    util::ThreadPool pool(4);
    core::OptimizerOptions pooled = multi;
    pooled.pool = &pool;
    core::DseSession serial(network, fpga::DataType::Float32);
    core::DseSession threaded(network, fpga::DataType::Float32);
    auto a = serial.sweep(budgets, multi);
    auto b = threaded.sweep(budgets, pooled);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i)
        expectSameResult(a[i], b[i],
                         "budget " +
                             std::to_string(budgets[i].dspSlices));
}

TEST(DseSession, RepeatedOptimizeIsStable)
{
    nn::Network network = nn::makeAlexNet();
    fpga::ResourceBudget budget =
        fpga::standardBudget(fpga::virtex7_690t(), 100.0);

    core::DseSession session(network, fpga::DataType::Float32);
    auto first = session.optimize(budget);
    auto second = session.optimize(budget);
    expectSameResult(second, first, "repeat");
    auto cold = coldRun(network, fpga::DataType::Float32, budget, {});
    expectSameResult(first, cold, "vs cold");
}

TEST(DseSession, TradeoffCurveMatchesColdWalk)
{
    nn::Network network = nn::makeAlexNet();
    auto result = core::optimizeMultiClp(
        network, fpga::DataType::Float32,
        fpga::standardBudget(fpga::virtex7_485t(), 100.0), 4);

    core::DseSession session(network, fpga::DataType::Float32);
    auto warm1 = session.tradeoffCurve(result.partition);
    auto warm2 = session.tradeoffCurve(result.partition);  // memoized
    core::MemoryOptimizer cold_memory(network, fpga::DataType::Float32);
    auto cold = cold_memory.tradeoffCurve(result.partition);

    ASSERT_EQ(warm1.size(), cold.size());
    ASSERT_EQ(warm2.size(), cold.size());
    for (size_t i = 0; i < cold.size(); ++i) {
        EXPECT_EQ(warm1[i].totalBram, cold[i].totalBram);
        EXPECT_EQ(warm1[i].peakBytesPerCycle, cold[i].peakBytesPerCycle);
        EXPECT_TRUE(warm1[i].design == cold[i].design);
        EXPECT_TRUE(warm2[i].design == cold[i].design);
    }
}

TEST(DseSession, DspLadderScalesBramLikeFigure7)
{
    auto budgets = core::dspLadder({100, 1300, 10000}, 100.0);
    ASSERT_EQ(budgets.size(), 3u);
    EXPECT_EQ(budgets[0].dspSlices, 100);
    EXPECT_EQ(budgets[0].bram18k,
              std::max<int64_t>(1, static_cast<int64_t>(100 / 1.3)));
    EXPECT_EQ(budgets[1].bram18k, static_cast<int64_t>(1300 / 1.3));
    EXPECT_EQ(budgets[2].bram18k, static_cast<int64_t>(10000 / 1.3));
    EXPECT_FALSE(budgets[0].bandwidthLimited());

    fpga::ResourceBudget base =
        fpga::standardBudget(fpga::virtex7_690t(), 150.0);
    base.setBandwidthGbps(10.0);
    auto laddered = core::dspLadder({512, 1024}, 150.0, 1.3, &base);
    EXPECT_EQ(laddered[0].dspSlices, 512);
    EXPECT_EQ(laddered[0].bram18k, base.bram18k);
    EXPECT_EQ(laddered[1].bandwidthBytesPerCycle,
              base.bandwidthBytesPerCycle);
}

// The truncation property every cross-budget reuse rests on: a
// budget-free frontier answers any capped query exactly as a frontier
// built under that cap would.
TEST(DseSession, BudgetFreeFrontierAnswersCappedQueriesByTruncation)
{
    util::SplitMix64 rng(20170626);
    for (int trial = 0; trial < 20; ++trial) {
        auto layers = randomLayers(
            rng, static_cast<int>(rng.nextInt(1, 4)));
        std::vector<const nn::ConvLayer *> ptrs;
        for (const auto &layer : layers)
            ptrs.push_back(&layer);
        fpga::DataType type = trial % 2 == 0 ? fpga::DataType::Float32
                                             : fpga::DataType::Fixed16;

        core::BreakpointCache cache;
        core::ShapeFrontier free(ptrs, type, core::kUnboundedResources,
                                 cache);
        for (int probe = 0; probe < 8; ++probe) {
            int64_t units_cap = rng.nextInt(1, 800);
            int64_t dsp_cap = units_cap * fpga::dspPerMac(type);
            core::ShapeFrontier capped(ptrs, type, units_cap, cache);
            int64_t tight = layers[0].r * layers[0].c * layers[0].n *
                            layers[0].m * layers[0].k * layers[0].k;
            for (int64_t target :
                 {int64_t{1}, tight / 4 + 1, tight / 2 + 1, tight * 4}) {
                auto a = free.query(target, dsp_cap);
                auto b = capped.query(target);
                ASSERT_EQ(a.has_value(), b.has_value())
                    << "trial " << trial << " cap " << units_cap
                    << " target " << target;
                if (!a)
                    continue;
                EXPECT_EQ(a->shape.tn, b->shape.tn);
                EXPECT_EQ(a->shape.tm, b->shape.tm);
                EXPECT_EQ(a->dsp, b->dsp);
                EXPECT_EQ(a->cycles, b->cycles);
            }
            if (!capped.empty()) {
                EXPECT_EQ(free.minCycles(dsp_cap), capped.minCycles());
            } else {
                EXPECT_EQ(free.minCycles(dsp_cap),
                          core::kUnboundedResources);
            }
        }
    }
}

} // namespace
} // namespace mclp
