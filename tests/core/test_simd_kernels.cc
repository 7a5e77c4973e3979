/**
 * @file
 * The SIMD kernels (src/util/simd.h) must be bit-identical to their
 * unconditionally-compiled scalar twins — that is the whole contract
 * that lets the optimizer hot loops vectorize without an oracle
 * change. Each kernel is fuzzed against its twin over every tail
 * length 0..kLanes+ (the vector/scalar seam), saturation-edge values
 * (INT64_MAX/MIN sentinels the cap kernels use as "none"), and dense
 * duplicate ranges; a final end-to-end test pins that forcing the
 * scalar path through the public entry points never changes a
 * randomized network's optimized design.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <vector>

#include "core/optimizer.h"
#include "fpga/device.h"
#include "nn/network.h"
#include "util/math.h"
#include "util/simd.h"
#include "util/string_utils.h"

namespace mclp {
namespace {

namespace simd = util::simd;

constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
constexpr int64_t kMin = std::numeric_limits<int64_t>::min();

/** Mixed-magnitude value stream: small ints, edges, dense dupes. */
int64_t
fuzzValue(util::SplitMix64 &rng, bool allow_edges)
{
    switch (rng.nextInt(0, allow_edges ? 5 : 3)) {
    case 0: return rng.nextInt(-4, 4);          // dense duplicates
    case 1: return rng.nextInt(-1000, 1000);
    case 2: return rng.nextInt(-1, 0) == 0
                       ? rng.nextInt(0, 1 << 20)
                       : -rng.nextInt(0, 1 << 20);
    case 3: return rng.nextInt(-3, 3) * 1000000;
    case 4: return rng.nextInt(0, 1) == 0 ? kMax : kMax - rng.nextInt(0, 3);
    default: return rng.nextInt(0, 1) == 0 ? kMin : kMin + rng.nextInt(0, 3);
    }
}

/** Every length crossing the vector/scalar seam, then longer runs. */
std::vector<size_t>
fuzzLengths()
{
    std::vector<size_t> lengths;
    for (size_t n = 0; n <= 3 * simd::kLanes + 1; ++n)
        lengths.push_back(n);
    lengths.push_back(64);
    lengths.push_back(257);
    return lengths;
}

TEST(SimdKernels, CapScanMatchesScalarTwin)
{
    util::SplitMix64 rng(20170803);
    for (size_t n : fuzzLengths()) {
        for (int trial = 0; trial < 16; ++trial) {
            std::vector<int64_t> levels(n), gates(n);
            for (size_t i = 0; i < n; ++i) {
                levels[i] = fuzzValue(rng, true);
                gates[i] = fuzzValue(rng, true);
            }
            int64_t gate_cap = fuzzValue(rng, true);
            int64_t cap = fuzzValue(rng, true);
            int64_t lo_v, hi_v, lo_s, hi_s;
            simd::capScanI64(levels.data(), gates.data(), gate_cap, cap,
                             n, lo_v, hi_v);
            simd::scalar::capScanI64(levels.data(), gates.data(),
                                     gate_cap, cap, n, lo_s, hi_s);
            ASSERT_EQ(lo_v, lo_s) << "n=" << n << " trial=" << trial;
            ASSERT_EQ(hi_v, hi_s) << "n=" << n << " trial=" << trial;
        }
    }
}

TEST(SimdKernels, CapScanSentinelEdges)
{
    // The "none" sentinels themselves: an empty array, all gates shut,
    // all levels at cap, and values equal to the sentinels.
    int64_t lo, hi;
    simd::capScanI64(nullptr, nullptr, 0, 0, 0, lo, hi);
    EXPECT_EQ(lo, kMax);
    EXPECT_EQ(hi, kMin);

    std::vector<int64_t> levels = {kMax, kMin, 0, kMax, kMin, 7};
    std::vector<int64_t> gates = {1, 1, 1, 1, 1, 1};
    simd::capScanI64(levels.data(), gates.data(), 0, kMin, levels.size(),
                     lo, hi);
    int64_t lo_s, hi_s;
    simd::scalar::capScanI64(levels.data(), gates.data(), 0, kMin,
                             levels.size(), lo_s, hi_s);
    EXPECT_EQ(lo, lo_s);
    EXPECT_EQ(hi, hi_s);
    EXPECT_EQ(hi, kMin);  // nothing is strictly below INT64_MIN

    simd::capScanI64(levels.data(), gates.data(), kMax, kMax,
                     levels.size(), lo, hi);
    simd::scalar::capScanI64(levels.data(), gates.data(), kMax, kMax,
                             levels.size(), lo_s, hi_s);
    EXPECT_EQ(lo, lo_s);
    EXPECT_EQ(hi, hi_s);
    EXPECT_EQ(lo, kMin);  // every gate admits; min level is INT64_MIN
}

TEST(SimdKernels, FirstWithinCapsMatchesScalarTwin)
{
    util::SplitMix64 rng(20170804);
    for (size_t n : fuzzLengths()) {
        for (int trial = 0; trial < 16; ++trial) {
            std::vector<int64_t> a(n), b(n);
            for (size_t i = 0; i < n; ++i) {
                a[i] = fuzzValue(rng, true);
                b[i] = fuzzValue(rng, true);
            }
            int64_t cap_a = fuzzValue(rng, true);
            int64_t cap_b = fuzzValue(rng, true);
            ASSERT_EQ(simd::firstWithinCapsI64(a.data(), b.data(), cap_a,
                                               cap_b, n),
                      simd::scalar::firstWithinCapsI64(a.data(), b.data(),
                                                       cap_a, cap_b, n))
                << "n=" << n << " trial=" << trial;
        }
    }
}

/**
 * The whole-pipeline oracle: cold optimizations of randomized
 * networks must produce identical designs with the vector kernels on
 * and with every public entry point forced through the scalar twins.
 * (Under -DMCLP_NO_SIMD both runs are scalar and the test is a
 * tautology — the CI scalar job covers that configuration.)
 */
TEST(SimdKernels, ForcedScalarNeverChangesOptimizedDesigns)
{
    util::SplitMix64 rng(20170805);
    for (int trial = 0; trial < 3; ++trial) {
        std::vector<nn::ConvLayer> layers;
        int count = static_cast<int>(rng.nextInt(3, 6));
        for (int i = 0; i < count; ++i) {
            int64_t k = std::vector<int64_t>{1, 3, 5}[static_cast<size_t>(
                rng.nextInt(0, 2))];
            layers.push_back(nn::makeConvLayer(
                util::strprintf("L%d", i), rng.nextInt(1, 64),
                rng.nextInt(1, 64), rng.nextInt(3, 14),
                rng.nextInt(3, 14), k, 1));
        }
        nn::Network network("simd" + std::to_string(trial), layers);
        fpga::ResourceBudget budget;
        budget.dspSlices = rng.nextInt(200, 2000);
        budget.bram18k = std::max<int64_t>(16, budget.dspSlices / 2);
        budget.frequencyMhz = 100.0;

        util::simd::setForceScalar(false);
        auto vec = core::optimizeMultiClp(network, fpga::DataType::Float32,
                                          budget, 4);
        util::simd::setForceScalar(true);
        auto sca = core::optimizeMultiClp(network, fpga::DataType::Float32,
                                          budget, 4);
        util::simd::setForceScalar(false);

        EXPECT_TRUE(vec.design == sca.design) << "trial " << trial;
        EXPECT_EQ(vec.metrics.epochCycles, sca.metrics.epochCycles)
            << "trial " << trial;
        EXPECT_EQ(vec.iterations, sca.iterations) << "trial " << trial;
    }
}

} // namespace
} // namespace mclp
