/**
 * @file
 * Shared helpers for the test suite.
 */

#ifndef MCLP_TESTS_TEST_HELPERS_H
#define MCLP_TESTS_TEST_HELPERS_H

#include <cstdint>
#include <sstream>
#include <string>

#include "fpga/device.h"
#include "model/clp_config.h"
#include "nn/conv_layer.h"
#include "nn/network.h"

namespace mclp {
namespace test {

/** Terse layer constructor for tests. */
inline nn::ConvLayer
layer(int64_t n, int64_t m, int64_t r, int64_t c, int64_t k, int64_t s,
      const std::string &name = "L")
{
    return nn::makeConvLayer(name, n, m, r, c, k, s);
}

/** Terse grouped-layer constructor for tests. */
inline nn::ConvLayer
groupedLayer(int64_t n, int64_t m, int64_t r, int64_t c, int64_t k,
             int64_t s, int64_t g, const std::string &name = "G")
{
    return nn::makeConvLayer(name, n, m, r, c, k, s, g);
}

/** A single-layer network. */
inline nn::Network
singleLayerNet(const nn::ConvLayer &conv)
{
    return nn::Network("test-net", {conv});
}

/** A single-CLP design covering every layer of @p network. */
inline model::MultiClpDesign
coverAll(const nn::Network &network, int64_t tn, int64_t tm,
         fpga::DataType type = fpga::DataType::Float32)
{
    model::MultiClpDesign design;
    design.dataType = type;
    model::ClpConfig clp;
    clp.shape = model::ClpShape{tn, tm};
    for (size_t i = 0; i < network.numLayers(); ++i) {
        const nn::ConvLayer &l = network.layer(i);
        clp.layers.push_back({i, model::Tiling{l.r, l.c}});
    }
    design.clps.push_back(std::move(clp));
    return design;
}

/** An unconstrained-bandwidth budget with generous DSP/BRAM. */
inline fpga::ResourceBudget
looseBudget()
{
    fpga::ResourceBudget budget;
    budget.dspSlices = 1 << 20;
    budget.bram18k = 1 << 20;
    budget.bandwidthBytesPerCycle = 0.0;
    budget.frequencyMhz = 100.0;
    return budget;
}

/**
 * A parameterized layer case — fields n, m, r, c, k, s, tn, tm, tr,
 * tc, plus g when the case has one — as named dims. Tests hand it to
 * SCOPED_TRACE, so a failing case names its shape instead of a byte
 * dump. (A PrintTo overload would do the same, but
 * gtest_discover_tests builds each ctest name from the printed
 * parameter, so it would rename every case.)
 */
template <class Case>
std::string
layerCaseText(const Case &p)
{
    std::ostringstream os;
    os << "N=" << p.n << " M=" << p.m << " R=" << p.r << " C=" << p.c
       << " K=" << p.k << " S=" << p.s;
    if constexpr (requires { p.g; })
        os << " G=" << p.g;
    os << " Tn=" << p.tn << " Tm=" << p.tm << " Tr=" << p.tr
       << " Tc=" << p.tc;
    return os.str();
}

} // namespace test
} // namespace mclp

#endif // MCLP_TESTS_TEST_HELPERS_H
