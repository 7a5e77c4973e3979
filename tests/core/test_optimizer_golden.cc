/**
 * @file
 * Golden Table-1 cells: the Single-CLP utilizations our optimizer
 * must reproduce to the paper's printed decimal, and Multi-CLP floors
 * it must meet or beat. These pin the whole stack end to end
 * (network zoo -> models -> optimizer).
 */

#include <gtest/gtest.h>

#include "core/optimizer.h"
#include "nn/zoo.h"
#include "test_helpers.h"

namespace mclp {
namespace {

struct GoldenCase
{
    const char *network;
    const char *device;
    fpga::DataType type;
    double paperSingleUtil;  ///< Table 1 S-CLP cell
    double paperMultiUtil;   ///< Table 1 M-CLP cell (floor for ours)
};

class Table1Golden : public ::testing::TestWithParam<GoldenCase>
{
};

TEST_P(Table1Golden, SingleMatchesAndMultiMeetsPaper)
{
    GoldenCase p = GetParam();
    SCOPED_TRACE(::testing::Message()
                 << p.network << '@' << p.device << ' '
                 << fpga::dataTypeName(p.type) << " paper S-CLP "
                 << p.paperSingleUtil << " M-CLP " << p.paperMultiUtil);
    nn::Network network = nn::networkByName(p.network);
    double mhz = p.type == fpga::DataType::Float32 ? 100.0 : 170.0;
    fpga::ResourceBudget budget =
        fpga::standardBudget(fpga::deviceByName(p.device), mhz);

    auto single = core::optimizeSingleClp(network, p.type, budget);
    // Our Single-CLP must be at least as good as the paper's and
    // match it to the printed precision when it is the same design.
    EXPECT_GE(single.metrics.utilization, p.paperSingleUtil - 0.0006)
        << "single-CLP baseline regressed below the paper";
    EXPECT_LE(single.metrics.utilization, p.paperSingleUtil + 0.06)
        << "suspiciously better than the paper: check the model";

    auto multi = core::optimizeMultiClp(network, p.type, budget);
    EXPECT_GE(multi.metrics.utilization, p.paperMultiUtil - 0.005)
        << "multi-CLP utilization below the published design";
    EXPECT_GT(multi.metrics.utilization, single.metrics.utilization);
}

INSTANTIATE_TEST_SUITE_P(
    PaperCells, Table1Golden,
    ::testing::Values(
        GoldenCase{"alexnet", "485t", fpga::DataType::Float32, 0.741,
                   0.954},
        GoldenCase{"vggnet-e", "485t", fpga::DataType::Float32, 0.968,
                   0.975},
        GoldenCase{"squeezenet", "485t", fpga::DataType::Float32,
                   0.780, 0.958},
        GoldenCase{"googlenet", "485t", fpga::DataType::Float32, 0.819,
                   0.969},
        GoldenCase{"alexnet", "690t", fpga::DataType::Float32, 0.654,
                   0.990},
        GoldenCase{"vggnet-e", "690t", fpga::DataType::Float32, 0.960,
                   0.987},
        GoldenCase{"squeezenet", "690t", fpga::DataType::Float32,
                   0.764, 0.967},
        GoldenCase{"googlenet", "690t", fpga::DataType::Float32, 0.781,
                   0.960},
        GoldenCase{"squeezenet", "690t", fpga::DataType::Fixed16, 0.420,
                   0.931},
        GoldenCase{"alexnet", "485t", fpga::DataType::Fixed16, 0.310,
                   0.939}),
    [](const ::testing::TestParamInfo<GoldenCase> &info) {
        std::string name = info.param.network;
        for (char &ch : name)
            if (ch == '-')
                ch = '_';
        return name + "_" + info.param.device + "_" +
               fpga::dataTypeName(info.param.type);
    });

} // namespace
} // namespace mclp
