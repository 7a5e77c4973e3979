#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include "core/paper_designs.h"
#include "hlsgen/codegen.h"
#include "nn/zoo.h"
#include "test_helpers.h"
#include "util/string_utils.h"

namespace mclp {
namespace {

hlsgen::TemplateParams
smallParams(fpga::DataType type, const std::string &name,
            const nn::ConvLayer &layer, const model::Tiling &tiling,
            int64_t tn, int64_t tm)
{
    model::ClpConfig clp;
    clp.shape = {tn, tm};
    nn::Network net("one", {layer});
    clp.layers.push_back({0, tiling});
    return hlsgen::deriveParams(clp, net, type, name);
}

TEST(Codegen, SourceContainsParameters)
{
    nn::ConvLayer l = test::layer(7, 9, 11, 13, 3, 2);
    auto params = smallParams(fpga::DataType::Float32, "clp_a", l,
                              {3, 5}, 2, 4);
    std::string src = hlsgen::generateClpSource(params);
    EXPECT_NE(src.find("constexpr int TN = 2;"), std::string::npos);
    EXPECT_NE(src.find("constexpr int TM = 4;"), std::string::npos);
    EXPECT_NE(src.find("constexpr int KMAX = 3;"), std::string::npos);
    EXPECT_NE(src.find("typedef float data_t;"), std::string::npos);
    EXPECT_NE(src.find("clp_a_top"), std::string::npos);
    EXPECT_NE(src.find("#pragma HLS PIPELINE II=1"),
              std::string::npos);
    EXPECT_NE(src.find("#pragma HLS DATAFLOW"), std::string::npos);
    EXPECT_NE(src.find("namespace clp_a"), std::string::npos);
}

TEST(Codegen, FixedPointUsesShiftedAccumulator)
{
    nn::ConvLayer l = test::layer(4, 4, 8, 8, 3, 1);
    auto params = smallParams(fpga::DataType::Fixed16, "clp_q", l,
                              {4, 4}, 2, 2);
    std::string src = hlsgen::generateClpSource(params);
    EXPECT_NE(src.find("typedef int16_t data_t;"), std::string::npos);
    EXPECT_NE(src.find("typedef int32_t acc_t;"), std::string::npos);
    EXPECT_NE(src.find("acc >> 8"), std::string::npos);
    EXPECT_NE(src.find("<< 8"), std::string::npos);
}

TEST(Codegen, AcceleratorEmitsOneFilePerClpPlusReadme)
{
    nn::Network net = nn::makeAlexNet();
    auto design = core::paperAlexNetMulti485();
    auto files = hlsgen::generateAccelerator(design, net);
    ASSERT_EQ(files.size(), design.clps.size() + 1);
    EXPECT_EQ(files[0].filename, "clp0.cc");
    EXPECT_EQ(files.back().filename, "README.txt");
    EXPECT_NE(files.back().contents.find("clp3: Tn=8 Tm=19"),
              std::string::npos);
    for (size_t ci = 0; ci < design.clps.size(); ++ci) {
        EXPECT_NE(files[ci].contents.find(
                      util::strprintf("clp%zu_top", ci)),
                  std::string::npos);
    }
}

/**
 * End-to-end codegen validation: emit a CLP and its self-checking
 * testbench, compile them with the host compiler, run, and expect the
 * template to match the direct convolution.
 */
struct ExecCase
{
    fpga::DataType type;
    int64_t n, m, r, c, k, s, tn, tm, tr, tc;
    const char *tag;
    int64_t g = 1;
};

class CodegenExecution : public ::testing::TestWithParam<ExecCase>
{
};

TEST_P(CodegenExecution, GeneratedTemplateMatchesDirectConvolution)
{
    ExecCase p = GetParam();
    SCOPED_TRACE(::testing::Message()
                 << p.tag << ' ' << fpga::dataTypeName(p.type) << ' '
                 << test::layerCaseText(p));
    fpga::DataType type = p.type;
    nn::ConvLayer l =
        test::groupedLayer(p.n, p.m, p.r, p.c, p.k, p.s, p.g);
    model::Tiling tiling{p.tr, p.tc};
    auto params = smallParams(type, "clp_t", l, tiling, p.tn, p.tm);
    auto desc = hlsgen::ArgumentDescriptor::fromLayer(l, tiling);

    std::string dir = ::testing::TempDir();
    std::string tag = p.tag;
    std::string src_path = dir + "/mclp_clp_" + tag + ".cc";
    std::string tb_path = dir + "/mclp_tb_" + tag + ".cc";
    std::string bin_path = dir + "/mclp_tb_" + tag + ".bin";
    {
        std::ofstream src(src_path);
        src << hlsgen::generateClpSource(params);
        std::ofstream tb(tb_path);
        tb << hlsgen::generateTestbench(params, desc);
        ASSERT_TRUE(src.good());
        ASSERT_TRUE(tb.good());
    }

    std::string compile = "c++ -std=c++17 -O1 -o " + bin_path + " " +
                          src_path + " " + tb_path + " 2>" + dir +
                          "/mclp_cc_" + tag + ".log";
    ASSERT_EQ(std::system(compile.c_str()), 0)
        << "generated code failed to compile; see " << dir;
    ASSERT_EQ(std::system((bin_path + " > /dev/null").c_str()), 0)
        << "generated template disagrees with direct convolution";

    std::remove(src_path.c_str());
    std::remove(tb_path.c_str());
    std::remove(bin_path.c_str());
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, CodegenExecution,
    ::testing::Values(
        // Awkward dimensions on purpose: non-dividing Tn/Tm/Tr/Tc
        // and stride 2 exercise every boundary path.
        ExecCase{fpga::DataType::Float32, 7, 9, 11, 13, 3, 2, 2, 4, 4,
                 5, "float_awkward"},
        ExecCase{fpga::DataType::Fixed16, 7, 9, 11, 13, 3, 2, 2, 4, 4,
                 5, "fixed_awkward"},
        // Whole-map tile, oversize grid (idle lanes must stay inert).
        ExecCase{fpga::DataType::Float32, 3, 5, 6, 6, 3, 1, 8, 16, 6,
                 6, "float_oversize"},
        // 1x1 kernels (pointwise, SqueezeNet squeeze layers).
        ExecCase{fpga::DataType::Fixed16, 16, 12, 9, 9, 1, 1, 5, 7, 4,
                 9, "fixed_pointwise"},
        // Large kernel with stride (AlexNet conv1 structure, small).
        ExecCase{fpga::DataType::Float32, 3, 8, 7, 7, 11, 4, 3, 8, 4,
                 4, "float_bigk"},
        // Multiple output ports: Tm > 64 forces MP = 2.
        ExecCase{fpga::DataType::Fixed16, 4, 96, 6, 6, 3, 1, 2, 96, 3,
                 3, "fixed_multiport"},
        // Grouped: 2 groups of 4 maps; Tn=3 does not divide the
        // 4-map group span, so group boundaries exercise the same
        // partial-tile paths layer edges do.
        ExecCase{fpga::DataType::Float32, 8, 8, 6, 6, 3, 1, 3, 3, 4,
                 6, "float_grouped", 2},
        // Depthwise: one input map per output map (G == N == M).
        ExecCase{fpga::DataType::Fixed16, 6, 6, 7, 7, 3, 1, 2, 2, 4,
                 5, "fixed_depthwise", 6}),
    [](const ::testing::TestParamInfo<ExecCase> &info) {
        return std::string(info.param.tag);
    });

} // namespace
} // namespace mclp
