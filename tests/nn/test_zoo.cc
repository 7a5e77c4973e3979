#include <gtest/gtest.h>

#include <map>

#include "nn/zoo.h"
#include "util/logging.h"

namespace mclp {
namespace {

TEST(Zoo, LayerCountsMatchPaper)
{
    EXPECT_EQ(nn::makeAlexNet().numLayers(), 10u);
    EXPECT_EQ(nn::makeVggNetE().numLayers(), 16u);
    EXPECT_EQ(nn::makeSqueezeNet().numLayers(), 26u);
    EXPECT_EQ(nn::makeGoogLeNet().numLayers(), 57u);
    EXPECT_EQ(nn::makeResNet50().numLayers(), 53u);
    EXPECT_EQ(nn::makeMobileNetV1().numLayers(), 27u);
    EXPECT_EQ(nn::makeResNextTiny().numLayers(), 13u);
}

TEST(Zoo, PaperNetworksAreUngrouped)
{
    // The four paper networks predate the G dimension; every layer
    // must stay a plain convolution so pre-groups results (and the
    // g=1 wire parity the CI checks) are untouched.
    for (const char *name :
         {"alexnet", "vggnet-e", "squeezenet", "googlenet"}) {
        // Bind the network first: iterating layers() of the
        // temporary would dangle once the range-init expression ends.
        nn::Network network = nn::networkByName(name);
        for (const auto &layer : network.layers())
            EXPECT_EQ(layer.g, 1) << name << " " << layer.name;
    }
}

TEST(Zoo, ResNet50BottleneckStructure)
{
    nn::Network net = nn::makeResNet50();
    EXPECT_EQ(net.layer(0).k, 7);
    EXPECT_EQ(net.layer(0).s, 2);
    // First bottleneck: 64 -> 64 (1x1), 64 -> 64 (3x3), 64 -> 256
    // (1x1), plus the 256-map projection shortcut.
    EXPECT_EQ(net.layer(1).k, 1);
    EXPECT_EQ(net.layer(2).k, 3);
    EXPECT_EQ(net.layer(3).m, 256);
    EXPECT_EQ(net.layer(4).m, 256);
    // Final stage works at 7x7 with 2048 expanded maps.
    const auto &last = net.layer(net.numLayers() - 1);
    EXPECT_EQ(last.r, 7);
    EXPECT_EQ(last.m, 2048);
}

TEST(Zoo, MobileNetDepthwisePairs)
{
    nn::Network net = nn::makeMobileNetV1();
    EXPECT_EQ(net.layer(0).g, 1);  // full-conv stem
    // 13 depthwise/pointwise pairs: dw has G = N = M and K = 3, pw is
    // an ungrouped 1x1 reading the dw output.
    for (size_t p = 0; p < 13; ++p) {
        const auto &dw = net.layer(1 + 2 * p);
        const auto &pw = net.layer(2 + 2 * p);
        EXPECT_EQ(dw.g, dw.n) << dw.name;
        EXPECT_EQ(dw.n, dw.m) << dw.name;
        EXPECT_EQ(dw.k, 3) << dw.name;
        EXPECT_EQ(pw.g, 1) << pw.name;
        EXPECT_EQ(pw.k, 1) << pw.name;
        EXPECT_EQ(pw.n, dw.m) << pw.name;
    }
    // Ends at 7x7x1024.
    const auto &last = net.layer(net.numLayers() - 1);
    EXPECT_EQ(last.r, 7);
    EXPECT_EQ(last.m, 1024);
}

TEST(Zoo, ResNextTinyCardinality32)
{
    nn::Network net = nn::makeResNextTiny();
    // Each block: ungrouped reduce, 32-way grouped 3x3, ungrouped
    // expand — the 1 < G < N shape depthwise never exercises.
    for (size_t b = 0; b < 4; ++b) {
        const auto &reduce = net.layer(1 + 3 * b);
        const auto &grouped = net.layer(2 + 3 * b);
        const auto &expand = net.layer(3 + 3 * b);
        EXPECT_EQ(reduce.g, 1) << reduce.name;
        EXPECT_EQ(grouped.g, 32) << grouped.name;
        EXPECT_EQ(grouped.k, 3) << grouped.name;
        EXPECT_GT(grouped.groupN(), 1) << grouped.name;
        EXPECT_EQ(expand.g, 1) << expand.name;
        EXPECT_EQ(grouped.n, reduce.m) << grouped.name;
        EXPECT_EQ(expand.n, grouped.m) << expand.name;
    }
}

TEST(Zoo, AlexNetDimensions)
{
    nn::Network net = nn::makeAlexNet();
    // Section 6.2: AlexNet's first layer has N,M = 3,48.
    EXPECT_EQ(net.layer(0).n, 3);
    EXPECT_EQ(net.layer(0).m, 48);
    EXPECT_EQ(net.layer(0).r, 55);
    EXPECT_EQ(net.layer(0).k, 11);
    EXPECT_EQ(net.layer(0).s, 4);
    // Halves have identical shapes.
    for (size_t i = 0; i < 10; i += 2)
        EXPECT_TRUE(net.layer(i).sameShape(net.layer(i + 1)));
    // conv2: 48 -> 128 at 27x27 with K=5.
    EXPECT_EQ(net.layer(2).n, 48);
    EXPECT_EQ(net.layer(2).m, 128);
    EXPECT_EQ(net.layer(2).r, 27);
    EXPECT_EQ(net.layer(2).k, 5);
    // conv3: full connectivity, 256 -> 192 at 13x13.
    EXPECT_EQ(net.layer(4).n, 256);
    EXPECT_EQ(net.layer(4).m, 192);
    EXPECT_EQ(net.layer(4).r, 13);
    // conv5: 192 -> 128.
    EXPECT_EQ(net.layer(8).n, 192);
    EXPECT_EQ(net.layer(8).m, 128);
}

TEST(Zoo, AlexNetTotalMacs)
{
    // Hand-computed in DESIGN.md: 665,784,864 MACs per image over the
    // ten convolutional layers.
    EXPECT_EQ(nn::makeAlexNet().totalMacs(), 665784864LL);
}

TEST(Zoo, SqueezeNetQuotedDimensions)
{
    nn::Network net = nn::makeSqueezeNet();
    // Section 3.2 quotes layer one as N,M = 3,64 and layer two as
    // N,M = 64,16 (this identifies SqueezeNet v1.1).
    EXPECT_EQ(net.layer(0).n, 3);
    EXPECT_EQ(net.layer(0).m, 64);
    EXPECT_EQ(net.layer(1).n, 64);
    EXPECT_EQ(net.layer(1).m, 16);
    EXPECT_EQ(net.maxK(), 3);
    // conv10 classifies to 1000 classes.
    EXPECT_EQ(net.layer(25).m, 1000);
    EXPECT_EQ(net.layer(25).k, 1);
}

TEST(Zoo, SqueezeNetFireWiring)
{
    nn::Network net = nn::makeSqueezeNet();
    // Each fire module: squeeze output feeds both expands; the two
    // expand outputs concatenate into the next squeeze's input.
    for (size_t fire = 0; fire < 8; ++fire) {
        size_t base = 1 + 3 * fire;
        const auto &squeeze = net.layer(base);
        const auto &e1 = net.layer(base + 1);
        const auto &e3 = net.layer(base + 2);
        EXPECT_EQ(e1.n, squeeze.m);
        EXPECT_EQ(e3.n, squeeze.m);
        EXPECT_EQ(e1.m, e3.m);
        EXPECT_EQ(e1.k, 1);
        EXPECT_EQ(e3.k, 3);
        if (fire < 7) {
            const auto &next_squeeze = net.layer(base + 3);
            EXPECT_EQ(next_squeeze.n, e1.m + e3.m)
                << "fire module " << fire + 2;
        }
    }
}

TEST(Zoo, VggAllThreeByThreeStrideOne)
{
    nn::Network net = nn::makeVggNetE();
    for (const auto &layer : net.layers()) {
        EXPECT_EQ(layer.k, 3) << layer.name;
        EXPECT_EQ(layer.s, 1) << layer.name;
    }
    EXPECT_EQ(net.layer(0).n, 3);
    EXPECT_EQ(net.layer(0).r, 224);
    EXPECT_EQ(net.layer(15).n, 512);
    EXPECT_EQ(net.layer(15).r, 14);
}

TEST(Zoo, VggChannelChaining)
{
    // Within a block the output channels of one layer feed the next.
    nn::Network net = nn::makeVggNetE();
    for (size_t i = 1; i < net.numLayers(); ++i) {
        const auto &prev = net.layer(i - 1);
        const auto &cur = net.layer(i);
        EXPECT_EQ(cur.n, prev.m) << cur.name;
    }
}

TEST(Zoo, GoogLeNetInceptionStructure)
{
    nn::Network net = nn::makeGoogLeNet();
    EXPECT_EQ(net.layer(0).k, 7);
    EXPECT_EQ(net.layer(0).s, 2);
    // 9 inception modules of 6 convs each after the 3 stem convs.
    for (int module = 0; module < 9; ++module) {
        size_t base = 3 + 6 * static_cast<size_t>(module);
        const auto &c1 = net.layer(base);
        const auto &r3 = net.layer(base + 1);
        const auto &c3 = net.layer(base + 2);
        const auto &r5 = net.layer(base + 3);
        const auto &c5 = net.layer(base + 4);
        const auto &pp = net.layer(base + 5);
        EXPECT_EQ(c1.k, 1);
        EXPECT_EQ(r3.k, 1);
        EXPECT_EQ(c3.k, 3);
        EXPECT_EQ(r5.k, 1);
        EXPECT_EQ(c5.k, 5);
        EXPECT_EQ(pp.k, 1);
        // Reducers feed the big convolutions.
        EXPECT_EQ(c3.n, r3.m);
        EXPECT_EQ(c5.n, r5.m);
        // All branches share the module input and spatial size.
        EXPECT_EQ(c1.n, r3.n);
        EXPECT_EQ(c1.n, r5.n);
        EXPECT_EQ(c1.n, pp.n);
        EXPECT_EQ(c1.r, c3.r);
        EXPECT_EQ(c1.r, c5.r);
    }
    // inception_5b concat: 384 + 384 + 128 + 128 = 1024 channels.
    size_t last = 3 + 6 * 8;
    EXPECT_EQ(net.layer(last).m + net.layer(last + 2).m +
                  net.layer(last + 4).m + net.layer(last + 5).m,
              1024);
}

TEST(Zoo, GoogLeNetModuleInputsChain)
{
    nn::Network net = nn::makeGoogLeNet();
    // Output channels of each inception module = input of the next
    // (pooling between 3b->4a and 4e->5a changes only spatial dims).
    for (int module = 0; module < 8; ++module) {
        size_t base = 3 + 6 * static_cast<size_t>(module);
        int64_t concat = net.layer(base).m + net.layer(base + 2).m +
                         net.layer(base + 4).m + net.layer(base + 5).m;
        EXPECT_EQ(net.layer(base + 6).n, concat)
            << "module " << module;
    }
}

TEST(Zoo, NetworkByNameLookups)
{
    EXPECT_EQ(nn::networkByName("alexnet").numLayers(), 10u);
    EXPECT_EQ(nn::networkByName("AlexNet").numLayers(), 10u);
    EXPECT_EQ(nn::networkByName("vggnet-e").numLayers(), 16u);
    EXPECT_EQ(nn::networkByName("SQUEEZENET").numLayers(), 26u);
    EXPECT_EQ(nn::networkByName("googlenet").numLayers(), 57u);
    EXPECT_EQ(nn::networkByName("resnet50").numLayers(), 53u);
    EXPECT_EQ(nn::networkByName("MobileNet").numLayers(), 27u);
    EXPECT_EQ(nn::networkByName("resnext").numLayers(), 13u);
    EXPECT_THROW(nn::networkByName("resnet"), util::FatalError);
}

TEST(Zoo, ZooNamesAllResolve)
{
    for (const std::string &name : nn::zooNetworkNames())
        EXPECT_GT(nn::networkByName(name).numLayers(), 0u) << name;
}

} // namespace
} // namespace mclp
