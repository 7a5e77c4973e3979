/**
 * @file
 * The delta cache codec (core/frontier_codec.h) and the mmap'd
 * segment (core/frontier_cache_segment.h) are format code: every
 * guarantee here is a bit-level one. Delta payloads must round-trip
 * randomized staircases and walk traces exactly (the warm == cold
 * invariant rests on it), keep a whole segment image at least 2x
 * smaller than the legacy SoA records on realistic rows, and reject
 * corrupt bytes; segment images must serve identical views to
 * independent mappings and degrade — never lie — when damaged.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "core/frontier_cache.h"
#include "core/frontier_cache_segment.h"
#include "core/frontier_codec.h"
#include "util/math.h"
#include "util/record_file.h"
#include "util/shm.h"

namespace mclp {
namespace {

namespace fs = std::filesystem;

/** A random valid staircase: strictly increasing DSP, strictly
 * decreasing cycles, positive shapes. @p wide forces Tn/Tm past the
 * 16-bit fast lanes to exercise the wide-shape fallback. */
core::ShapeFrontier
randomStaircase(util::SplitMix64 &rng, bool wide = false)
{
    size_t count = static_cast<size_t>(rng.nextInt(1, 40));
    std::vector<core::FrontierPoint> points(count);
    int64_t dsp = rng.nextInt(1, 50);
    int64_t cycles = 1000000 + rng.nextInt(0, 1000) * count;
    for (size_t i = 0; i < count; ++i) {
        points[i].shape.tn =
            wide ? rng.nextInt(70000, 200000) : rng.nextInt(1, 512);
        points[i].shape.tm =
            wide ? rng.nextInt(70000, 200000) : rng.nextInt(1, 512);
        points[i].dsp = dsp;
        points[i].cycles = cycles;
        dsp += rng.nextInt(1, 400);
        cycles -= rng.nextInt(1, 900);
    }
    auto row = core::ShapeFrontier::fromPoints(std::move(points));
    EXPECT_TRUE(row.has_value());
    return std::move(*row);
}

/** A random valid walk trace: strictly decreasing total BRAM. */
core::FrontierTraceImage
randomTrace(util::SplitMix64 &rng, size_t key_groups)
{
    core::FrontierTraceImage image;
    image.complete = rng.nextInt(0, 1) != 0;
    image.initialBram = rng.nextInt(1000, 1 << 20);
    image.initialPeak = static_cast<double>(rng.nextInt(1, 1 << 30)) /
                        512.0;
    size_t steps = static_cast<size_t>(rng.nextInt(0, 30));
    int64_t bram = image.initialBram;
    for (size_t i = 0; i < steps && bram > 1; ++i) {
        core::TradeoffCurveCache::PartitionStep step;
        step.clp =
            static_cast<uint32_t>(rng.nextInt(0, key_groups - 1));
        step.inCap = rng.nextInt(0, 1 << 16);
        step.outCap = rng.nextInt(0, 1 << 16);
        bram -= rng.nextInt(1, std::max<int64_t>(bram / 4, 2));
        if (bram <= 0)
            break;
        step.totalBram = bram;
        step.totalPeak =
            static_cast<double>(rng.nextInt(1, 1 << 30)) / 256.0;
        image.steps.push_back(step);
    }
    return image;
}

TEST(FrontierCodec, RowPayloadRoundTripsRandomStaircases)
{
    util::SplitMix64 rng(20170701);
    for (int trial = 0; trial < 200; ++trial) {
        core::ShapeFrontier row = randomStaircase(rng, trial % 17 == 0);
        util::ByteWriter out;
        core::encodeRowPayload(out, row);
        auto decoded = core::decodeRowPayload(out.bytes());
        ASSERT_TRUE(decoded.has_value()) << "trial " << trial;
        ASSERT_EQ(decoded->size(), row.size());
        for (size_t i = 0; i < row.size(); ++i) {
            EXPECT_EQ(decoded->point(i).shape, row.point(i).shape);
            EXPECT_EQ(decoded->point(i).dsp, row.point(i).dsp);
            EXPECT_EQ(decoded->point(i).cycles, row.point(i).cycles);
        }
    }
}

TEST(FrontierCodec, TracePayloadRoundTripsRandomWalks)
{
    util::SplitMix64 rng(20170702);
    for (int trial = 0; trial < 200; ++trial) {
        size_t groups = static_cast<size_t>(rng.nextInt(1, 6));
        core::FrontierTraceImage image = randomTrace(rng, groups);
        util::ByteWriter out;
        core::encodeTracePayload(out, image);

        core::FrontierTraceImage decoded;
        ASSERT_TRUE(
            core::decodeTracePayload(out.bytes(), groups, decoded));
        EXPECT_EQ(decoded.complete, image.complete);
        EXPECT_EQ(decoded.initialBram, image.initialBram);
        EXPECT_EQ(decoded.initialPeak, image.initialPeak);
        ASSERT_EQ(decoded.steps.size(), image.steps.size());
        for (size_t i = 0; i < image.steps.size(); ++i) {
            EXPECT_EQ(decoded.steps[i].clp, image.steps[i].clp);
            EXPECT_EQ(decoded.steps[i].inCap, image.steps[i].inCap);
            EXPECT_EQ(decoded.steps[i].outCap, image.steps[i].outCap);
            EXPECT_EQ(decoded.steps[i].totalBram,
                      image.steps[i].totalBram);
            EXPECT_EQ(decoded.steps[i].totalPeak,
                      image.steps[i].totalPeak);
        }

        bool complete = false;
        size_t steps = 0;
        ASSERT_TRUE(core::peekTraceMeta(out.bytes(), &complete, &steps));
        EXPECT_EQ(complete, image.complete);
        EXPECT_EQ(steps, image.steps.size());
    }
}

TEST(FrontierCodec, DeltaAtLeastHalvesTheLegacySoAEncoding)
{
    // The ROADMAP's compaction claim on realistic rows: staircases
    // whose lanes move in the small steps real frontiers take. The
    // delta side is the whole segment image the records publish as —
    // header, sparse slot table, counters, and key words included
    // — so the ratio is file-honest against the legacy records.
    util::SplitMix64 rng(20170703);
    size_t legacy_bytes = 0;
    std::vector<std::vector<int64_t>> keys;
    std::vector<std::string> payloads;
    for (int trial = 0; trial < 50; ++trial) {
        core::ShapeFrontier row = randomStaircase(rng);
        keys.push_back({rng.nextInt(1, 1 << 20), rng.nextInt(1, 1 << 20)});
        legacy_bytes +=
            core::encodeLegacyRowRecord(keys.back(), row).size();
        util::ByteWriter payload;
        core::encodeRowPayload(payload, row);
        payloads.push_back(payload.bytes());
    }
    std::vector<core::SegmentRecord> records;
    for (size_t i = 0; i < keys.size(); ++i)
        records.push_back({core::kCacheRecordRow, &keys[i], payloads[i]});
    size_t delta_bytes =
        core::FrontierCacheSegment::build(1, 1, records).size();
    EXPECT_GE(legacy_bytes, 2 * delta_bytes)
        << "delta encoding must stay at least 2x smaller than SoA "
        << "(legacy " << legacy_bytes << "B vs delta " << delta_bytes
        << "B)";
}

TEST(FrontierCodec, CorruptPayloadsAreRejectedNotMisdecoded)
{
    // Flipping any single byte of a row payload must yield either a
    // clean rejection or a *valid* staircase — never a crash — and
    // truncations must always reject (the payload length is part of
    // the format).
    util::SplitMix64 rng(20170705);
    core::ShapeFrontier row = randomStaircase(rng);
    util::ByteWriter out;
    core::encodeRowPayload(out, row);
    std::string good(out.bytes());

    for (size_t i = 0; i < good.size(); ++i) {
        std::string bad = good;
        bad[i] = static_cast<char>(bad[i] ^ 0x41);
        auto decoded = core::decodeRowPayload(bad);
        if (decoded.has_value()) {
            // A surviving decode must still satisfy the staircase
            // invariants (fromPoints re-validated them).
            for (size_t p = 1; p < decoded->size(); ++p) {
                EXPECT_GT(decoded->point(p).dsp,
                          decoded->point(p - 1).dsp);
                EXPECT_LT(decoded->point(p).cycles,
                          decoded->point(p - 1).cycles);
            }
        }
    }
    for (size_t cut = 0; cut < good.size(); ++cut)
        EXPECT_FALSE(
            core::decodeRowPayload(good.substr(0, cut)).has_value())
            << "truncation at " << cut;
}

/** A scratch segment path, removed on destruction. */
struct ScratchSegment
{
    fs::path path;

    ScratchSegment()
    {
        static int counter = 0;
        path = fs::temp_directory_path() /
               ("mclp_segment_" + std::to_string(::getpid()) + "_" +
                std::to_string(counter++) + ".seg");
    }

    ~ScratchSegment()
    {
        std::error_code ec;
        fs::remove(path, ec);
    }
};

/** Build and publish a small segment; returns the record inputs. */
struct SegmentFixture
{
    std::vector<std::vector<int64_t>> keys;
    std::vector<std::string> payloads;
    std::vector<core::SegmentRecord> records;

    explicit SegmentFixture(size_t entries)
    {
        util::SplitMix64 rng(20170706);
        for (size_t i = 0; i < entries; ++i) {
            keys.push_back({static_cast<int64_t>(i), rng.nextInt(1, 99),
                            rng.nextInt(1, 99)});
            util::ByteWriter out;
            core::encodeRowPayload(out, randomStaircase(rng));
            payloads.push_back(out.bytes());
        }
        for (size_t i = 0; i < entries; ++i)
            records.push_back({core::kCacheRecordRow, &keys[i],
                               payloads[i]});
    }
};

TEST(FrontierCacheSegment, TwoMappingsServeByteIdenticalViews)
{
    ScratchSegment scratch;
    SegmentFixture fixture(37);
    std::string image = core::FrontierCacheSegment::build(
        0xfeedULL, 7, fixture.records);
    ASSERT_FALSE(image.empty());
    ASSERT_TRUE(util::publishFileAtomic(scratch.path.string(), image));

    // Two independent mappings of the published file (what two worker
    // processes do): every lookup view must be byte-identical between
    // them and equal to the encoded payload.
    core::FrontierCacheSegment a =
        core::FrontierCacheSegment::open(scratch.path.string(), 0xfeed);
    core::FrontierCacheSegment b =
        core::FrontierCacheSegment::open(scratch.path.string(), 0xfeed);
    ASSERT_TRUE(a.valid());
    ASSERT_TRUE(b.valid());
    EXPECT_EQ(a.generation(), 7u);
    EXPECT_EQ(a.entryCount(), fixture.keys.size());
    EXPECT_EQ(a.bytes(), b.bytes());
    for (size_t i = 0; i < fixture.keys.size(); ++i) {
        std::string_view via_a =
            a.find(core::kCacheRecordRow, fixture.keys[i]);
        std::string_view via_b =
            b.find(core::kCacheRecordRow, fixture.keys[i]);
        ASSERT_FALSE(via_a.empty());
        ASSERT_EQ(via_a.size(), via_b.size());
        EXPECT_EQ(std::memcmp(via_a.data(), via_b.data(),
                              via_a.size()),
                  0);
        EXPECT_EQ(std::string(via_a), fixture.payloads[i]);
        // The views alias distinct mappings of the same file.
        EXPECT_NE(via_a.data(), via_b.data());
    }
    // Absent keys and wrong kinds answer empty, not garbage.
    EXPECT_TRUE(a.find(core::kCacheRecordRow, {123456, 7}).empty());
    EXPECT_TRUE(
        a.find(core::kCacheRecordTrace, fixture.keys[0]).empty());
}

TEST(FrontierCacheSegment, CorruptionAndMismatchesRefuseToMap)
{
    ScratchSegment scratch;
    SegmentFixture fixture(9);
    std::string image = core::FrontierCacheSegment::build(
        0xbeefULL, 3, fixture.records);
    ASSERT_TRUE(util::publishFileAtomic(scratch.path.string(), image));

    // Wrong fingerprint: a binary with different model formulas must
    // not serve these rows — an expected invalidation, not damage.
    EXPECT_EQ(core::FrontierCacheSegment::open(scratch.path.string(),
                                               0xdead)
                  .state(),
              core::SegmentState::Stale);

    // Any single flipped byte fails the checksum (or the header
    // validation that precedes it).
    for (size_t i = 0; i < image.size();
         i += std::max<size_t>(1, image.size() / 64)) {
        std::string bad = image;
        bad[i] = static_cast<char>(bad[i] ^ 0x80);
        ASSERT_TRUE(
            util::publishFileAtomic(scratch.path.string(), bad));
        EXPECT_FALSE(core::FrontierCacheSegment::open(
                         scratch.path.string(), 0xbeef)
                         .valid())
            << "flip at " << i;
    }

    // Truncations never map.
    for (size_t cut : {size_t{0}, size_t{7}, size_t{63},
                       image.size() / 2, image.size() - 1}) {
        ASSERT_TRUE(util::publishFileAtomic(scratch.path.string(),
                                            image.substr(0, cut)));
        EXPECT_FALSE(core::FrontierCacheSegment::open(
                         scratch.path.string(), 0xbeef)
                         .valid())
            << "truncation at " << cut;
    }
}

} // namespace
} // namespace mclp
