/**
 * @file
 * The delta cache codec (core/frontier_codec.h) and the mmap'd
 * segment (core/frontier_cache_segment.h) are format code: every
 * guarantee here is a bit-level one. Delta payloads must round-trip
 * randomized staircases and walk traces exactly (the warm == cold
 * invariant rests on it), keep a whole segment image at least 2x
 * smaller than the legacy SoA records on realistic rows, and reject
 * corrupt bytes — exactly the bytes the codec's earlier two-pass
 * decoder rejected, which a seeded differential pins on mutated real
 * and random rows. The appending row encoder must write exactly the
 * bytes its ByteWriter predecessor wrote (the segment format is
 * unchanged). Segment images must serve identical views to
 * independent mappings and degrade — never lie — when damaged.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "core/frontier_cache.h"
#include "core/frontier_cache_segment.h"
#include "core/frontier_codec.h"
#include "core/session_registry.h"
#include "service/dse_codec.h"
#include "service/dse_service.h"
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

/** The appending encoder's payload for @p row, in a fresh buffer. */
std::string
encodeRow(const core::ShapeFrontier &row)
{
    std::string out;
    core::encodeRowPayload(out, row);
    return out;
}

/**
 * The row encoder this codec shipped before it appended through a
 * write cursor: one ByteWriter call per field, one out-of-line call
 * per byte of a varint. The oracle for the bytes the appending
 * encoder must write.
 */
std::string
referenceEncodeRow(const core::ShapeFrontier &row)
{
    size_t count = row.size();
    const int32_t *tn = row.tnData();
    const int32_t *tm = row.tmData();
    const int64_t *dsp = row.dspData();
    const int64_t *cycles = row.cyclesData();

    bool wide = false;
    for (size_t i = 0; i < count; ++i)
        wide = wide || tn[i] > 0xffff || tm[i] > 0xffff;

    util::ByteWriter out;
    out.varint(count);
    out.u8(wide ? 1 : 0);
    if (wide) {
        for (size_t i = 0; i < count; ++i)
            out.varint(static_cast<uint64_t>(tn[i]));
        for (size_t i = 0; i < count; ++i)
            out.varint(static_cast<uint64_t>(tm[i]));
    } else {
        for (size_t i = 0; i < count; ++i)
            out.u16(static_cast<uint16_t>(tn[i]));
        for (size_t i = 0; i < count; ++i)
            out.u16(static_cast<uint16_t>(tm[i]));
    }
    for (size_t i = 0; i < count; ++i) {
        int64_t prev = i == 0 ? 0 : dsp[i - 1];
        out.varint(util::zigzagEncode(dsp[i] - prev));
    }
    for (size_t i = 0; i < count; ++i) {
        int64_t prev = i == 0 ? 0 : cycles[i - 1];
        out.varint(util::zigzagEncode(cycles[i] - prev));
    }
    return out.bytes();
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
        auto decoded = core::decodeRowPayload(encodeRow(row));
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
        payloads.push_back(encodeRow(row));
    }
    std::vector<core::SegmentRecord> records;
    for (size_t i = 0; i < keys.size(); ++i)
        records.push_back({core::kCacheRecordRow, keys[i], payloads[i]});
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
    std::string good = encodeRow(randomStaircase(rng));

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

/**
 * The row decoder this codec shipped before its one-pass rewrite: a
 * pass that reads points, then the staircase checks
 * ShapeFrontier::fromPoints made at the time, inlined so the oracle
 * shares no check with the decoder under test. Two departures, neither
 * visible in its verdicts: delta sums run in uint64_t (the original's
 * int64_t sum overflowed on hostile deltas), and points grow as bytes
 * arrive instead of being allocated for the claimed count up front.
 */
std::optional<std::vector<core::FrontierPoint>>
referenceDecodeRow(std::string_view payload)
{
    util::ByteReader in(payload);
    uint64_t count = 0;
    uint8_t flags = 0;
    if (!in.varint(count) || count > core::kCacheMaxListEntries ||
        !in.u8(flags) || (flags & ~1))
        return std::nullopt;
    bool wide = flags & 1;
    std::vector<core::FrontierPoint> points;
    auto shape = [&](int64_t &out) {
        uint64_t value = 0;
        uint16_t narrow = 0;
        if (wide ? !in.varint(value) : !in.u16(narrow))
            return false;
        out = wide ? static_cast<int64_t>(value) : narrow;
        return true;
    };
    for (uint64_t i = 0; i < count; ++i) {
        points.emplace_back();
        if (!shape(points.back().shape.tn))
            return std::nullopt;
    }
    for (core::FrontierPoint &point : points)
        if (!shape(point.shape.tm))
            return std::nullopt;
    for (int64_t core::FrontierPoint::*lane :
         {&core::FrontierPoint::dsp, &core::FrontierPoint::cycles}) {
        uint64_t prev = 0;
        for (core::FrontierPoint &point : points) {
            uint64_t delta = 0;
            if (!in.varint(delta))
                return std::nullopt;
            prev += static_cast<uint64_t>(util::zigzagDecode(delta));
            point.*lane = static_cast<int64_t>(prev);
        }
    }
    if (!in.ok() || !in.atEnd())
        return std::nullopt;
    constexpr int64_t kShapeMax = std::numeric_limits<int32_t>::max();
    for (size_t i = 0; i < points.size(); ++i) {
        const core::FrontierPoint &point = points[i];
        if (point.shape.tn < 1 || point.shape.tm < 1 ||
            point.shape.tn > kShapeMax || point.shape.tm > kShapeMax ||
            point.dsp < 1 || point.cycles < 1)
            return std::nullopt;
        if (i > 0 && (point.dsp <= points[i - 1].dsp ||
                      point.cycles >= points[i - 1].cycles))
            return std::nullopt;
    }
    return points;
}

/** LEB128 bytes of @p value, as the encoder writes them. */
std::string
varintBytes(uint64_t value)
{
    util::ByteWriter out;
    out.varint(value);
    return out.bytes();
}

/** Length of the varint that starts @p bytes (the point count). */
size_t
leadingVarintBytes(const std::string &bytes)
{
    size_t n = 0;
    while (n < bytes.size() && n < 10 &&
           (static_cast<unsigned char>(bytes[n]) & 0x80))
        ++n;
    return std::min(n + 1, bytes.size());
}

/** Where each lane value of a well-formed row payload sits: (offset,
 * length) of every shape field, then of every delta varint. */
struct PayloadFields
{
    bool wide = false;
    std::vector<std::pair<size_t, size_t>> shapes;
    std::vector<std::pair<size_t, size_t>> deltas;
};

PayloadFields
payloadFields(const std::string &payload)
{
    PayloadFields fields;
    size_t pos = leadingVarintBytes(payload);
    uint64_t count = 0;
    util::ByteReader(payload).varint(count);
    fields.wide = payload[pos++] & 1;
    auto varint = [&] {
        size_t start = pos;
        while (static_cast<unsigned char>(payload[pos]) & 0x80)
            ++pos;
        return std::make_pair(start, ++pos - start);
    };
    for (uint64_t i = 0; i < 2 * count; ++i) {
        if (fields.wide) {
            fields.shapes.push_back(varint());
        } else {
            fields.shapes.emplace_back(pos, 2);
            pos += 2;
        }
    }
    for (uint64_t i = 0; i < 2 * count; ++i)
        fields.deltas.push_back(varint());
    return fields;
}

/** @p payload with one seeded mutation; @p what names it. Byte-level
 * edits mostly break framing, so some mutations edit one lane value
 * instead: a zero delta (a repeated DSP or cycle count), an extreme
 * delta, or a shape at the edges of its lane. */
std::string
mutatePayload(const std::string &payload, util::SplitMix64 &rng,
              std::string *what)
{
    std::string bad = payload;
    size_t count_bytes = leadingVarintBytes(payload);
    uint64_t count = 0;
    util::ByteReader(payload).varint(count);
    auto at = [&](size_t size) {
        return static_cast<size_t>(
            rng.nextInt(0, static_cast<int64_t>(size) - 1));
    };
    PayloadFields fields = payloadFields(payload);
    auto replace = [&](const std::pair<size_t, size_t> &field,
                       const std::string &bytes) {
        return payload.substr(0, field.first) + bytes +
               payload.substr(field.first + field.second);
    };
    int64_t kind = rng.nextInt(0, 9);
    if (kind >= 7 && count == 0)
        kind = 0;  // an empty row has no lane values to edit
    switch (kind) {
    case 0:
        *what = "byte flip";
        bad[at(bad.size())] ^= static_cast<char>(rng.nextInt(1, 255));
        break;
    case 1:
        *what = "truncation";
        bad.resize(at(bad.size()));
        break;
    case 2:
        *what = "insertion";
        bad.insert(at(bad.size() + 1), 1,
                   static_cast<char>(rng.nextInt(0, 255)));
        break;
    case 3:
        *what = "deletion";
        bad.erase(at(bad.size()), 1);
        break;
    case 4: {
        *what = "forged count";
        const uint64_t max = core::kCacheMaxListEntries;
        uint64_t forged = 0;
        switch (rng.nextInt(0, 3)) {
        case 0: forged = static_cast<uint64_t>(rng.nextInt(0, max)); break;
        case 1: forged = max - static_cast<uint64_t>(rng.nextInt(0, 1)); break;
        case 2: forged = max + 1; break;
        default:
            forged = static_cast<uint64_t>(rng.nextInt(0, count + 2));
        }
        bad = varintBytes(forged) + payload.substr(count_bytes);
        break;
    }
    case 5:
        *what = "wide flag";
        bad[count_bytes] ^= 1;
        break;
    case 6: {
        // The count as a 10-byte varint: honest padding, or a last
        // byte whose bits spill past 64.
        *what = "overlong count";
        std::string overlong;
        for (int i = 0; i < 9; ++i)
            overlong.push_back(
                static_cast<char>(((count >> (7 * i)) & 0x7f) | 0x80));
        overlong.push_back(
            static_cast<char>(rng.nextInt(0, 1) ? 0 : rng.nextInt(1, 0x7f)));
        bad = overlong + payload.substr(count_bytes);
        break;
    }
    case 7:
        *what = "zero delta";
        bad = replace(fields.deltas[at(fields.deltas.size())],
                      varintBytes(0));
        break;
    case 8: {
        *what = "extreme delta";
        constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
        const int64_t picks[] = {1, -1, kMax, -kMax - 1,
                                 rng.nextInt(-(int64_t{1} << 40),
                                             int64_t{1} << 40)};
        bad = replace(fields.deltas[at(fields.deltas.size())],
                      varintBytes(util::zigzagEncode(picks[at(5)])));
        break;
    }
    default: {
        *what = "edge shape";
        const uint64_t picks[] = {0, 1, 0xffff, 0x7fffffff, 0x80000000,
                                  uint64_t{1} << 63};
        uint64_t shape = picks[at(fields.wide ? 6 : 3)];
        util::ByteWriter out;
        if (fields.wide)
            out.varint(shape);
        else
            out.u16(static_cast<uint16_t>(shape));
        bad = replace(fields.shapes[at(fields.shapes.size())], out.bytes());
    }
    }
    return bad;
}

/** Row payloads a real flush publishes, read back out of the segment. */
std::vector<std::string>
realRowPayloads()
{
    fs::path dir = fs::temp_directory_path() /
                   ("mclp_codec_rows_" + std::to_string(::getpid()));
    {
        auto cache = std::make_shared<core::FrontierCache>(dir.string());
        core::SessionRegistry registry(4, 0, 1, cache);
        for (const char *line :
             {"dse id=a net=alexnet device=690t budgets=1000,2880",
              "dse id=s net=squeezenet device=690t budgets=1000,2880",
              "dse id=g net=googlenet device=690t budgets=2880"})
            service::answerRequest(service::decodeRequest(line), &registry);
    }  // the registry flushes
    std::vector<std::string> payloads;
    core::FrontierCacheSegment::open(
        (dir / core::kFrontierSegmentFileName).string(),
        core::modelFormulaFingerprint())
        .forEach([&](const core::FrontierCacheSegment::Entry &entry) {
            if (entry.kind == core::kCacheRecordRow)
                payloads.emplace_back(entry.payload);
        });
    fs::remove_all(dir);
    return payloads;
}

TEST(FrontierCodec, OnePassDecoderAgreesWithTheTwoPassReference)
{
    // Seeded mutations of real rows (AlexNet, SqueezeNet, GoogLeNet,
    // as flushed) and of random staircases, wide ones included: both
    // decoders must accept and reject the same bytes, and what they
    // accept must be the same lanes.
    util::SplitMix64 rng(20170708);
    std::vector<std::string> real = realRowPayloads();
    ASSERT_GT(real.size(), 100u);
    std::vector<std::string> payloads;
    for (int i = 0; i < 48; ++i)
        payloads.push_back(real[rng.nextInt(0, real.size() - 1)]);
    for (int i = 0; i < 48; ++i)
        payloads.push_back(encodeRow(randomStaircase(rng, i % 4 == 0)));

    size_t accepted = 0, rejected = 0;
    for (size_t p = 0; p < payloads.size(); ++p) {
        for (int trial = 0; trial <= 24; ++trial) {
            std::string what = "unmutated";
            std::string bytes = trial == 0 ? payloads[p]
                                           : mutatePayload(payloads[p],
                                                           rng, &what);
            SCOPED_TRACE("payload " + std::to_string(p) + " trial " +
                         std::to_string(trial) + ": " + what);
            auto reference = referenceDecodeRow(bytes);
            auto decoded = core::decodeRowPayload(bytes);
            ASSERT_EQ(decoded.has_value(), reference.has_value());
            ASSERT_TRUE(trial > 0 || decoded.has_value());
            if (!decoded) {
                ++rejected;
                continue;
            }
            ++accepted;
            ASSERT_EQ(decoded->size(), reference->size());
            for (size_t i = 0; i < decoded->size(); ++i) {
                const core::FrontierPoint &want = (*reference)[i];
                EXPECT_EQ(decoded->tnData()[i], want.shape.tn);
                EXPECT_EQ(decoded->tmData()[i], want.shape.tm);
                EXPECT_EQ(decoded->dspData()[i], want.dsp);
                EXPECT_EQ(decoded->cyclesData()[i], want.cycles);
            }
        }
    }
    // Both verdicts occur among the mutations, not just the originals.
    EXPECT_GT(accepted, payloads.size());
    EXPECT_GT(rejected, 0u);
}

TEST(FrontierCodec, AppendingEncoderMatchesTheByteWriterReference)
{
    // The bytes are the segment format (its version and slot hash are
    // unchanged), so the appending encoder must write exactly what the
    // ByteWriter encoder wrote: for the rows a real flush publishes,
    // random staircases (wide ones included), and the empty row.
    std::vector<core::ShapeFrontier> rows;
    for (const std::string &payload : realRowPayloads()) {
        auto row = core::decodeRowPayload(payload);
        ASSERT_TRUE(row.has_value());
        // What the flush published is itself the appending encoder's.
        EXPECT_EQ(referenceEncodeRow(*row), payload);
        rows.push_back(std::move(*row));
    }
    ASSERT_GT(rows.size(), 100u);
    util::SplitMix64 rng(20170709);
    for (int i = 0; i < 200; ++i)
        rows.push_back(randomStaircase(rng, i % 3 == 0));
    auto empty = core::ShapeFrontier::fromPoints({});
    ASSERT_TRUE(empty.has_value());
    rows.push_back(std::move(*empty));

    std::string appended = "bytes already in the buffer";
    for (size_t r = 0; r < rows.size(); ++r) {
        SCOPED_TRACE("row " + std::to_string(r));
        std::string want = referenceEncodeRow(rows[r]);
        EXPECT_EQ(encodeRow(rows[r]), want);
        // Appending leaves what the buffer held untouched.
        std::string before = appended;
        core::encodeRowPayload(appended, rows[r]);
        ASSERT_EQ(appended.size(), before.size() + want.size());
        EXPECT_EQ(appended.compare(0, before.size(), before), 0);
        EXPECT_EQ(appended.substr(before.size()), want);
    }
    EXPECT_EQ(referenceEncodeRow(rows.back()), std::string("\0\0", 2))
        << "the empty row is a zero count and no flags";
}

/** A narrow payload: @p count, then the given lanes' raw values. */
std::string
narrowPayload(uint64_t count, const std::vector<uint16_t> &shapes,
              const std::vector<int64_t> &deltas)
{
    util::ByteWriter out;
    out.varint(count);
    out.u8(0);
    for (uint16_t shape : shapes)
        out.u16(shape);
    for (int64_t delta : deltas)
        out.varint(util::zigzagEncode(delta));
    return out.bytes();
}

TEST(FrontierCodec, CountTheBytesCannotHoldIsRefused)
{
    // 2^24 - 1 points claimed by an 11-byte payload: refused before
    // any allocation for them, narrow or wide.
    std::string narrow =
        narrowPayload(core::kCacheMaxListEntries - 1, {1, 1}, {5, 9});
    EXPECT_FALSE(core::decodeRowPayload(narrow).has_value());
    std::string wide = narrow;
    wide[leadingVarintBytes(narrow)] = 1;
    EXPECT_FALSE(core::decodeRowPayload(wide).has_value());
    EXPECT_FALSE(referenceDecodeRow(narrow).has_value());
    EXPECT_FALSE(referenceDecodeRow(wide).has_value());

    // One point in exactly the six bytes it needs still decodes.
    auto one = core::decodeRowPayload(narrowPayload(1, {3, 4}, {5, 9}));
    ASSERT_TRUE(one.has_value());
    EXPECT_EQ(one->point(0).shape, (model::ClpShape{3, 4}));
    EXPECT_EQ(one->point(0).dsp, 5);
    EXPECT_EQ(one->point(0).cycles, 9);
}

TEST(FrontierCodec, TraceStepCountTheBytesCannotHoldIsRefused)
{
    // A trace header claiming 2^24 - 1 steps in a 14-byte payload:
    // refused before the steps are allocated, and by the header peek
    // the flush merge uses.
    util::ByteWriter forged;
    forged.u8(1);
    forged.varint(100);
    forged.f64(12.5);
    forged.varint(core::kCacheMaxListEntries - 1);
    ASSERT_EQ(forged.bytes().size(), 14u);
    core::FrontierTraceImage refused;
    EXPECT_FALSE(core::decodeTracePayload(forged.bytes(), 1, refused));
    EXPECT_EQ(refused.steps.capacity(), 0u);
    bool complete = false;
    size_t steps = 0;
    EXPECT_FALSE(core::peekTraceMeta(forged.bytes(), &complete, &steps));

    // One step in exactly the twelve bytes it needs still decodes.
    util::ByteWriter one;
    one.u8(1);
    one.varint(100);
    one.f64(12.5);
    one.varint(1);
    size_t header = one.bytes().size();
    one.varint(0);   // clp
    one.varint(7);   // inCap
    one.varint(9);   // outCap
    one.varint(1);   // BRAM drop
    one.f64(13.0);
    ASSERT_EQ(one.bytes().size(), header + 12);
    core::FrontierTraceImage decoded;
    ASSERT_TRUE(core::decodeTracePayload(one.bytes(), 1, decoded));
    ASSERT_TRUE(core::peekTraceMeta(one.bytes(), &complete, &steps));
    EXPECT_EQ(steps, 1u);
    ASSERT_EQ(decoded.steps.size(), 1u);
    EXPECT_EQ(decoded.steps[0].inCap, 7);
    EXPECT_EQ(decoded.steps[0].outCap, 9);
    EXPECT_EQ(decoded.steps[0].totalBram, 99);
    EXPECT_EQ(decoded.steps[0].totalPeak, 13.0);
}

TEST(FrontierCodec, DeltaWrappingPastInt64MaxIsRefused)
{
    // A second delta that carries the running sum past INT64_MAX, in
    // either i64 lane: refused, with the sum wrapping in uint64_t
    // rather than overflowing (no UBSan report).
    constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
    for (const std::vector<int64_t> &deltas :
         {std::vector<int64_t>{kMax, 1, 900, -1},
          std::vector<int64_t>{1, 1, kMax, kMax},
          std::vector<int64_t>{kMax, kMax, 900, -1}}) {
        std::string payload = narrowPayload(2, {1, 2, 1, 2}, deltas);
        EXPECT_FALSE(core::decodeRowPayload(payload).has_value());
        EXPECT_FALSE(referenceDecodeRow(payload).has_value());
    }
    // The largest first values are legal and decode exactly.
    auto top = core::decodeRowPayload(
        narrowPayload(2, {1, 2, 1, 2}, {kMax - 1, 1, kMax, -1}));
    ASSERT_TRUE(top.has_value());
    EXPECT_EQ(top->point(1).dsp, kMax);
    EXPECT_EQ(top->point(1).cycles, kMax - 1);
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
            payloads.push_back(encodeRow(randomStaircase(rng)));
        }
        for (size_t i = 0; i < entries; ++i)
            records.push_back({core::kCacheRecordRow, keys[i],
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
    EXPECT_TRUE(
        a.find(core::kCacheRecordRow, std::vector<int64_t>{123456, 7})
            .empty());
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

    // A flipped byte in the header or the slot table fails the header
    // checksum (or the header validation that precedes it): the image
    // does not map. One in a key word, a check word or a payload fails
    // the check of the record holding it: the image maps, that record
    // reads as absent and says it is damaged, and every other record
    // serves its payload.
    uint32_t slot_count = 0;
    std::memcpy(&slot_count, image.data() + 12, sizeof slot_count);
    const size_t table_end = 64 + size_t{slot_count} * 32;
    ASSERT_LT(table_end, image.size());
    for (size_t i = 0; i < image.size();
         i += std::max<size_t>(1, image.size() / 64)) {
        std::string bad = image;
        bad[i] = static_cast<char>(bad[i] ^ 0x80);
        ASSERT_TRUE(
            util::publishFileAtomic(scratch.path.string(), bad));
        core::FrontierCacheSegment segment =
            core::FrontierCacheSegment::open(scratch.path.string(), 0xbeef);
        if (i < table_end) {
            EXPECT_FALSE(segment.valid()) << "flip at " << i;
            continue;
        }
        ASSERT_TRUE(segment.valid()) << "flip at " << i;
        size_t absent = 0;
        for (size_t k = 0; k < fixture.keys.size(); ++k) {
            bool damaged = false;
            std::string_view payload = segment.find(
                core::kCacheRecordRow, fixture.keys[k], nullptr, &damaged);
            EXPECT_EQ(damaged, payload.empty()) << "flip at " << i;
            if (payload.empty())
                ++absent;
            else
                EXPECT_EQ(std::string(payload), fixture.payloads[k]);
        }
        EXPECT_EQ(absent, 1u) << "flip at " << i;
        size_t intact = 0;
        segment.forEach([&](const core::FrontierCacheSegment::Entry &) {
            ++intact;
        });
        EXPECT_EQ(intact, fixture.keys.size() - 1) << "flip at " << i;
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

/** Resident file-backed KiB of this process (RssFile). */
size_t
residentFileKiB()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.rfind("RssFile:", 0) == 0)
            return std::stoul(line.substr(8));
    return 0;
}

TEST(FrontierCacheSegment, OpenReadsTheSlotTableNotTheRecords)
{
    // A valid image followed by 64 MiB of bytes no slot references (a
    // sparse tail, so writing it costs nothing): open() checks the
    // header and the slot table only, so mapping the image makes only
    // those resident, however large the rest of the file is.
    ScratchSegment scratch;
    SegmentFixture fixture(200);
    std::string image =
        core::FrontierCacheSegment::build(0xfeedULL, 1, fixture.records);
    uint32_t slot_count = 0;
    std::memcpy(&slot_count, image.data() + 12, sizeof slot_count);
    const size_t table_bytes = size_t{slot_count} * 32;
    const uint64_t file_bytes = image.size() + (uint64_t{64} << 20);
    for (size_t i = 0; i < 8; ++i)
        image[48 + i] = static_cast<char>(file_bytes >> (8 * i));
    util::WordFold checksum(0);
    checksum.add(image.data(), 56);
    checksum.add(image.data() + 64, table_bytes);
    const uint64_t sealed = checksum.finish();
    for (size_t i = 0; i < 8; ++i)
        image[56 + i] = static_cast<char>(sealed >> (8 * i));
    ASSERT_TRUE(util::publishFileAtomic(scratch.path.string(), image));
    fs::resize_file(scratch.path, file_bytes);

    size_t before = residentFileKiB();
    core::FrontierCacheSegment segment =
        core::FrontierCacheSegment::open(scratch.path.string(), 0xfeed);
    size_t grown = residentFileKiB() - before;
    ASSERT_TRUE(segment.valid());
    EXPECT_EQ(segment.bytes(), file_bytes);
    EXPECT_LT(grown, (64 + table_bytes) / 1024 + 1024)
        << "open made " << grown << " KiB of the file resident";
    // The records still serve, each checked as it is read.
    for (size_t i = 0; i < fixture.keys.size(); ++i)
        EXPECT_EQ(std::string(
                      segment.find(core::kCacheRecordRow, fixture.keys[i])),
                  fixture.payloads[i]);
}

TEST(FrontierCacheSegment, PlanEvictsPastWhatSlotOffsetsAddress)
{
    // Slots store 32-bit offsets, so an image stops at 4 GiB - 1 even
    // under an unbounded budget: past it, the least recently hit
    // records go as under any byte budget. The plan sizes records from
    // their views and never reads these payloads, which have no bytes
    // behind them.
    static const char kNoBytes[1] = {};
    const uint64_t kGiB = uint64_t{1} << 30;
    const std::vector<std::vector<int64_t>> keys = {{1, 2}, {3, 4}, {5, 6}};
    const uint64_t sizes[] = {3 * kGiB / 2, 2 * kGiB, kGiB};
    auto plan_all = [&] {
        core::SegmentPlan plan(keys.size());
        for (size_t i = 0; i < keys.size(); ++i)
            plan.add({core::kCacheRecordRow, keys[i],
                      std::string_view(kNoBytes, sizes[i]), 0,
                      static_cast<uint32_t>(i + 1)});
        return plan;
    };
    const uint64_t overhead = 64 + 8 * 32 + 3 * (8 + 16);

    core::SegmentPlan over = plan_all();
    EXPECT_EQ(over.imageBytes(), overhead + 9 * kGiB / 2);
    size_t calls = 0;
    EXPECT_FALSE(over.write(1, 1, [&](std::string_view) {
        ++calls;
        return true;
    }));
    EXPECT_EQ(calls, 0u) << "an image past the offsets writes nothing";

    // Unbounded: the oldest record (1.5 GiB) goes, and 3 GiB stay.
    core::SegmentPlan unbounded = plan_all();
    EXPECT_EQ(unbounded.fitTo(UINT64_MAX), 1u);
    EXPECT_EQ(unbounded.imageBytes(), overhead - (8 + 16) + 3 * kGiB);
    EXPECT_LE(unbounded.imageBytes(), core::kFrontierSegmentMaxBytes);

    // A smaller budget evicts further, in the same order.
    core::SegmentPlan budgeted = plan_all();
    EXPECT_EQ(budgeted.fitTo(2 * kGiB), 2u);
    EXPECT_EQ(budgeted.imageBytes(), overhead - 2 * (8 + 16) + kGiB);
}

} // namespace
} // namespace mclp
