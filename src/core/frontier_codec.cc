#include "core/frontier_codec.h"

#include <algorithm>
#include <cmath>


namespace mclp {
namespace core {

size_t
traceKeyGroups(const std::vector<int64_t> &key)
{
    return static_cast<size_t>(
        std::count(key.begin(), key.end(), int64_t{-1}));
}

// ---------------------------------------------------- delta payloads

namespace {

/** Row payload flag: some Tn/Tm exceeds 16 bits, so the shape lanes
 * fall back to varints (no real device geometry gets here; the flag
 * keeps the format total, not fast). */
constexpr uint8_t kRowFlagWideShapes = 1;

} // namespace

void
encodeRowPayload(util::ByteWriter &out, const ShapeFrontier &row)
{
    size_t count = row.size();
    const int32_t *tn = row.tnData();
    const int32_t *tm = row.tmData();
    const int64_t *dsp = row.dspData();
    const int64_t *cycles = row.cyclesData();

    bool wide = false;
    for (size_t i = 0; i < count; ++i)
        wide = wide || tn[i] > 0xffff || tm[i] > 0xffff;

    out.varint(count);
    out.u8(wide ? kRowFlagWideShapes : 0);
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
    // Units-sorted order makes both i64 lanes staircases: DSP deltas
    // are small positive steps, cycle deltas small negative ones.
    // Zig-zag both so a (hypothetically) non-monotone lane still
    // round-trips — decode re-validates monotonicity either way.
    for (size_t i = 0; i < count; ++i) {
        int64_t prev = i == 0 ? 0 : dsp[i - 1];
        out.varint(util::zigzagEncode(dsp[i] - prev));
    }
    for (size_t i = 0; i < count; ++i) {
        int64_t prev = i == 0 ? 0 : cycles[i - 1];
        out.varint(util::zigzagEncode(cycles[i] - prev));
    }
}

std::optional<ShapeFrontier>
decodeRowPayload(std::string_view payload)
{
    util::ByteReader in(payload);
    uint64_t count64 = 0;
    uint8_t flags = 0;
    if (!in.varint(count64) || count64 > kCacheMaxListEntries ||
        !in.u8(flags) || (flags & ~kRowFlagWideShapes))
        return std::nullopt;
    size_t count = static_cast<size_t>(count64);
    std::vector<FrontierPoint> points(count);
    if (flags & kRowFlagWideShapes) {
        for (size_t i = 0; i < count; ++i) {
            uint64_t value = 0;
            if (!in.varint(value))
                return std::nullopt;
            points[i].shape.tn = static_cast<int64_t>(value);
        }
        for (size_t i = 0; i < count; ++i) {
            uint64_t value = 0;
            if (!in.varint(value))
                return std::nullopt;
            points[i].shape.tm = static_cast<int64_t>(value);
        }
    } else {
        for (size_t i = 0; i < count; ++i) {
            uint16_t value = 0;
            if (!in.u16(value))
                return std::nullopt;
            points[i].shape.tn = value;
        }
        for (size_t i = 0; i < count; ++i) {
            uint16_t value = 0;
            if (!in.u16(value))
                return std::nullopt;
            points[i].shape.tm = value;
        }
    }
    int64_t prev = 0;
    for (size_t i = 0; i < count; ++i) {
        uint64_t delta = 0;
        if (!in.varint(delta))
            return std::nullopt;
        points[i].dsp = prev + util::zigzagDecode(delta);
        prev = points[i].dsp;
    }
    prev = 0;
    for (size_t i = 0; i < count; ++i) {
        uint64_t delta = 0;
        if (!in.varint(delta))
            return std::nullopt;
        points[i].cycles = prev + util::zigzagDecode(delta);
        prev = points[i].cycles;
    }
    if (!in.ok() || !in.atEnd())
        return std::nullopt;
    // fromPoints re-validates the staircase invariants, so corrupt
    // bytes that parse cannot become a frontier.
    return ShapeFrontier::fromPoints(std::move(points));
}

void
encodeTracePayload(util::ByteWriter &out,
                   const FrontierTraceImage &image)
{
    out.u8(image.complete ? 1 : 0);
    out.varint(static_cast<uint64_t>(image.initialBram));
    out.f64(image.initialPeak);
    out.varint(image.steps.size());
    int64_t prev_bram = image.initialBram;
    for (const TradeoffCurveCache::PartitionStep &step : image.steps) {
        out.varint(step.clp);
        out.varint(static_cast<uint64_t>(step.inCap));
        out.varint(static_cast<uint64_t>(step.outCap));
        // Total BRAM strictly decreases along a walk: store the drop.
        out.varint(static_cast<uint64_t>(prev_bram - step.totalBram));
        out.f64(step.totalPeak);
        prev_bram = step.totalBram;
    }
}

bool
decodeTracePayload(std::string_view payload, size_t key_groups,
                   FrontierTraceImage &image)
{
    util::ByteReader in(payload);
    uint8_t complete = 0;
    uint64_t bram = 0, count64 = 0;
    if (!in.u8(complete) || !in.varint(bram) ||
        !in.f64(image.initialPeak) || !in.varint(count64) ||
        count64 > kCacheMaxListEntries)
        return false;
    image.complete = complete != 0;
    image.initialBram = static_cast<int64_t>(bram);
    if (image.initialBram < 0 || !std::isfinite(image.initialPeak))
        return false;
    size_t count = static_cast<size_t>(count64);
    image.steps.resize(count);
    int64_t prev_bram = image.initialBram;
    for (size_t i = 0; i < count; ++i) {
        TradeoffCurveCache::PartitionStep &step = image.steps[i];
        uint64_t clp = 0, in_cap = 0, out_cap = 0, drop = 0;
        if (!in.varint(clp) || !in.varint(in_cap) ||
            !in.varint(out_cap) || !in.varint(drop) ||
            !in.f64(step.totalPeak))
            return false;
        step.clp = static_cast<uint32_t>(clp);
        step.inCap = static_cast<int64_t>(in_cap);
        step.outCap = static_cast<int64_t>(out_cap);
        step.totalBram = prev_bram - static_cast<int64_t>(drop);
        // The walk's invariants, re-checked on every load: a trace
        // that violates them is untrustworthy whatever its checksum.
        if (clp >= key_groups || step.inCap < 0 || step.outCap < 0 ||
            step.totalBram < 0 || step.totalBram >= prev_bram ||
            !std::isfinite(step.totalPeak))
            return false;
        prev_bram = step.totalBram;
    }
    return in.ok() && in.atEnd();
}

bool
peekTraceMeta(std::string_view payload, bool *complete, size_t *steps)
{
    util::ByteReader in(payload);
    uint8_t flag = 0;
    uint64_t bram = 0, count = 0;
    double peak = 0.0;
    if (!in.u8(flag) || !in.varint(bram) || !in.f64(peak) ||
        !in.varint(count) || count > kCacheMaxListEntries)
        return false;
    *complete = flag != 0;
    *steps = static_cast<size_t>(count);
    return true;
}

// ------------------------------------- legacy SoA records (baseline)

namespace {

/** Length-prefixed key block ([u32 words][i64 words...]). */
void
writeLegacyKey(util::ByteWriter &out, const std::vector<int64_t> &key)
{
    out.u32(static_cast<uint32_t>(key.size()));
    out.i64Words(key.data(), key.size());
}

} // namespace

std::string
encodeLegacyRowRecord(const std::vector<int64_t> &key,
                      const ShapeFrontier &row)
{
    util::ByteWriter out;
    out.u8(kCacheRecordRow);
    writeLegacyKey(out, key);
    size_t count = row.size();
    out.u32(static_cast<uint32_t>(count));
    std::vector<int64_t> lane(count);
    for (size_t i = 0; i < count; ++i)
        lane[i] = row.tnData()[i];
    out.i64Words(lane.data(), count);
    for (size_t i = 0; i < count; ++i)
        lane[i] = row.tmData()[i];
    out.i64Words(lane.data(), count);
    out.i64Words(row.dspData(), count);
    out.i64Words(row.cyclesData(), count);
    return out.bytes();
}

std::string
encodeLegacyTraceRecord(const std::vector<int64_t> &key,
                        const FrontierTraceImage &image)
{
    util::ByteWriter out;
    out.u8(kCacheRecordTrace);
    writeLegacyKey(out, key);
    out.u8(image.complete ? 1 : 0);
    out.i64(image.initialBram);
    out.f64(image.initialPeak);
    out.u32(static_cast<uint32_t>(image.steps.size()));
    for (const TradeoffCurveCache::PartitionStep &step : image.steps) {
        out.u32(step.clp);
        out.i64(step.inCap);
        out.i64(step.outCap);
        out.i64(step.totalBram);
        out.f64(step.totalPeak);
    }
    return out.bytes();
}

} // namespace core
} // namespace mclp
