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

/** Append @p value as a LEB128 varint at @p out; returns the end. */
inline char *
putVarint(char *out, uint64_t value)
{
    while (value >= 0x80) {
        *out++ = static_cast<char>((value & 0x7f) | 0x80);
        value >>= 7;
    }
    *out++ = static_cast<char>(value);
    return out;
}

/** Bytes a varint of a value under 2^63 can take (a zig-zag delta of
 * two positive int64 values, or a count). */
constexpr size_t kMaxVarintBytes = 10;

/** Fewest bytes a trace step takes: four one-byte varints and an f64.
 * A step count the remaining bytes cannot hold is refused. */
constexpr size_t kMinTraceStepBytes = 4 + 8;

} // namespace

void
encodeRowPayload(std::string &out, const ShapeFrontier &row)
{
    size_t count = row.size();
    const int32_t *tn = row.tnData();
    const int32_t *tm = row.tmData();
    const int64_t *dsp = row.dspData();
    const int64_t *cycles = row.cyclesData();

    bool wide = false;
    for (size_t i = 0; i < count; ++i)
        wide = wide || tn[i] > 0xffff || tm[i] > 0xffff;

    // Size for the worst case, write through a cursor, then trim: one
    // resize each way instead of a capacity check per byte.
    size_t start = out.size();
    size_t shape_bytes = wide ? 5 : 2;  // a positive int32 varint, or a u16
    out.resize(start + kMaxVarintBytes + 1 +
               count * (2 * shape_bytes + 2 * kMaxVarintBytes));
    char *p = out.data() + start;
    p = putVarint(p, count);
    *p++ = static_cast<char>(wide ? kRowFlagWideShapes : 0);
    for (const int32_t *lane : {tn, tm}) {
        if (wide) {
            for (size_t i = 0; i < count; ++i)
                p = putVarint(p, static_cast<uint64_t>(lane[i]));
        } else {
            for (size_t i = 0; i < count; ++i) {
                *p++ = static_cast<char>(lane[i] & 0xff);
                *p++ = static_cast<char>((lane[i] >> 8) & 0xff);
            }
        }
    }
    // Units-sorted order makes both i64 lanes staircases: DSP deltas
    // are small positive steps, cycle deltas small negative ones.
    // Zig-zag both so a (hypothetically) non-monotone lane still
    // round-trips — decode re-validates monotonicity either way.
    for (const int64_t *lane : {dsp, cycles}) {
        int64_t prev = 0;
        for (size_t i = 0; i < count; ++i) {
            p = putVarint(p, util::zigzagEncode(lane[i] - prev));
            prev = lane[i];
        }
    }
    out.resize(static_cast<size_t>(p - out.data()));
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
    bool wide = flags & kRowFlagWideShapes;
    // Refuse a count the remaining bytes cannot hold before allocating
    // for it: a narrow point takes two u16 shapes and two varints (at
    // least 6 bytes), a wide one four varints (at least 4).
    if (count64 > in.remaining() / (wide ? 4 : 6))
        return std::nullopt;
    size_t count = static_cast<size_t>(count64);

    // One pass over the payload, straight into the row's own block:
    // each lane is checked as it fills, and the staircase step of
    // point i as soon as its cycles land (the last lane).
    ShapeFrontier::Lanes lanes;
    ShapeFrontier row = ShapeFrontier::uninitialized(count, lanes);
    for (int32_t *lane : {lanes.tn, lanes.tm}) {
        for (size_t i = 0; i < count; ++i) {
            int64_t shape = 0;
            if (wide) {
                uint64_t value = 0;
                if (!in.varint(value))
                    return std::nullopt;
                shape = static_cast<int64_t>(value);
            } else {
                uint16_t value = 0;
                if (!in.u16(value))
                    return std::nullopt;
                shape = value;
            }
            if (!ShapeFrontier::validShape(shape))
                return std::nullopt;
            lane[i] = static_cast<int32_t>(shape);
        }
    }
    // Deltas accumulate in uint64_t: a hostile delta wraps (defined)
    // instead of overflowing, and a wrapped value fails the step.
    auto next = [&in](uint64_t &sum, int64_t &value) {
        uint64_t delta = 0;
        if (!in.varint(delta))
            return false;
        sum += static_cast<uint64_t>(util::zigzagDecode(delta));
        value = static_cast<int64_t>(sum);
        return true;
    };
    uint64_t sum = 0;
    for (size_t i = 0; i < count; ++i)
        if (!next(sum, lanes.dsp[i]))
            return std::nullopt;
    sum = 0;
    for (size_t i = 0; i < count; ++i)
        if (!next(sum, lanes.cycles[i]) ||
            !ShapeFrontier::staircaseStep(lanes, i))
            return std::nullopt;
    if (!in.atEnd())
        return std::nullopt;
    return row;
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
    // Refuse a count the remaining bytes cannot hold before allocating
    // for it.
    if (count64 > in.remaining() / kMinTraceStepBytes)
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
    // decodeTracePayload's bounds: a forged count must not make a
    // record look deeper than any walk could replace.
    if (!in.u8(flag) || !in.varint(bram) || !in.f64(peak) ||
        !in.varint(count) || count > kCacheMaxListEntries ||
        count > in.remaining() / kMinTraceStepBytes)
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
