/**
 * @file
 * Key and payload formats of the persistent frontier cache: what one
 * record of the mmap'd segment (core/frontier_cache_segment.h) holds.
 * The segment owns the file layout — header, slot table, key blob,
 * counters — and this codec owns the bytes of each key and payload,
 * shared by the row store, the cache, the compaction benchmark, and
 * the format tests.
 *
 *  - **Packed keys.** A key is a sequence of small integers (a row's
 *    type, units cap and per-layer dims; a trace's partition
 *    signature with -1 group separators), packed as zig-zag LEB128
 *    varints: one or two bytes a word instead of eight. A row key is
 *    packed as it grows (RowKey), one layer at a time, and carries
 *    its hash along — FNV-1a over the record kind, then the packed
 *    bytes, the segment's slot hash — so the row store, the pending
 *    log and the segment probe all use one hash that no lookup
 *    recomputes. Keys compare as bytes; only a reader that needs the
 *    words back (a trace's group count, the compaction benchmark)
 *    unpacks them, with every varint checked.
 *
 *  - **Delta staircases.** Staircase points are stored in
 *    their units-sorted order (the order the frontier keeps them in:
 *    strictly increasing DSP, strictly decreasing cycles), which
 *    makes every lane delta-friendly: Tn/Tm fit 16 bits on any real
 *    geometry (a one-byte wide-flag keeps absurd dims correct), DSP
 *    deltas are small positive varints, and cycle deltas are small
 *    negative steps stored as zig-zag varints. ~8-10 bytes per point
 *    against the legacy SoA encoding's fixed 32, while staying
 *    bit-exact: decode rebuilds the identical int64 lanes in one
 *    pass, straight into the row's own block, and checks the
 *    staircase invariants as it goes (the same checks
 *    ShapeFrontier::fromPoints, the tests' row factory, makes), so
 *    corruption that survives the checksum still cannot masquerade
 *    as a frontier.
 *
 *  - **Delta walk traces.** Memory-walk traces use the same idea
 *    (total BRAM strictly decreases along a walk, so steps store the
 *    positive drop); peaks stay IEEE-754 bit patterns because warm
 *    answers must be byte-identical to cold ones.
 *
 * The legacy SoA record encoders (four fixed-width i64 lane blocks,
 * word keys) survive only as the compaction baseline that the format
 * tests and bench/cache_reuse measure the delta records against;
 * nothing reads that encoding any more.
 */

#ifndef MCLP_CORE_FRONTIER_CODEC_H
#define MCLP_CORE_FRONTIER_CODEC_H

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/memory_optimizer.h"
#include "core/shape_frontier.h"
#include "util/record_file.h"

namespace mclp {
namespace core {

/** Record kinds of the segment. */
constexpr uint8_t kCacheRecordRow = 1;
constexpr uint8_t kCacheRecordTrace = 2;

/** Point/step counts are capped to reject absurd corrupt lengths
 * before any allocation happens. */
constexpr uint32_t kCacheMaxListEntries = 1 << 24;

// ------------------------------------------------------- packed keys

/** @p words as zig-zag LEB128 varints, back to back: the packed form
 * of every cache key. */
std::string packKey(std::span<const int64_t> words);

/**
 * Unpack key bytes into @p words (replacing what it held); false, with
 * @p words untouched, unless every byte of @p key belongs to a
 * well-formed varint. Refused before anything is allocated: a varint
 * the bytes end inside (a truncated key, or stray continuation bytes
 * after its last word), and an overlong one (an 11th byte, or a 10th
 * carrying bits past the 64th). A key is handed over at its exact
 * length — the segment's slot and the pending log's record both store
 * it — so the zero padding after it in those records is never read as
 * words; the segment's record check covers that padding instead, so a
 * nonzero padding byte fails the record.
 */
bool unpackKey(std::string_view key, std::vector<int64_t> &words);

/** The hash of a record's key: FNV-1a over @p kind, then the packed
 * bytes. The segment's slot hash, and the hash the row store and the
 * pending log index rows by. */
uint64_t keyHash(uint8_t kind, std::string_view key);

/**
 * A frontier row's store key, packed: the data type and the units
 * cap the row is built under, then per layer of the range n, m,
 * r*c*k^2 and g. Network identity and layer indices never enter, so
 * dims-identical ranges of different networks share one row. The key
 * grows by a layer at a time, in O(1) — a few varint bytes, and its
 * hash (keyHash(kCacheRecordRow, bytes())) extended over just those
 * bytes — and a key of [i..j] is a byte prefix of every key of
 * [i..j+k], with the hash it had then.
 */
class RowKey
{
  public:
    /** The key of an empty range: type and units cap. */
    static RowKey root(fpga::DataType type, int64_t units_cap);

    /** Extend the range by @p layer. */
    void append(const nn::ConvLayer &layer);

    /** Cut the key back to a prefix it held: its first @p bytes
     * bytes, whose hash was @p hash. */
    void truncate(size_t bytes, uint64_t hash);

    std::string_view bytes() const { return bytes_; }
    uint64_t hash() const { return hash_; }

  private:
    void put(int64_t word);

    std::string bytes_;
    uint64_t hash_ = 0;
};

/** A decoded memory-walk trace as the cache stores it. */
struct FrontierTraceImage
{
    bool complete = false;
    int64_t initialBram = 0;
    double initialPeak = 0.0;
    std::vector<TradeoffCurveCache::PartitionStep> steps;
};

/** Groups in a partition-trace key = the -1 delimiters it contains
 * (trace semantic validation needs the bound). */
size_t traceKeyGroups(const std::vector<int64_t> &key);

// ---------------------------------------------------- delta payloads

/**
 * Append @p row's delta staircase payload to @p out, leaving the bytes
 * already there untouched. The payload carries no key and no counters
 * — the segment's slot holds those. One pass through a write cursor:
 * the cache encodes every freshly built row this way when it is noted,
 * on the request path.
 */
void encodeRowPayload(std::string &out, const ShapeFrontier &row);

/**
 * Decode a delta staircase payload; the payload must end exactly
 * where the staircase does. One pass fills the row's single block
 * (ShapeFrontier::uninitialized) and checks each point as it lands
 * (ShapeFrontier::validShape, staircaseStep); nothing else is
 * allocated. A point count the remaining bytes cannot hold is refused
 * before the block is allocated, and delta sums wrap in uint64_t, so
 * hostile bytes cost no more than their length. nullopt on any
 * framing or staircase-invariant violation.
 */
std::optional<ShapeFrontier> decodeRowPayload(std::string_view payload);

/** Encode a walk trace as the delta trace payload. */
void encodeTracePayload(util::ByteWriter &out,
                        const FrontierTraceImage &image);

/**
 * Decode and semantically validate a trace payload: the walk's
 * invariants (non-negative caps, strictly decreasing total BRAM,
 * finite peaks, mover indices under @p key_groups) must hold or the
 * image is rejected regardless of checksums. A step count the
 * remaining bytes cannot hold is refused before the steps are
 * allocated.
 */
bool decodeTracePayload(std::string_view payload, size_t key_groups,
                        FrontierTraceImage &image);

/**
 * Read just (complete, step count) from a trace payload — the flush
 * merge's "is ours deeper?" comparison without a full decode. A step
 * count the remaining bytes cannot hold is refused, as
 * decodeTracePayload refuses it.
 */
bool peekTraceMeta(std::string_view payload, bool *complete,
                   size_t *steps);

// ------------------------------------- legacy SoA records (baseline)

/** Whole legacy records (kind + word key + SoA/fixed-width body),
 * exactly as the pre-delta format laid them out: the compaction
 * baseline. */
std::string encodeLegacyRowRecord(const std::vector<int64_t> &key,
                                  const ShapeFrontier &row);
std::string encodeLegacyTraceRecord(const std::vector<int64_t> &key,
                                    const FrontierTraceImage &image);

} // namespace core
} // namespace mclp

#endif // MCLP_CORE_FRONTIER_CODEC_H
