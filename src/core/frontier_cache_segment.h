/**
 * @file
 * The mmap'd cache segment: the frontier cache's one on-disk artifact,
 * an immutable, hash-indexed image that every worker process on a
 * host maps read-only.
 *
 *   [64-byte header | slot table | key blob | payload blob]
 *
 * The slot table is an open-addressed, linearly probed hash table
 * over an FNV-1a hash of (kind, key words), so find() is a probe walk
 * plus one key compare and one record check, no allocation, no
 * decode; it reports the slot it matched, and entryAt() reads a
 * record back by slot. Each slot also carries the record's hit
 * counter and the generation of its last hit, which the byte budget's
 * least-recently-hit eviction reads at the next flush. The key blob
 * holds each record's check word followed by its key words; payloads
 * are the delta staircase encodings of core/frontier_codec.h, decoded
 * lazily by whoever actually needs the row. N workers mapping one
 * segment share one page-cache copy of the bytes and touch only what
 * they read.
 *
 * Checks come in two sizes, so opening costs the slot table and
 * reading a record costs that record:
 *  - the header's checksum covers the header and the slot table.
 *    open() verifies it and bounds-checks every slot, so find() and
 *    forEach() never read outside the mapping however the file was
 *    damaged; damage there refuses the whole image. open() never
 *    touches the key or payload blob.
 *  - each record's check word covers its kind, key words and payload
 *    (util::WordFold) and is verified wherever the record is read:
 *    find(), entryAt(), forEach(). A record that fails reads as
 *    absent, and find() says so, so the cache rebuilds it cold and
 *    reports the damage.
 * open() says why it refused an image (SegmentState): a stale image
 * (our magic, another version or model fingerprint) is an expected
 * invalidation, a damaged one is not.
 *
 * The segment owns the file layout; the codec owns the payloads.
 * Writers never modify an image in place: a flush plans the new slot
 * table (SegmentPlan) over borrowed keys and payloads, then streams
 * header, slot table, key blob and payload blob in file order into a
 * temp file that util::publishFileAtomic renames over the old one, so
 * a reader maps either the previous complete generation or the new
 * one, never a torn mix, and no writer holds a whole image in memory.
 * Key words and payloads are copied as they lie in memory, so images
 * are little-endian throughout.
 */

#ifndef MCLP_CORE_FRONTIER_CACHE_SEGMENT_H
#define MCLP_CORE_FRONTIER_CACHE_SEGMENT_H

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "util/shm.h"

namespace mclp {
namespace core {

/** First bytes of a segment file ("MCLPSG01", little-endian u64). */
constexpr uint64_t kFrontierSegmentMagic = 0x3130475350434C4DULL;

/** Bump on any change to the segment layout. v2: each slot carries
 * the record's hit counter and last-hit generation (24 -> 32 bytes).
 * v3: the header checksum covers only the header and the slot table,
 * and a check word of its own leads each record's key words. */
constexpr uint32_t kFrontierSegmentVersion = 3;

/** Largest image a plan writes (4 GiB - 1): every offset and length a
 * slot stores then fits its 32-bit field. */
constexpr uint64_t kFrontierSegmentMaxBytes = UINT32_MAX;

/** Segment file name inside the cache directory. */
constexpr const char *kFrontierSegmentFileName = "frontier_cache.seg";

/** One record of a segment image under construction. Key and payload
 * are borrowed views (a flush plans from the published image's
 * mapping, its pending log and its trace encodings, which own the
 * bytes); the payload is a delta encoding from core/frontier_codec.h. */
struct SegmentRecord
{
    uint8_t kind = 0;
    std::span<const int64_t> key;
    std::string_view payload;
    uint32_t hits = 0;     ///< lookups answered from disk, all time
    uint32_t lastGen = 0;  ///< generation of the most recent hit
};

/** What open() found at the path. */
enum class SegmentState
{
    Missing,  ///< no file: a clean cold start
    Stale,    ///< our magic, another version or fingerprint: clean cold
    Damaged,  ///< short, foreign, header/slot checksum or bounds failure
    Valid,    ///< mapped and validated
};

/**
 * The slot table of a segment image, planned before a byte of the
 * image is written, so write() can stream the image in file order.
 * Records are borrowed views and hold one entry each, at most one per
 * (kind, key): besides its own index, a plan allocates nothing per
 * record.
 */
class SegmentPlan
{
  public:
    static constexpr size_t npos = SIZE_MAX;

    /** A plan for at most @p capacity records. */
    explicit SegmentPlan(size_t capacity);

    /** Index of the planned record of (@p kind, @p key), or npos. */
    size_t find(uint8_t kind, std::span<const int64_t> key) const;

    /** Plan @p record and return its index; a (kind, key) planned
     * already keeps its record. */
    size_t add(const SegmentRecord &record);

    const SegmentRecord &record(size_t index) const
    {
        return entries_[index].record;
    }

    /** Give planned record @p index other payload bytes (its key and
     * hit history stay). */
    void setPayload(size_t index, std::string_view payload);

    void setCounters(size_t index, uint32_t hits, uint32_t last_gen);

    /** Exact byte size of the image write() makes. */
    uint64_t imageBytes() const;

    /**
     * Drop least-recently-hit records — oldest last-hit generation,
     * then fewest hits, then larger first (freeing the budget with the
     * fewest casualties), then by key — until the image fits
     * min(@p budget, kFrontierSegmentMaxBytes). Returns the number
     * dropped; only a plan over the limit builds that order.
     */
    size_t fitTo(uint64_t budget);

    /**
     * Stream the image through @p sink in file order: header, slot
     * table, key blob, payload blob. The record bytes go from the
     * borrowed views straight to the sink, each record's check word
     * folded from them on the way. False when the sink fails,
     * or when the image is past kFrontierSegmentMaxBytes (nothing is
     * written then).
     */
    bool write(uint64_t fingerprint, uint64_t generation,
               const util::ByteSink &sink) const;

  private:
    struct Entry
    {
        SegmentRecord record;
        uint64_t hash = 0;
        bool dropped = false;  ///< evicted by fitTo()
    };

    /** Position in index_ of (kind, key)'s entry, or of the empty
     * position where it would go. */
    size_t probe(uint8_t kind, std::span<const int64_t> key,
                 uint64_t hash) const;

    std::vector<Entry> entries_;
    /** Open-addressed over entries_, sized for the capacity at most
     * half full: entry index plus one, 0 for an empty position. */
    std::vector<uint32_t> index_;
    size_t live_ = 0;  ///< planned records fitTo() kept
    uint64_t keyWords_ = 0;  ///< of live records, check words included
    uint64_t payloadBytes_ = 0;  ///< of live records
};

/**
 * A validated read-only mapping of a segment file. Invalid segments
 * (every state but Valid) are empty — callers treat that as "no
 * segment", never an error. Movable; the mapping pins the published
 * inode even after a newer generation renames over the path.
 */
class FrontierCacheSegment
{
  public:
    /** One stored record, as entryAt() and forEach() hand it out. */
    struct Entry
    {
        uint8_t kind = 0;
        std::span<const int64_t> key;  ///< aliases the mapping
        std::string_view payload;      ///< aliases the mapping
        uint32_t hits = 0;
        uint32_t lastGen = 0;
    };

    FrontierCacheSegment() = default;

    /**
     * Map and validate @p path: magic, version, fingerprint, file
     * size, table geometry, the header checksum over the header and
     * the slot table, and every slot's offsets in bounds. Reads the
     * header and the slot table only. state() reports the outcome.
     */
    static FrontierCacheSegment open(const std::string &path,
                                     uint64_t fingerprint);

    /** Serialize @p records (the first of each (kind, key) wins) as a
     * complete segment image in memory: the writer flush() streams to
     * disk, for tests that author images. */
    static std::string build(uint64_t fingerprint, uint64_t generation,
                             const std::vector<SegmentRecord> &records);

    SegmentState state() const { return state_; }
    bool valid() const { return state_ == SegmentState::Valid; }
    uint64_t generation() const { return generation_; }
    size_t entryCount() const { return entryCount_; }
    /** Mapped bytes of the whole image (what cache-stats reports). */
    size_t bytes() const { return map_.size(); }

    /** Slots of the hash table (0 unless valid): the range of the
     * slot numbers find() reports and entryAt() reads. */
    uint32_t slotCount() const { return slotCount_; }

    /**
     * The stored delta payload for (kind, key), or an empty view; on a
     * match, @p slot (when given) receives the slot it matched, which
     * is how the cache counts hits per record without copying keys. A
     * record that fails its check reads as absent and sets
     * @p damaged (when given). The view aliases the mapping and stays
     * valid for the segment's lifetime. Lock-free and allocation-free
     * — the image is immutable, so concurrent finds need no
     * coordination.
     */
    std::string_view find(uint8_t kind, std::span<const int64_t> key,
                          uint32_t *slot = nullptr,
                          bool *damaged = nullptr) const;

    /**
     * Read the record at slot @p slot into @p entry; false for an
     * empty slot, one past slotCount(), or a record that fails its
     * check. The flush reads the keys of hit slots out of the image
     * this way.
     */
    bool entryAt(uint32_t slot, Entry &entry) const;

    /** Visit every record that passes its check, in slot order (the
     * flush merge reads the published image this way). */
    void forEach(const std::function<void(const Entry &)> &fn) const;

  private:
    /** Fill @p entry from slot @p slot (below slotCount()) and
     * @p check with its record's check word, without checking the
     * record; false for an empty slot. */
    bool readSlot(uint32_t slot, Entry &entry, uint64_t &check) const;

    util::MappedFile map_;
    SegmentState state_ = SegmentState::Missing;
    uint64_t generation_ = 0;
    uint32_t slotCount_ = 0;
    size_t entryCount_ = 0;
    size_t keyWordsOff_ = 0;   ///< byte offset of the key blob
    size_t payloadOff_ = 0;    ///< byte offset of the payload blob
};

} // namespace core
} // namespace mclp

#endif // MCLP_CORE_FRONTIER_CACHE_SEGMENT_H
