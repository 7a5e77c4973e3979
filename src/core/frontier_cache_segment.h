/**
 * @file
 * The mmap'd cache segment: the frontier cache's one on-disk artifact,
 * an immutable, checksummed, hash-indexed image that every worker
 * process on a host maps read-only.
 *
 *   [64-byte header | slot table | key blob | payload blob]
 *
 * The slot table is an open-addressed, linearly probed hash table
 * over an FNV-1a hash of (kind, key words), so find() is a probe walk
 * plus one key compare, no allocation, no decode; it reports the slot
 * it matched, and entryAt() reads a record back by slot. Each slot
 * also carries the record's hit counter and the generation of its
 * last hit, which the byte budget's least-recently-hit eviction reads
 * at the next flush. Payloads are the delta staircase encodings of
 * core/frontier_codec.h, decoded lazily by whoever actually needs the
 * row; N workers mapping one segment share one page-cache copy of the
 * bytes and decode only what they touch.
 *
 * The segment owns the file layout; the codec owns the payloads.
 * Writers never modify an image in place: flush() builds a complete
 * new image and publishes it with an atomic tmp+rename
 * (util::publishFileAtomic), so a reader maps either the previous
 * complete generation or the new one, never a torn mix. Every byte
 * after the header is covered by one FNV-1a checksum, checked once at
 * open; all slot offsets are bounds-validated then too, so find() and
 * forEach() never read outside the mapping however the file was
 * damaged. open() says why it refused an image (SegmentState): a
 * stale image (our magic, another version or model fingerprint) is an
 * expected invalidation, a damaged one is not.
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
 * the record's hit counter and last-hit generation (24 -> 32 bytes). */
constexpr uint32_t kFrontierSegmentVersion = 2;

/** Segment file name inside the cache directory. */
constexpr const char *kFrontierSegmentFileName = "frontier_cache.seg";

/** One record of a segment image under construction. Key and payload
 * are borrowed views (build() runs inside flush(), whose pending log,
 * merge base and trace snapshots own the bytes); the payload is a
 * delta encoding from core/frontier_codec.h. */
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
    Damaged,  ///< short, foreign, checksum or bounds failure: dirty cold
    Valid,    ///< mapped and validated
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
    /** One stored record, as forEach() hands it out. */
    struct Entry
    {
        uint8_t kind = 0;
        std::vector<int64_t> key;
        std::string_view payload;  ///< aliases the mapping
        uint32_t hits = 0;
        uint32_t lastGen = 0;
    };

    FrontierCacheSegment() = default;

    /**
     * Map and validate @p path: magic, version, fingerprint,
     * whole-body checksum, table geometry, and every slot's offsets
     * in bounds. state() reports the outcome.
     */
    static FrontierCacheSegment open(const std::string &path,
                                     uint64_t fingerprint);

    /** Exact byte size of the image build() makes for @p records
     * records holding @p key_words key words and @p payload_bytes
     * payload bytes in total (the byte budget's yardstick). */
    static size_t imageBytes(size_t records, size_t key_words,
                             size_t payload_bytes);

    /** Serialize @p records as a complete segment image for
     * util::publishFileAtomic. */
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
     * is how the cache counts hits per record without copying keys.
     * The view aliases the mapping and stays valid for the segment's
     * lifetime. Lock-free and allocation-free — the image is
     * immutable, so concurrent finds need no coordination.
     */
    std::string_view find(uint8_t kind, const std::vector<int64_t> &key,
                          uint32_t *slot = nullptr) const;

    /**
     * Read the record at slot @p slot into @p entry (reusing its key
     * storage); false for an empty slot or one past slotCount(). The
     * flush reads the keys of hit slots out of the image this way.
     */
    bool entryAt(uint32_t slot, Entry &entry) const;

    /** Visit every stored record in slot order (the flush merge reads
     * the previous image this way, payloads as views). */
    void forEach(const std::function<void(const Entry &)> &fn) const;

  private:
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
