/**
 * @file
 * The persistent frontier cache: warm DSE state that survives the
 * process, shared across processes through an mmap'd segment.
 *
 * Warm sessions and the session registry make one frontier build
 * answer a whole budget ladder and one registry serve many networks,
 * but without a persistent tier every fresh mclp-opt invocation and
 * every mclp-serve restart would rebuild the same Pareto staircases
 * from scratch. FrontierCache serializes the two expensive,
 * budget-independent artifacts to disk:
 *
 *  - ShapeFrontier staircases, keyed by the FrontierRowStore's
 *    dims-sequence keys (type, units cap, per-layer n/m/r*c*k^2/g) —
 *    network identity never enters, so a cache populated by one CNN
 *    warms dims-identical ranges of another;
 *  - MemoryOptimizer greedy-walk traces, keyed by the
 *    TradeoffCurveCache partition signatures (type, per-group shape
 *    and layer tiling dims).
 *
 * The cache's one on-disk artifact is the **segment**
 * (frontier_cache.seg, core/frontier_cache_segment.h): an immutable,
 * hash-indexed image of delta-compacted records
 * (core/frontier_codec.h), each carrying its own check, a hit counter
 * and the generation of its last hit so a byte budget (the
 * constructor's max_bytes) can evict the least-recently-hit records
 * at flush time. Opening the cache maps the segment read-only and
 * checks only its header and slot table, so it costs the slot count,
 * not the image size; rows and traces decode lazily, straight out of
 * the mapping, each after its own check, and processes mapping one
 * directory share one page-cache copy. The ladder a lookup climbs
 * is process (the FrontierRowStore's map, or the TradeoffCurveCache's
 * traces) -> mmap (this directory's segment, or the pending log for a
 * row noted since the last flush) -> cold: a non-null loadRow() or a
 * true seedTrace() is an mmap hit. Both pin the current image under
 * the cache mutex and then find and decode with no lock held, so warm
 * entries decode in parallel and a concurrent flush's swap never
 * unmaps bytes a decode is reading. The cache keeps no decoded copy
 * of either: a decoded row goes to the row store, and a decoded
 * trace's steps move into the trace being seeded. Each shard of a
 * sharded front owns one directory, so a respawned shard warms from
 * its own segment.
 *
 * Invalidation is versioned, never heuristic: the segment header
 * carries a layout version and a *model-formula fingerprint* — a hash
 * over probe evaluations of the cycle/DSP/BRAM/bandwidth models — so
 * an image written by another layout or by a binary with different
 * model constants is stale: ignored wholesale, a clean cold start.
 * Every record is a pure function of its key and that fingerprint, so
 * anything other than a current, valid image may simply be rebuilt.
 * Damage in the header or the slot table (a short or foreign file, a
 * failed checksum, an out-of-bounds slot) refuses the image whole,
 * with a warning. Damage in a record refuses only that record: it
 * reads as absent, is rebuilt cold and logged, clears clean, and the
 * next flush that rewrites the image puts the rebuilt record in its
 * place. Either way damage costs warmth, never a wrong byte. A
 * frontier_cache.bin record file left by an older binary is ignored
 * and removed by the first flush that publishes.
 *
 * The cache is a read-through/write-back layer: FrontierRowStore and
 * TradeoffCurveCache consult it on a miss and note fresh builds, and
 * flush() merges pending entries with whatever image is published
 * *now* (concurrent CLIs interleave safely under a per-directory
 * advisory lock). The merge plans the new slot table from the
 * published image, the log and the trace snapshots, then streams the
 * image from those sources into a temp file that is renamed
 * atomically, so a flush never holds a whole image in memory and a
 * crash never leaves a half-written cache.
 * A noted row waits only as the record the flush will write — its key
 * words and encoded payload, appended to one chunked log that holds
 * each key once — never as a decoded row, so the row store frees rows
 * under a cache exactly as it does without one, and a released row
 * needed again before the flush decodes from its log record.
 * SessionRegistry flushes on destruction, which covers mclp-opt and
 * mclp-serve shutdown alike. Hits are counted in one atomic counter
 * per slot of the mapped image, never by copying a key. A flush with
 * nothing new — including one where only hit counters moved — is a
 * no-op that reads none of them; a flush that rewrites the image
 * folds each nonzero slot into its record (the key read out of the
 * image), and hits scored after the fold carry over to the same
 * keys' slots of the new image.
 *
 * The project invariant extends to disk: designs answered from an
 * mmap-warm cache are byte-for-byte identical to cold
 * runs (tests/core/test_frontier_cache.cc pins this on fixed and
 * random networks; the CI smoke diffs whole mclp-opt responses).
 */

#ifndef MCLP_CORE_FRONTIER_CACHE_H
#define MCLP_CORE_FRONTIER_CACHE_H

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "core/frontier_cache_segment.h"
#include "core/frontier_codec.h"
#include "core/memory_optimizer.h"
#include "core/shape_frontier.h"
#include "util/hash.h"

namespace mclp {
namespace core {

/** Record-file name of the pre-segment cache format. Nothing reads
 * or writes it any more: a leftover one is ignored at open and
 * removed by the first flush that publishes a segment. */
constexpr const char *kFrontierCacheFileName = "frontier_cache.bin";
/** Advisory lock file that serializes flushes of one directory. */
constexpr const char *kFrontierCacheLockName = "frontier_cache.lock";

/**
 * Digest of the analytical models a cached artifact depends on,
 * computed by hashing probe evaluations of the cycle, DSP, BRAM, and
 * bandwidth models (not source text — exactly the formulas). Any
 * constant tweak in those models changes the fingerprint, and every
 * segment written under the old formulas self-invalidates.
 */
uint64_t modelFormulaFingerprint();

/**
 * One process's view of an on-disk cache directory. Thread safe; one
 * instance is shared by every session of a SessionRegistry.
 */
class FrontierCache
{
  public:
    struct Stats
    {
        /** Row records noted since the last flush, one per key. */
        size_t rowsPending = 0;
        size_t tracesNoted = 0;    ///< live traces tracked for flush
        size_t flushes = 0;        ///< successful flush() commits
        /** Segment was absent, valid, or stale (another version or
         * fingerprint: an expected invalidation), and no record read
         * from it failed its check. A damaged image — truncation, bit
         * rot in the slot table, a forged slot — or one damaged record
         * is not clean. */
        bool loadedClean = true;
        uint64_t generation = 0;   ///< of the image mapped or published
        bool segmentMapped = false;   ///< serving from the mmap tier
        size_t segmentEntries = 0;    ///< records in the mapped image
        size_t segmentBytes = 0;      ///< bytes of the mapped image
        /** Rows decoded from the mapped image (rows decoded from
         * the pending log are not counted). Two threads racing to
         * decode one row both count here (and in the slot's hit
         * counter); only the row store's winning insert counts as its
         * mmapHits. */
        size_t segmentRowHits = 0;
        size_t segmentTraceHits = 0;  ///< trace hits decoded from mmap
        size_t evictedLastFlush = 0;  ///< records the budget dropped
    };

    /**
     * Open (and create if needed) cache directory @p dir and map its
     * segment; entries then decode from the mapping on demand. Any
     * defect — missing directory, stale version or fingerprint,
     * truncation, header checksum or bounds failure — degrades to an
     * empty (cold) cache; construction never throws for file reasons.
     *
     * @param max_bytes byte budget for the segment image (0 =
     * unbounded): header, slot table, key words and payloads. When a
     * flush would exceed it, the least-recently-hit records (oldest
     * last-hit generation, then fewest hits) are evicted until the
     * image fits; records touched this session survive first. Every
     * budget stops at kFrontierSegmentMaxBytes, where the slots'
     * 32-bit offsets do.
     */
    explicit FrontierCache(std::string dir, size_t max_bytes = 0);

    const std::string &dir() const { return dir_; }

    /**
     * The staircase noted or persisted under a FrontierRowStore key,
     * decoded from its pending log record or from the mapped image, or
     * null. Takes the cache mutex once, to pin the current image and
     * copy out a pending payload: the find, the record check and the
     * decode run unlocked, so callers may decode concurrently. A record
     * that fails its check (which clears Stats::loadedClean) or does
     * not decode is a miss.
     */
    std::shared_ptr<const ShapeFrontier>
    loadRow(const std::vector<int64_t> &key);

    /**
     * Record a freshly built staircase for the next flush(). The row
     * is encoded and its key hashed outside every lock; under the
     * cache mutex its record is only appended to the pending log, so
     * the cache keeps no reference to @p row. A key the log already
     * holds, or the mapped image holds under the same bytes, is not
     * logged again. An image record that fails its check or holds
     * other bytes (a payload loadRow() could not decode) is replaced:
     * the row is logged, loadRow() serves it from the log, and the
     * next flush publishes it in the record's place.
     */
    void noteRow(const std::vector<int64_t> &key,
                 const std::shared_ptr<const ShapeFrontier> &row);

    /**
     * Seed a just-created PartitionTrace from disk. @p trace must not
     * be shared with other threads yet (it is filled unlocked). Like
     * loadRow(), the cache mutex is held only to pin the image; the
     * find and the decode run unlocked. Returns false — leaving the
     * trace untouched — when the key is absent or the stored trace
     * fails validation.
     */
    bool seedTrace(const std::vector<int64_t> &key,
                   TradeoffCurveCache::PartitionTrace &trace);

    /**
     * Track a live trace for write-back: at flush() time its current
     * walk prefix is serialized when it goes deeper than the record
     * of the image mapped when the flush began. Tracking keeps the
     * trace alive past its session, so an evicted session's walk
     * still reaches disk; once a successful flush has put a trace that
     * no session holds on disk, the cache lets go of it. A key whose
     * tracked trace only the cache still holds is re-pointed at
     * @p trace (a successor session's); while a session holds it, the
     * first noted wins.
     */
    void noteTrace(
        const std::vector<int64_t> &key,
        std::shared_ptr<TradeoffCurveCache::PartitionTrace> trace);

    /**
     * Write-back: merge the pending log and grown traces with the
     * *currently published* segment under the advisory lock (a
     * concurrent CLI may have flushed since we opened), fold this
     * process's hit counts into the image's counters, evict past the
     * byte budget, and publish the new image atomically. The flush
     * takes the whole log once it holds the file lock (rows noted
     * meanwhile start a new one), plans the new slot table, and
     * streams keys and payloads from the published mapping, the log
     * and the trace encodings to the file without re-encoding or
     * copying them; a key the published image already holds keeps its
     * record unless the log holds other bytes for it. No-op
     * (returning true) when nothing but hit counters changed — counter
     * updates ride the next real rewrite. False on I/O failure or a
     * failed allocation — the previous image survives, and so do the
     * counts and the log, put back in front of any rows noted since.
     */
    bool flush();

    Stats stats() const;

  private:
    /**
     * A mapped image plus this process's hit count for each of its
     * slots. Held by shared_ptr, so a lookup that pinned it keeps the
     * mapping alive across its unlocked decode while a flush swaps in
     * the next one. A hit scored on an image after the flush that
     * replaced it carried its counts over is not counted: the
     * counters steer eviction, they are not an audit.
     */
    struct Image
    {
        explicit Image(FrontierCacheSegment mapped);

        /** Add @p count hits to slot @p slot. */
        void
        addHits(uint32_t slot, uint32_t count)
        {
            std::atomic_ref<uint32_t>(hits[slot])
                .fetch_add(count, std::memory_order_relaxed);
        }

        /** Zero each nonzero slot counter, handing its count and the
         * record it counted (key read out of the image) to @p fn. */
        void takeHits(
            const std::function<void(uint32_t slot, uint32_t hits,
                                     const FrontierCacheSegment::Entry &)>
                &fn);

        struct Free
        {
            void operator()(uint32_t *p) const { std::free(p); }
        };

        FrontierCacheSegment segment;
        /** One counter per slot, touched only through std::atomic_ref.
         * calloc'd, so a counter page is zero-filled on its first hit,
         * not at open: mapping a large image stays cheap. */
        std::unique_ptr<uint32_t[], Free> hits;
    };

    /**
     * Rows noted since the last flush, held as the records the flush
     * writes, at most one per key: one word [key word count << 32 |
     * payload length], the key words, then the payload padded to a
     * whole word. Records fill 1 MiB chunks in note order and never
     * move, so an open-addressed index of (key hash, record) slots
     * finds a key by comparing its words in place, copying none. A
     * flush takes the whole log, index included.
     */
    class PendingLog
    {
      public:
        /** The payload logged under @p key, whose hashInt64Words() is
         * @p hash, or an empty view. */
        std::string_view find(std::span<const int64_t> key,
                              size_t hash) const;

        /** Log @p payload under @p key (hash @p hash) unless a record
         * of that key is already logged. */
        void append(std::span<const int64_t> key, size_t hash,
                    std::string_view payload);

        /** Put @p older's records in front of this log's, dropping
         * this log's record of any key @p older holds. */
        void prepend(PendingLog older);

        size_t records() const { return records_; }
        bool empty() const { return records_ == 0; }

        /** Visit every record in note order as (key words, payload). */
        template <class Fn>
        void forEach(Fn &&fn) const;

      private:
        struct Chunk
        {
            std::unique_ptr<uint64_t[]> words;
            size_t capacity = 0;  ///< words
            size_t used = 0;      ///< words
        };

        struct Slot
        {
            size_t hash = 0;
            const uint64_t *record = nullptr;  ///< null: empty slot
        };

        /** Index of the slot holding @p key's record, or of the empty
         * slot where it would go. The index is not empty. */
        size_t probe(std::span<const int64_t> key, size_t hash) const;

        std::vector<Chunk> chunks_;
        /** Power-of-two table at most half full, probed linearly. */
        std::vector<Slot> index_;
        size_t records_ = 0;
    };

    /** The current image, pinned under mutex_. */
    std::shared_ptr<Image> pinImage() const;

    /** A record read from the image failed its check: clear
     * loadedClean_, warning the first time. */
    void noteDamagedRecord();

    std::string dir_;
    std::string lockPath_;
    std::string segmentPath_;
    std::string legacyFilePath_;  ///< leftover record file to remove
    size_t maxBytes_;
    uint64_t fingerprint_;

    mutable std::mutex mutex_;
    std::shared_ptr<Image> image_;  ///< this directory's; never null
    PendingLog log_;  ///< rows noted since the last flush
    /** Traces to serialize at flush; deduped by key, first noted
     * wins while its session holds it (concurrent sessions converge
     * on one trace per key in their own caches anyway). */
    std::unordered_map<
        std::vector<int64_t>,
        std::shared_ptr<TradeoffCurveCache::PartitionTrace>,
        util::Int64VectorHash>
        notedTraces_;
    uint64_t generation_ = 0;  ///< of the image mapped or last published
    std::atomic<size_t> segmentRowHits_{0};    ///< counted unlocked
    std::atomic<size_t> segmentTraceHits_{0};  ///< counted unlocked
    size_t evictedLastFlush_ = 0;
    size_t flushes_ = 0;
    std::atomic<bool> loadedClean_{true};  ///< cleared unlocked
};

} // namespace core
} // namespace mclp

#endif // MCLP_CORE_FRONTIER_CACHE_H
