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
 *    packed row keys (core/frontier_codec.h RowKey: type, units cap,
 *    per-layer n/m/r*c*k^2/g as varint bytes, with their hash carried
 *    along) — network identity never enters, so a cache populated by
 *    one CNN warms dims-identical ranges of another;
 *  - MemoryOptimizer greedy-walk traces, keyed by the
 *    TradeoffCurveCache partition signatures (type, per-group shape
 *    and layer tiling dims), which stay word vectors in the walk
 *    caches and are packed at this cache's boundary, when a trace is
 *    seeded or noted.
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
 * A noted row waits only as the record the flush will write, never as
 * a decoded row, so the row store frees rows under a cache exactly as
 * it does without one, and a released row needed again before the
 * flush decodes from its log record. The log (PendingLog) holds each
 * key once and keeps only keys and payload locations in the heap: the
 * payloads go through one 1 MiB write buffer into a spill file in the
 * cache directory that never has a name (util::ScratchFile), so pending
 * rows cost the heap about their keys, and no exit leaves a spill
 * behind. No file I/O happens under the cache mutex: a full buffer is
 * written out under the append lock alone, a spilled payload is read
 * with the spill pinned, and the flush streams the spill back front
 * to back through one bounded window.
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
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "core/frontier_cache_segment.h"
#include "core/frontier_codec.h"
#include "core/memory_optimizer.h"
#include "core/shape_frontier.h"
#include "util/shm.h"

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
        /** Payload bytes of those records: in the write buffer or the
         * spill, not the heap (see PendingLog). */
        size_t bytesPending = 0;
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
     * unbounded): header, slot table, packed keys and payloads. When a
     * flush would exceed it, the least-recently-hit records (oldest
     * last-hit generation, then fewest hits) are evicted until the
     * image fits; records touched this session survive first. Every
     * budget stops at kFrontierSegmentMaxBytes, where the slots'
     * 32-bit offsets do.
     */
    explicit FrontierCache(std::string dir, size_t max_bytes = 0);

    const std::string &dir() const { return dir_; }

    /**
     * The staircase noted or persisted under a FrontierRowStore key —
     * packed bytes whose keyHash(kCacheRecordRow, ...) is @p hash, as
     * RowKey carries them — decoded from its pending log record or from
     * the mapped image, or null. Neither the log nor the segment hashes
     * the key again. Takes the cache mutex once, to pin the current
     * image and either copy out a payload still in the log's write
     * buffer or pin the spill holding it: the spill read, the find, the
     * record check and the decode run unlocked, so callers may decode
     * concurrently. A record that fails its check (which clears
     * Stats::loadedClean) or does not decode, or a spill read that
     * fails, is a miss.
     */
    std::shared_ptr<const ShapeFrontier> loadRow(std::string_view key,
                                                 uint64_t hash);

    /**
     * Record a freshly built staircase under packed row key @p key
     * (hash @p hash, as loadRow() takes them) for the next flush().
     * The row is encoded outside every lock; under the cache mutex its
     * record is only appended to the pending log, its payload to the
     * log's write buffer, so the cache keeps no reference to @p row. A
     * full buffer is first written out to the spill under the append
     * lock alone. When that write-out fails (ENOSPC, EFBIG), the log
     * warns once and stops spilling: this row and later ones that do
     * not fit the buffer go unlogged until a flush takes the log,
     * which costs warmth, never an answer. A key the log already
     * holds, or the mapped image holds under the same bytes, is not
     * logged again. An image record that fails its check or holds
     * other bytes (a payload loadRow() could not decode) is replaced:
     * the row is logged, loadRow() serves it from the log, and the
     * next flush publishes it in the record's place.
     */
    void noteRow(std::string_view key, uint64_t hash,
                 const std::shared_ptr<const ShapeFrontier> &row);

    /**
     * Seed a just-created PartitionTrace from disk, finding it under
     * @p key packed. @p trace must not be shared with other threads yet
     * (it is filled unlocked). Like loadRow(), the cache mutex is held
     * only to pin the image; the packing, the find and the decode run
     * unlocked. Returns false — leaving the
     * trace untouched — when the key is absent or the stored trace
     * fails validation.
     */
    bool seedTrace(const std::vector<int64_t> &key,
                   TradeoffCurveCache::PartitionTrace &trace);

    /**
     * Track a live trace for write-back, under @p key packed (once,
     * here, outside the lock): at flush() time its current
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
     * takes the whole log, spill included, once it holds the file lock
     * (rows noted meanwhile start a new one), plans the new slot table
     * from the log's keys, and streams keys and payloads from the
     * published mapping, the log's spill (read front to back through
     * a bounded window, twice: for the record checks, then for the
     * payload blob) and the trace encodings to the file without
     * re-encoding them; a key the published image already holds keeps
     * its record unless the log holds other bytes for it. An image
     * that exists but cannot be mapped fails the flush, since
     * publishing without its records would drop them. No-op
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
     * Rows noted since the last flush, at most one per key. The heap
     * holds only each record's key hash, packed key and payload
     * location, in note order in 1 MiB chunks of whole words:
     *
     *   [key hash | payload offset | payload bytes | key bytes |
     *    packed key, zero-padded]
     *
     * The hash is the one the key carried in, so neither the index nor
     * the flush ever hashes a key. Records never move, so an
     * open-addressed index of record pointers finds a key by comparing
     * its hash and bytes in place, copying none. The payloads go, in
     * note order, through one write buffer of kSpillBufferBytes into
     * the *spill*: a util::ScratchFile in the cache directory, created
     * when the first buffer fills, so a log that fits the buffer never
     * touches the disk and no spill ever has a name. A payload's offset
     * counts bytes from the log's first payload on: the bytes the
     * buffer's write-outs have spilled are in the spill, the rest in
     * the buffer, and no payload straddles the two. A flush takes the
     * whole log, index, buffer and spill included.
     *
     * Reads (find, view, spill) need either lock of the owning cache;
     * changes need both (mutex_ and appendMutex_), except that the
     * buffer's write-out reads with appendMutex_ alone.
     */
    class PendingLog
    {
      public:
        /** Bytes the write buffer holds before it is written out. */
        static constexpr size_t kSpillBufferBytes = size_t{1} << 20;

        /** The location of the payload logged under packed key
         * @p key, whose keyHash() is @p hash, or null. */
        const SpilledPayload *find(std::string_view key,
                                   uint64_t hash) const;

        /** Whether a payload of @p bytes fits the write buffer. When
         * it does not, the buffer must be written out first
         * (FrontierCache::spillBuffer). An empty buffer takes any
         * payload. */
        bool
        fits(size_t bytes) const
        {
            return buffer_.empty() ||
                   buffer_.size() + bytes <= kSpillBufferBytes;
        }

        /** Log @p payload under @p key (hash @p hash), which find()
         * does not hold, into the buffer, which fits() it. */
        void append(std::string_view key, uint64_t hash,
                    std::string_view payload);

        /** Write the buffer out to the spill, creating the spill in
         * @p dir first when the log has none: file I/O that changes
         * nothing here. The spill written to, or null with errno set. */
        std::shared_ptr<const util::ScratchFile>
        writeBuffer(const std::string &dir) const;

        /** Settle writeBuffer()'s outcome: with @p spill, the buffered
         * payloads are in it and the buffer is empty; without, the
         * log stops spilling (spillFailed()). */
        void settleBuffer(std::shared_ptr<const util::ScratchFile> spill);

        /** A write-out failed: the buffer stays as it is, and payloads
         * that do not fit it go unlogged until a flush takes the log. */
        bool spillFailed() const { return spillFailed_; }

        /** Whether @p at lies in the spill (else in the buffer). */
        bool spilled(const SpilledPayload &at) const
        {
            return at.offset < spilledBytes_;
        }

        /** The bytes of @p at, which lies in the buffer. */
        std::string_view
        buffered(const SpilledPayload &at) const
        {
            return std::string_view(buffer_).substr(
                at.offset - spilledBytes_, at.bytes);
        }

        const std::shared_ptr<const util::ScratchFile> &spill() const
        {
            return spill_;
        }

        /** A caller's bounded window over a log's spill, for view(). */
        struct Window
        {
            std::string bytes;
            uint64_t at = 0;  ///< spill offset of bytes[0]
        };

        /**
         * Point @p bytes at the payload of @p at: into the buffer, or
         * into @p window, refilled from the spill at @p at with the
         * next kSpillBufferBytes (or the payload, when larger) when it
         * does not hold the payload. Reading in note order thus reads
         * the spill front to back, once, through one bounded window.
         * False on a failed read.
         */
        bool view(const SpilledPayload &at, Window &window,
                  std::string_view &bytes) const;

        size_t records() const { return records_; }
        size_t payloadBytes() const { return payloadBytes_; }
        bool empty() const { return records_ == 0; }

        /** Visit every record in note order as (key, key hash,
         * payload location). The location stays put as long as the
         * log does. */
        template <class Fn>
        void forEach(Fn &&fn) const;

      private:
        struct Chunk
        {
            std::unique_ptr<uint64_t[]> words;
            size_t capacity = 0;  ///< words
            size_t used = 0;      ///< words
        };

        /** A record's fixed part; its packed key follows. */
        struct Record
        {
            uint64_t hash;
            SpilledPayload payload;
            uint32_t keyBytes;

            std::string_view
            key() const
            {
                return {reinterpret_cast<const char *>(this + 1),
                        keyBytes};
            }
        };

        /** Index of the slot holding @p key's record, or of the empty
         * slot where it would go. The index is not empty. */
        size_t probe(std::string_view key, uint64_t hash) const;

        std::vector<Chunk> chunks_;
        /** Power-of-two table of records, null for an empty slot, at
         * most half full, probed linearly from the key hash; a probe
         * reads a slot's hash out of its record. */
        std::vector<const Record *> index_;
        size_t records_ = 0;
        size_t payloadBytes_ = 0;
        /** Payload bytes not yet written out, from spilledBytes_ on. */
        std::string buffer_;
        uint64_t spilledBytes_ = 0;
        std::shared_ptr<const util::ScratchFile> spill_;
        bool spillFailed_ = false;
    };

    /** The current image, pinned under mutex_. */
    std::shared_ptr<Image> pinImage() const;

    /**
     * Write @p log's buffer out to its spill and settle the outcome,
     * warning once per log when the write-out fails. File I/O, so the
     * caller holds appendMutex_ and, when @p log is log_, passes the
     * held @p lock on mutex_, released around the I/O; for a log no
     * other thread sees, @p lock is null. False when the log does not
     * spill (any more): the payload in hand stays unlogged.
     */
    bool spillBuffer(PendingLog &log, std::unique_lock<std::mutex> *lock);

    /** A failed publish returns the log it took: put @p taken back in
     * front of the rows noted since, keeping one record per key. */
    void putBack(PendingLog taken);

    /** A record read from the image failed its check: clear
     * loadedClean_, warning the first time. */
    void noteDamagedRecord();

    std::string dir_;
    std::string lockPath_;
    std::string segmentPath_;
    std::string legacyFilePath_;  ///< leftover record file to remove
    size_t maxBytes_;
    uint64_t fingerprint_;

    /** Serializes changes to log_: appends, the buffer's write-out
     * (file I/O, so outside mutex_) and the flush taking the log.
     * Lock order: the flush's file lock, appendMutex_, mutex_. */
    std::mutex appendMutex_;
    mutable std::mutex mutex_;
    std::shared_ptr<Image> image_;  ///< this directory's; never null
    PendingLog log_;  ///< rows noted since the last flush
    /** A trace tracked for write-back, and its packed key's hash. */
    struct NotedTrace
    {
        uint64_t hash = 0;
        std::shared_ptr<TradeoffCurveCache::PartitionTrace> trace;
    };
    /** Traces to serialize at flush, by packed key (noteTrace() packs
     * it once); deduped by key, first noted wins while its session
     * holds it (concurrent sessions converge on one trace per key in
     * their own caches anyway). */
    std::unordered_map<std::string, NotedTrace> notedTraces_;
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
