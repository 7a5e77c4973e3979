#include "core/frontier_cache.h"

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <deque>
#include <filesystem>
#include <new>
#include <span>
#include <string_view>
#include <utility>

#include "model/bandwidth_model.h"
#include "model/bram_model.h"
#include "model/cycle_model.h"
#include "model/dsp_model.h"
#include "nn/conv_layer.h"
#include "util/logging.h"
#include "util/record_file.h"
#include "util/shm.h"

namespace mclp {
namespace core {

uint64_t
modelFormulaFingerprint()
{
    // Hash probe *evaluations* of every analytical model a cached
    // artifact bakes in: staircases bake the cycle and DSP models;
    // walk traces bake the BRAM and bandwidth models (their caps and
    // peaks come straight out of them). Changing any model constant
    // changes some probe value, so stale caches self-invalidate; the
    // probe set is fixed forever — extending it would itself
    // invalidate every cache, which is exactly the safe failure mode.
    static const uint64_t fingerprint = [] {
        std::vector<int64_t> words;
        auto put = [&](int64_t value) { words.push_back(value); };
        auto putf = [&](double value) {
            int64_t bits;
            static_assert(sizeof(bits) == sizeof(value));
            std::memcpy(&bits, &value, sizeof(bits));
            words.push_back(bits);
        };

        nn::ConvLayer probe =
            nn::makeConvLayer("fingerprint", 48, 128, 27, 27, 5, 1);
        nn::ConvLayer strided =
            nn::makeConvLayer("fingerprint-s", 3, 96, 55, 55, 11, 4);
        // Grouped probes (PR 9): the g factor reshapes the cycle,
        // traffic, and peak formulas, so grouped evaluations must be
        // part of the digest — and their addition invalidates every
        // pre-groups cache, whose keys lack the g lane.
        nn::ConvLayer grouped =
            nn::makeConvLayer("fingerprint-g", 48, 128, 27, 27, 3, 1, 4);
        nn::ConvLayer depthwise =
            nn::makeConvLayer("fingerprint-dw", 96, 96, 27, 27, 3, 1, 96);
        model::ClpShape shape{7, 64};
        model::Tiling tiling{13, 14};

        for (fpga::DataType type :
             {fpga::DataType::Float32, fpga::DataType::Fixed16}) {
            put(fpga::dspPerMac(type));
            put(fpga::wordBytes(type));
            put(model::clpDsp(shape, type));
            put(model::macBudget(2880, type));
            put(model::effectiveBanks(7, type));
            put(model::layerCyclesUnderBandwidth(probe, shape, tiling,
                                                 type, 3.5));
        }
        put(model::layerCycles(probe, shape));
        put(model::layerCycles(strided, shape));
        putf(model::layerUtilization(probe, shape));
        put(model::inputBankWords(probe, tiling));
        put(model::inputBankWords(strided, tiling));
        put(model::outputBankWords(tiling));
        put(model::weightBankWords(probe));
        for (int64_t w : {9LL, 10LL, 256LL, 257LL, 512LL, 513LL}) {
            put(model::bramsPerBank(w, false));
            put(model::bramsPerBank(w, true));
        }
        model::LayerTraffic traffic =
            model::layerTraffic(probe, shape, tiling);
        put(traffic.inputWords);
        put(traffic.weightWords);
        put(traffic.outputWords);
        putf(model::layerPeakWordsPerCycle(probe, shape, tiling));
        putf(model::layerPeakWordsPerCycle(strided, shape, tiling));
        for (const nn::ConvLayer &layer : {grouped, depthwise}) {
            put(model::layerCycles(layer, shape));
            model::LayerTraffic t =
                model::layerTraffic(layer, shape, tiling);
            put(t.inputWords);
            put(t.weightWords);
            put(t.outputWords);
            putf(model::layerPeakWordsPerCycle(layer, shape, tiling));
        }

        return static_cast<uint64_t>(
            util::hashInt64Words(words.data(), words.size()));
    }();
    return fingerprint;
}

FrontierCache::FrontierCache(std::string dir, size_t max_bytes)
    : dir_(std::move(dir)), maxBytes_(max_bytes),
      fingerprint_(modelFormulaFingerprint())
{
    namespace fs = std::filesystem;
    std::error_code ec;
    fs::create_directories(dir_, ec);  // best effort; open just misses
    lockPath_ = (fs::path(dir_) / kFrontierCacheLockName).string();
    segmentPath_ = (fs::path(dir_) / kFrontierSegmentFileName).string();
    legacyFilePath_ = (fs::path(dir_) / kFrontierCacheFileName).string();

    // No lock needed: the segment only ever changes by atomic rename,
    // so the mapping is one complete image and pins its inode.
    FrontierCacheSegment segment =
        FrontierCacheSegment::open(segmentPath_, fingerprint_);
    switch (segment.state()) {
    case SegmentState::Valid:
        generation_ = segment.generation();
        break;
    case SegmentState::Missing:
        break;  // no cache yet: clean cold start
    case SegmentState::Stale:
        // Expected invalidation (older layout, changed model
        // formulas): stay clean and quiet; the next flush replaces
        // the image under the current header.
        util::inform("frontier cache: %s was written under a "
                     "different format/model version; rebuilding",
                     segmentPath_.c_str());
        break;
    case SegmentState::Damaged:
        loadedClean_.store(false, std::memory_order_relaxed);
        util::warn("frontier cache: %s is truncated or corrupt; "
                   "starting cold", segmentPath_.c_str());
        break;
    }
    image_ = std::make_shared<Image>(std::move(segment));
}

FrontierCache::Image::Image(FrontierCacheSegment mapped)
    : segment(std::move(mapped)),
      hits(static_cast<uint32_t *>(
          std::calloc(segment.slotCount(), sizeof(uint32_t))))
{
    if (!hits && segment.slotCount() > 0)
        throw std::bad_alloc();
}

void
FrontierCache::Image::takeHits(
    const std::function<void(uint32_t, uint32_t,
                             const FrontierCacheSegment::Entry &)> &fn)
{
    FrontierCacheSegment::Entry entry;
    for (uint32_t s = 0; s < segment.slotCount(); ++s) {
        std::atomic_ref<uint32_t> counter(hits[s]);
        if (counter.load(std::memory_order_relaxed) == 0)
            continue;
        uint32_t count = counter.exchange(0, std::memory_order_relaxed);
        if (segment.entryAt(s, entry))
            fn(s, count, entry);
    }
}

std::shared_ptr<FrontierCache::Image>
FrontierCache::pinImage() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return image_;
}

std::shared_ptr<const ShapeFrontier>
FrontierCache::loadRow(const std::vector<int64_t> &key)
{
    // The row store keeps a loaded row while some table holds it, so a
    // key reaches here about once per residency (more only when
    // threads race on one row). One lock pins the image and copies out
    // a pending payload (a flush may free the log's record once the
    // lock is gone); the decode runs with no lock held.
    size_t hash = util::hashInt64Words(key.data(), key.size());
    thread_local std::string pending;
    std::shared_ptr<Image> image;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        image = image_;
        pending.assign(log_.find(key, hash));
    }
    if (!pending.empty()) {
        // This process's own encoding of the row, so it decodes.
        std::optional<ShapeFrontier> row = decodeRowPayload(pending);
        if (row)
            return std::make_shared<const ShapeFrontier>(std::move(*row));
    }
    uint32_t slot = 0;
    bool damaged = false;
    std::string_view payload =
        image->segment.find(kCacheRecordRow, key, &slot, &damaged);
    if (damaged)
        noteDamagedRecord();
    // An absent or undecodable row is built cold, and noteRow() logs
    // the build to take the image record's place at the next flush.
    std::optional<ShapeFrontier> row;
    if (payload.empty() || !(row = decodeRowPayload(payload)))
        return nullptr;
    image->addHits(slot, 1);
    segmentRowHits_.fetch_add(1, std::memory_order_relaxed);
    return std::make_shared<const ShapeFrontier>(std::move(*row));
}

template <class Fn>
void
FrontierCache::PendingLog::forEach(Fn &&fn) const
{
    for (const Chunk &chunk : chunks_) {
        const uint64_t *word = chunk.words.get();
        const uint64_t *end = word + chunk.used;
        while (word < end) {
            size_t key_words = static_cast<size_t>(*word >> 32);
            size_t payload = static_cast<size_t>(*word & 0xffffffffu);
            const uint64_t *key = word + 1;
            fn(std::span<const int64_t>(
                   reinterpret_cast<const int64_t *>(key), key_words),
               std::string_view(reinterpret_cast<const char *>(key + key_words),
                                payload));
            word = key + key_words + (payload + 7) / 8;
        }
    }
}

size_t
FrontierCache::PendingLog::probe(std::span<const int64_t> key,
                                 size_t hash) const
{
    size_t mask = index_.size() - 1;
    for (size_t i = hash & mask;; i = (i + 1) & mask) {
        const Slot &slot = index_[i];
        if (!slot.record ||
            (slot.hash == hash && slot.record[0] >> 32 == key.size() &&
             std::memcmp(slot.record + 1, key.data(),
                         sizeof(int64_t) * key.size()) == 0))
            return i;
    }
}

std::string_view
FrontierCache::PendingLog::find(std::span<const int64_t> key,
                                size_t hash) const
{
    if (index_.empty())
        return {};
    const uint64_t *record = index_[probe(key, hash)].record;
    if (!record)
        return {};
    return {reinterpret_cast<const char *>(record + 1 + key.size()),
            static_cast<size_t>(record[0] & 0xffffffffu)};
}

void
FrontierCache::PendingLog::append(std::span<const int64_t> key,
                                  size_t hash, std::string_view payload)
{
    // Keep the index at most half full: double it (re-placing slots by
    // their stored hashes) before the insert that would pass that.
    if (2 * (records_ + 1) > index_.size()) {
        std::vector<Slot> grown(std::max<size_t>(64, 2 * index_.size()));
        size_t mask = grown.size() - 1;
        for (const Slot &slot : index_) {
            if (!slot.record)
                continue;
            size_t i = slot.hash & mask;
            while (grown[i].record)
                i = (i + 1) & mask;
            grown[i] = slot;
        }
        index_ = std::move(grown);
    }
    Slot &slot = index_[probe(key, hash)];
    if (slot.record)
        return;  // already logged, under the same bytes

    // 1 MiB chunks, allocated uninitialized: a page joins the resident
    // set when a record lands on it. A record larger than a chunk gets
    // one of its own.
    constexpr size_t kChunkWords = (size_t{1} << 20) / sizeof(uint64_t);
    size_t words = 1 + key.size() + (payload.size() + 7) / 8;
    if (chunks_.empty() ||
        chunks_.back().capacity - chunks_.back().used < words) {
        size_t capacity = std::max(kChunkWords, words);
        chunks_.push_back(
            {std::unique_ptr<uint64_t[]>(new uint64_t[capacity]), capacity,
             0});
    }
    Chunk &chunk = chunks_.back();
    uint64_t *record = chunk.words.get() + chunk.used;
    record[0] = uint64_t{key.size()} << 32 | payload.size();
    record[words - 1] = 0;  // the payload's padding
    std::memcpy(record + 1, key.data(), sizeof(int64_t) * key.size());
    std::memcpy(record + 1 + key.size(), payload.data(), payload.size());
    chunk.used += words;
    slot = {hash, record};
    ++records_;
}

void
FrontierCache::PendingLog::prepend(PendingLog older)
{
    // Only a failed publish puts a log back, so copying this (newer)
    // log's records behind the older ones is fine: it keeps the log at
    // one record per key when a row was noted again during the flush.
    forEach([&](std::span<const int64_t> key, std::string_view payload) {
        older.append(key, util::hashInt64Words(key.data(), key.size()),
                     payload);
    });
    *this = std::move(older);
}

void
FrontierCache::noteRow(const std::vector<int64_t> &key,
                       const std::shared_ptr<const ShapeFrontier> &row)
{
    // Encode and hash outside every lock.
    thread_local std::string payload;
    payload.clear();
    encodeRowPayload(payload, *row);
    size_t hash = util::hashInt64Words(key.data(), key.size());

    // Already persistent under these bytes (published since the miss):
    // nothing to write. An absent record, one that fails its check, or
    // one holding other bytes (a payload loadRow() could not decode: a
    // record is a pure function of its key) is what the log replaces.
    std::shared_ptr<Image> image = pinImage();
    if (image->segment.find(kCacheRecordRow, key) == payload)
        return;
    std::lock_guard<std::mutex> lock(mutex_);
    log_.append(key, hash, payload);
}

bool
FrontierCache::seedTrace(const std::vector<int64_t> &key,
                         TradeoffCurveCache::PartitionTrace &trace)
{
    // As loadRow(): the lock only pins the image; the find and the
    // decode run unlocked, and the decoded steps move into the trace.
    std::shared_ptr<Image> image = pinImage();
    uint32_t slot = 0;
    bool damaged = false;
    std::string_view payload =
        image->segment.find(kCacheRecordTrace, key, &slot, &damaged);
    if (damaged)
        noteDamagedRecord();
    FrontierTraceImage decoded;
    if (payload.empty() ||
        !decodeTracePayload(payload, traceKeyGroups(key), decoded))
        return false;
    trace.initialized = true;
    trace.initialBram = decoded.initialBram;
    trace.initialPeak = decoded.initialPeak;
    trace.steps = std::move(decoded.steps);
    trace.complete = decoded.complete;
    image->addHits(slot, 1);
    segmentTraceHits_.fetch_add(1, std::memory_order_relaxed);
    return true;
}

void
FrontierCache::noteTrace(
    const std::vector<int64_t> &key,
    std::shared_ptr<TradeoffCurveCache::PartitionTrace> trace)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto [it, inserted] = notedTraces_.try_emplace(key, trace);
    // A held trace only the cache still references belongs to a session
    // that is gone: the new one, seeded from whatever disk holds, is
    // the one that can grow now.
    if (!inserted && it->second.use_count() == 1)
        it->second = std::move(trace);
}

void
FrontierCache::noteDamagedRecord()
{
    if (loadedClean_.exchange(false, std::memory_order_relaxed))
        util::warn("frontier cache: a record of %s fails its check; "
                   "rebuilding it cold", segmentPath_.c_str());
}

bool
FrontierCache::flush()
{
    // Phase 1: snapshot under our mutex (never hold it across file
    // I/O or trace mutexes — walks holding a trace mutex re-enter
    // other caches).
    std::vector<std::pair<std::vector<int64_t>,
                          std::weak_ptr<TradeoffCurveCache::PartitionTrace>>>
        noted;
    uint64_t known_gen = 0;
    bool rows_noted = false;
    std::vector<std::pair<const std::vector<int64_t> *, FrontierTraceImage>>
        trace_images;
    std::vector<std::pair<const std::vector<int64_t> *,
                          std::weak_ptr<TradeoffCurveCache::PartitionTrace>>>
        finished;
    try {
        std::shared_ptr<Image> pinned;  ///< what disk held at open/last flush
        {
            std::lock_guard<std::mutex> lock(mutex_);
            rows_noted = !log_.empty();
            noted.assign(notedTraces_.begin(), notedTraces_.end());
            pinned = image_;
            known_gen = generation_;
        }

        // Phase 2: snapshot each live trace under its own mutex,
        // keeping only traces that go deeper than the pinned image's
        // record of them. A trace that only the cache and this loop
        // reference has lost its session and can never grow again:
        // once this flush has put its snapshot on disk, the cache lets
        // go of it. The snapshot holds traces weakly, so noteTrace()
        // sees a gone session's trace held by the cache alone while
        // the flush runs.
        for (const auto &[key, noted_trace] : noted) {
            std::shared_ptr<TradeoffCurveCache::PartitionTrace> trace =
                noted_trace.lock();
            if (!trace)
                continue;  // replaced by a successor's trace meanwhile
            std::lock_guard<std::mutex> trace_lock(trace->mutex);
            if (trace.use_count() == 2)
                finished.emplace_back(&key, noted_trace);
            if (!trace->initialized)
                continue;
            // A record failing its check reads as absent: the walk
            // replaces it.
            bool disk_complete = false;
            size_t disk_steps = 0;
            std::string_view stored =
                pinned->segment.find(kCacheRecordTrace, key);
            if (!stored.empty() &&
                peekTraceMeta(stored, &disk_complete, &disk_steps) &&
                (disk_steps > trace->steps.size() ||
                 (disk_steps == trace->steps.size() &&
                  disk_complete == trace->complete)))
                continue;
            FrontierTraceImage image;
            image.complete = trace->complete;
            image.initialBram = trace->initialBram;
            image.initialPeak = trace->initialPeak;
            image.steps = trace->steps;
            trace_images.emplace_back(&key, std::move(image));
        }
    } catch (const std::bad_alloc &) {
        // Nothing was taken yet: the log and the traces wait for the
        // next flush.
        util::warn("frontier cache: out of memory before flushing %s",
                   segmentPath_.c_str());
        return false;
    }

    // Under mutex_: stop tracking the finished traces, except one a
    // successor's trace has replaced since.
    auto forget_finished = [&] {
        for (const auto &[key, trace] : finished) {
            auto it = notedTraces_.find(*key);
            if (it != notedTraces_.end() && it->second == trace.lock())
                notedTraces_.erase(it);
        }
    };

    // Nothing new? Then the published image — whatever concurrent
    // CLIs did to it since — holds at least everything we could add:
    // skip the lock and the whole map-merge-publish round trip.
    // Hit counters alone never force a rewrite either — they stay in
    // the image's slots, unread, and ride the next flush that rewrites
    // the image for a real reason (tests/core/test_frontier_cache.cc
    // pins the no-op).
    if (!rows_noted && trace_images.empty()) {
        std::lock_guard<std::mutex> lock(mutex_);
        forget_finished();
        return true;
    }

    util::FileLock lock(lockPath_);
    if (!lock.locked()) {
        util::warn("frontier cache: cannot lock %s; skipping flush",
                   lockPath_.c_str());
        return false;
    }
    // Only a flush swaps the image, and flushes run one at a time
    // under the file lock (flock excludes threads as well as
    // processes): the image pinned here is the one whose counters the
    // fold reads and whose late hits the swap carries over. The whole
    // log is taken with it; rows noted from here on start a new log.
    std::shared_ptr<Image> current;
    PendingLog log;
    {
        std::lock_guard<std::mutex> lock_state(mutex_);
        current = image_;
        log = std::exchange(log_, PendingLog());
    }

    // Phase 3: plan the new slot table from the image published *now*
    // (another process may have flushed since we opened, so it is
    // mapped afresh here), the log and the trace snapshots, then
    // stream the image from those three sources. Records are
    // deterministic functions of their keys, so for rows the published
    // record wins unless a logged row holds other bytes, and for
    // traces the deeper prefix wins. A stale or damaged image, or a
    // record failing its check, contributes nothing. From here an
    // allocation that fails is a failed publish: the log and the
    // folded counts go back, and the previous image stays.
    uint64_t new_gen = 0;
    size_t evicted = 0;
    bool rewrite = false;  // anything to change on disk?
    bool published = false;
    bool out_of_memory = false;
    std::vector<std::pair<uint32_t, uint32_t>> folded;  ///< slot, hits
    try {
        FrontierCacheSegment base =
            FrontierCacheSegment::open(segmentPath_, fingerprint_);
        // Every publish advances the generation past both the image
        // it replaces and anything this process published or mapped.
        new_gen = std::max(base.generation(), known_gen) + 1;
        const uint32_t gen = static_cast<uint32_t>(new_gen);
        SegmentPlan plan(base.entryCount() + log.records() +
                         trace_images.size());
        base.forEach([&](const FrontierCacheSegment::Entry &entry) {
            // A record of unknown kind, or a trace whose header does
            // not parse, cannot be served; dropping it costs a cold
            // rebuild.
            bool complete = false;
            size_t steps = 0;
            if (entry.kind == kCacheRecordRow ||
                (entry.kind == kCacheRecordTrace &&
                 peekTraceMeta(entry.payload, &complete, &steps)))
                plan.add({entry.kind, entry.key, entry.payload, entry.hits,
                          entry.lastGen});
        });
        log.forEach([&](std::span<const int64_t> key,
                        std::string_view payload) {
            size_t at = plan.find(kCacheRecordRow, key);
            if (at == SegmentPlan::npos) {
                plan.add({kCacheRecordRow, key, payload, 0, gen});
                rewrite = true;
            } else if (plan.record(at).payload != payload) {
                // A published record loadRow() could not decode: the
                // cold build takes its place and its hit history.
                plan.setPayload(at, payload);
                rewrite = true;
            }
            // Equal bytes were published since the row was noted: by
            // a concurrent CLI, or by the flush that was publishing
            // this process's previous log when it was noted.
        });
        std::deque<std::string> fresh;  ///< owns new trace payloads
        for (const auto &[key, image] : trace_images) {
            size_t at = plan.find(kCacheRecordTrace, *key);
            bool disk_complete = false;
            size_t disk_steps = 0;
            if (at != SegmentPlan::npos)
                peekTraceMeta(plan.record(at).payload, &disk_complete,
                              &disk_steps);
            // The deeper walk prefix wins; at equal depth a complete
            // trace beats an incomplete one, and an identical trace is
            // left alone.
            bool ours_deeper =
                at == SegmentPlan::npos || image.steps.size() > disk_steps ||
                (image.steps.size() == disk_steps && image.complete &&
                 !disk_complete);
            if (!ours_deeper)
                continue;
            util::ByteWriter out;
            encodeTracePayload(out, image);
            fresh.push_back(out.bytes());
            // A deeper prefix of the same walk keeps the record's hit
            // history — it is the same logical entry.
            if (at != SegmentPlan::npos)
                plan.setPayload(at, fresh.back());
            else
                plan.add({kCacheRecordTrace, *key, fresh.back(), 0, gen});
            rewrite = true;
        }

        if (rewrite) {
            // Fold this process's hit counts into the record counters
            // — but only when the image is being rewritten for a real
            // reason. Each hit slot's key is read out of the image. A
            // hit also stamps the record with the new generation:
            // "recently hit" is what the byte-budget eviction spares.
            current->takeHits([&](uint32_t slot, uint32_t delta,
                                  const FrontierCacheSegment::Entry &entry) {
                folded.emplace_back(slot, delta);
                size_t at = plan.find(entry.kind, entry.key);
                if (at == SegmentPlan::npos)
                    return;
                uint32_t hits = plan.record(at).hits;
                plan.setCounters(at,
                                 delta > UINT32_MAX - hits ? UINT32_MAX
                                                           : hits + delta,
                                 gen);
            });
            // Fresh and just-hit records carry the new generation, so
            // they are the last the budget evicts. An unbounded cache
            // still stops where the slots' 32-bit offsets do.
            evicted = plan.fitTo(maxBytes_ > 0 ? maxBytes_ : UINT64_MAX);
            if (evicted > 0)
                util::inform("frontier cache: byte budget evicted "
                             "%zu least-recently-hit records",
                             evicted);
            published = util::publishFileAtomic(
                segmentPath_, [&](const util::ByteSink &sink) {
                    return plan.write(fingerprint_, new_gen, sink);
                });
        }
    } catch (const std::bad_alloc &) {
        // publishFileAtomic() removed its tmp file if it had one.
        rewrite = true;
        out_of_memory = true;
    }

    if (!rewrite) {
        // Disk already holds at least everything we know (every
        // logged row matched a published record, every trace lost to
        // a deeper published prefix).
        std::lock_guard<std::mutex> lock_state(mutex_);
        forget_finished();
        return true;
    }
    if (!published) {
        util::warn("frontier cache: publishing %s failed%s; previous "
                   "image kept", segmentPath_.c_str(),
                   out_of_memory ? " (out of memory)" : "");
        // The folded counts and the logged rows never reached disk:
        // the counts stay counted, and the log goes back in front of
        // any rows noted since. Putting it back allocates only when
        // rows were noted during this flush, and then for those rows.
        for (const auto &[slot, delta] : folded)
            current->addHits(slot, delta);
        std::lock_guard<std::mutex> lock_state(mutex_);
        try {
            log_.prepend(std::move(log));
        } catch (const std::bad_alloc &) {
            // The rows noted meanwhile stay logged; the taken ones
            // rebuild cold when they are needed again.
        }
        return false;
    }
    log = PendingLog();
    // Nothing reads a record file an older binary left beside the
    // segment; the first publish removes it.
    ::unlink(legacyFilePath_.c_str());

    // Map what this flush published, so the next flush measures its
    // traces against it and only considers genuinely new state.
    // Opening reads the header and the slot table, not the records. A
    // process short of address space may fail to map it or to count
    // its hits: the image is on disk, and lookups keep the one mapped
    // before until a later flush maps a newer one.
    std::shared_ptr<Image> next;
    try {
        FrontierCacheSegment mapped =
            FrontierCacheSegment::open(segmentPath_, fingerprint_);
        if (mapped.valid())
            next = std::make_shared<Image>(std::move(mapped));
    } catch (const std::bad_alloc &) {
    }
    std::lock_guard<std::mutex> lock_state(mutex_);
    forget_finished();
    ++flushes_;
    generation_ = new_gen;
    evictedLastFlush_ = evicted;
    if (next) {
        // The folded counts are on disk. Hits scored on the old image
        // since the fold carry over to the same keys' slots of the new
        // one, which lookups pin from here on.
        current->takeHits([&](uint32_t, uint32_t late,
                              const FrontierCacheSegment::Entry &entry) {
            uint32_t slot = 0;
            if (!next->segment.find(entry.kind, entry.key, &slot).empty())
                next->addHits(slot, late);
        });
        image_ = std::move(next);
    }
    return true;
}

FrontierCache::Stats
FrontierCache::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    Stats stats;
    stats.rowsPending = log_.records();
    stats.tracesNoted = notedTraces_.size();
    stats.flushes = flushes_;
    stats.loadedClean = loadedClean_.load(std::memory_order_relaxed);
    stats.generation = generation_;
    stats.segmentMapped = image_->segment.valid();
    stats.segmentEntries = image_->segment.entryCount();
    stats.segmentBytes = image_->segment.bytes();
    stats.segmentRowHits = segmentRowHits_.load();
    stats.segmentTraceHits = segmentTraceHits_.load();
    stats.evictedLastFlush = evictedLastFlush_;
    return stats;
}

} // namespace core
} // namespace mclp
