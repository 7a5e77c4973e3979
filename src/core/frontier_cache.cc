#include "core/frontier_cache.h"

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <deque>
#include <filesystem>
#include <new>
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
        loadedClean_ = false;
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
    // Decode straight out of the pinned mapping with no lock held. The
    // row store keeps what it loads, so a key reaches here about once
    // per store (more only when threads race on one row).
    std::shared_ptr<Image> image = pinImage();
    uint32_t slot = 0;
    std::string_view payload =
        image->segment.find(kCacheRecordRow, key, &slot);
    if (payload.empty())
        return nullptr;
    std::optional<ShapeFrontier> row = decodeRowPayload(payload);
    if (!row)
        return nullptr;
    image->addHits(slot, 1);
    segmentRowHits_.fetch_add(1, std::memory_order_relaxed);
    return std::make_shared<const ShapeFrontier>(std::move(*row));
}

void
FrontierCache::noteRow(const std::vector<int64_t> &key,
                       std::shared_ptr<const ShapeFrontier> row)
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (!image_->segment.find(kCacheRecordRow, key).empty())
        return;  // already persistent
    pendingRows_.emplace(key, std::move(row));
}

bool
FrontierCache::seedTrace(const std::vector<int64_t> &key,
                         TradeoffCurveCache::PartitionTrace &trace)
{
    std::lock_guard<std::mutex> lock(mutex_);
    uint32_t slot = 0;
    std::string_view payload =
        image_->segment.find(kCacheRecordTrace, key, &slot);
    auto it = mmapTraces_.find(key);
    if (it == mmapTraces_.end()) {
        FrontierTraceImage decoded;
        if (payload.empty() ||
            !decodeTracePayload(payload, traceKeyGroups(key), decoded))
            return false;
        it = mmapTraces_.emplace(key, std::move(decoded)).first;
    }
    const FrontierTraceImage &image = it->second;
    trace.initialized = true;
    trace.initialBram = image.initialBram;
    trace.initialPeak = image.initialPeak;
    trace.steps.assign(image.steps.data(), image.steps.size());
    trace.complete = image.complete;
    ++segmentTraceHits_;
    if (!payload.empty())
        image_->addHits(slot, 1);
    return true;
}

void
FrontierCache::noteTrace(
    const std::vector<int64_t> &key,
    std::shared_ptr<TradeoffCurveCache::PartitionTrace> trace)
{
    std::lock_guard<std::mutex> lock(mutex_);
    notedTraces_.emplace(key, std::move(trace));
}

bool
FrontierCache::flush()
{
    // Phase 1: snapshot under our mutex (never hold it across file
    // I/O or trace mutexes — walks holding a trace mutex re-enter
    // other caches, and inserts call into us under a store mutex).
    RowMap pending_rows;
    std::vector<std::pair<
        std::vector<int64_t>,
        std::shared_ptr<TradeoffCurveCache::PartitionTrace>>>
        noted;
    /** What disk held at open/last flush: key -> (steps, complete). */
    std::unordered_map<std::vector<int64_t>, std::pair<size_t, bool>,
                       util::Int64VectorHash>
        known;
    uint64_t known_gen = 0;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        pending_rows = pendingRows_;
        noted.assign(notedTraces_.begin(), notedTraces_.end());
        for (const auto &[key, image] : mmapTraces_)
            known.emplace(key, std::make_pair(image.steps.size(),
                                              image.complete));
        known_gen = generation_;
    }

    // Phase 2: snapshot each live trace under its own mutex, keeping
    // only traces that outgrew what this process knows is on disk.
    TraceMap trace_images;
    for (const auto &[key, trace] : noted) {
        std::lock_guard<std::mutex> trace_lock(trace->mutex);
        if (!trace->initialized)
            continue;
        auto it = known.find(key);
        if (it != known.end() &&
            (it->second.first > trace->steps.size() ||
             (it->second.first == trace->steps.size() &&
              it->second.second == trace->complete)))
            continue;
        FrontierTraceImage image;
        image.complete = trace->complete;
        image.initialBram = trace->initialBram;
        image.initialPeak = trace->initialPeak;
        image.steps.assign(trace->steps.begin(), trace->steps.end());
        trace_images.emplace(key, std::move(image));
    }

    // Nothing new? Then the published image — whatever concurrent
    // CLIs did to it since — holds at least everything we could add:
    // skip the lock and the whole map-merge-publish round trip.
    // Hit counters alone never force a rewrite either — they stay in
    // the image's slots, unread, and ride the next flush that rewrites
    // the image for a real reason (tests/core/test_frontier_cache.cc
    // pins the no-op).
    if (pending_rows.empty() && trace_images.empty())
        return true;

    // Phase 3: merge with the image published *now* under the
    // advisory lock and publish atomically. Another process may have
    // flushed since we opened, so the segment is mapped afresh here;
    // records are deterministic functions of their keys, so "first
    // writer wins" is exact for rows, and the deeper prefix wins for
    // traces. A stale or damaged image contributes nothing and is
    // replaced wholesale.
    util::FileLock lock(lockPath_);
    if (!lock.locked()) {
        util::warn("frontier cache: cannot lock %s; skipping flush",
                   lockPath_.c_str());
        return false;
    }
    // Only a flush swaps the image, and flushes run one at a time
    // under the file lock (flock excludes threads as well as
    // processes): the image pinned here is the one whose counters the
    // fold reads and whose late hits the swap carries over.
    std::shared_ptr<Image> current = pinImage();

    struct DiskRecord
    {
        /** Delta payload: a view into the base mapping for existing
         * records, or into `fresh` for newly encoded ones — the merge
         * never copies the old image into the heap. */
        std::string_view payload;
        uint32_t hits = 0;
        uint32_t lastGen = 0;
        size_t steps = 0;     ///< traces only
        bool complete = false;
    };
    std::unordered_map<std::vector<int64_t>, DiskRecord,
                       util::Int64VectorHash>
        rows, traces;
    FrontierCacheSegment base =
        FrontierCacheSegment::open(segmentPath_, fingerprint_);
    base.forEach([&](const FrontierCacheSegment::Entry &entry) {
        DiskRecord disk{entry.payload, entry.hits, entry.lastGen};
        // A record of unknown kind, or a trace whose header does not
        // parse, cannot be served; dropping it costs a cold rebuild.
        if (entry.kind == kCacheRecordRow)
            rows.emplace(entry.key, disk);
        else if (entry.kind == kCacheRecordTrace &&
                 peekTraceMeta(entry.payload, &disk.complete,
                               &disk.steps))
            traces.emplace(entry.key, disk);
    });
    // Every publish advances the generation past both the image it
    // replaces and anything this process published or mapped.
    uint64_t new_gen = std::max(base.generation(), known_gen) + 1;

    std::deque<std::string> fresh;  ///< owns newly encoded payloads
    bool rewrite = false;  // anything to change on disk?
    for (const auto &[key, row] : pending_rows) {
        if (rows.count(key))
            continue;  // a concurrent CLI beat us to an identical row
        util::ByteWriter out;
        encodeRowPayload(out, *row);
        fresh.push_back(out.bytes());
        rows[key] = {fresh.back(), 0, static_cast<uint32_t>(new_gen),
                     0, false};
        rewrite = true;
    }
    std::vector<const std::vector<int64_t> *> written_traces;
    for (const auto &[key, image] : trace_images) {
        auto it = traces.find(key);
        // The deeper walk prefix wins; at equal depth a complete
        // trace beats an incomplete one, and an identical trace is
        // left alone. A losing image must NOT enter our disk mirror
        // below — recording it as "what disk holds" would make later
        // seedTrace() calls hand out less warmth than disk has.
        bool ours_deeper =
            it == traces.end() ||
            image.steps.size() > it->second.steps ||
            (image.steps.size() == it->second.steps && image.complete &&
             !it->second.complete);
        if (!ours_deeper)
            continue;
        util::ByteWriter out;
        encodeTracePayload(out, image);
        fresh.push_back(out.bytes());
        DiskRecord disk;
        disk.payload = fresh.back();
        disk.steps = image.steps.size();
        disk.complete = image.complete;
        if (it != traces.end()) {
            // A deeper prefix of the same walk keeps the record's
            // hit history — it is the same logical entry.
            disk.hits = it->second.hits;
            disk.lastGen = it->second.lastGen;
        } else {
            disk.lastGen = static_cast<uint32_t>(new_gen);
        }
        traces[key] = disk;
        written_traces.push_back(&key);
        rewrite = true;
    }

    // Fold this process's hit counts into the record counters — but
    // only when the image is being rewritten for a real reason. Each
    // hit slot's key is read out of the image. A hit also stamps the
    // record with the new generation: "recently hit" is what the
    // byte-budget eviction below spares.
    size_t evicted = 0;
    std::vector<std::pair<uint32_t, uint32_t>> folded;  ///< slot, hits
    if (rewrite) {
        current->takeHits([&](uint32_t slot, uint32_t delta,
                              const FrontierCacheSegment::Entry &entry) {
            folded.emplace_back(slot, delta);
            auto &records = entry.kind == kCacheRecordRow ? rows : traces;
            auto it = records.find(entry.key);
            if (it == records.end())
                return;
            uint32_t &hits = it->second.hits;
            hits = delta > UINT32_MAX - hits ? UINT32_MAX : hits + delta;
            it->second.lastGen = static_cast<uint32_t>(new_gen);
        });

        if (maxBytes_ > 0) {
            // Least-recently-hit eviction against the exact image
            // size: drop records whose last hit is oldest (then fewest
            // hits, then larger first — freeing the budget with the
            // fewest casualties) until the image fits. Fresh and
            // just-hit records carry new_gen, so they are the last
            // candidates.
            size_t records = rows.size() + traces.size();
            size_t key_words = 0;
            size_t payload_bytes = 0;
            for (const auto *map : {&rows, &traces}) {
                for (const auto &[key, disk] : *map) {
                    key_words += key.size();
                    payload_bytes += disk.payload.size();
                }
            }
            auto imageBytes = [&] {
                return FrontierCacheSegment::imageBytes(
                    records, key_words, payload_bytes);
            };
            if (imageBytes() > maxBytes_) {
                struct Victim
                {
                    uint32_t lastGen;
                    uint32_t hits;
                    size_t payload;
                    uint8_t kind;
                    const std::vector<int64_t> *key;

                    size_t bytes() const
                    {
                        return 8 * key->size() + payload;
                    }
                };
                std::vector<Victim> victims;
                victims.reserve(records);
                for (const auto &[key, disk] : rows)
                    victims.push_back({disk.lastGen, disk.hits,
                                       disk.payload.size(),
                                       kCacheRecordRow, &key});
                for (const auto &[key, disk] : traces)
                    victims.push_back({disk.lastGen, disk.hits,
                                       disk.payload.size(),
                                       kCacheRecordTrace, &key});
                std::sort(victims.begin(), victims.end(),
                          [](const Victim &a, const Victim &b) {
                              if (a.lastGen != b.lastGen)
                                  return a.lastGen < b.lastGen;
                              if (a.hits != b.hits)
                                  return a.hits < b.hits;
                              if (a.bytes() != b.bytes())
                                  return a.bytes() > b.bytes();
                              return *a.key < *b.key;  // determinism
                          });
                for (const Victim &victim : victims) {
                    if (imageBytes() <= maxBytes_)
                        break;
                    --records;
                    key_words -= victim.key->size();
                    payload_bytes -= victim.payload;
                    if (victim.kind == kCacheRecordRow)
                        rows.erase(*victim.key);
                    else
                        traces.erase(*victim.key);
                    ++evicted;
                }
                util::inform("frontier cache: byte budget evicted "
                             "%zu least-recently-hit records",
                             evicted);
            }
        }
    }

    // Absorb everything this flush made persistent — whether we wrote
    // it or found a concurrent CLI already had — so the next flush
    // only considers genuinely new state (and stats stop reporting it
    // as pending).
    auto absorb = [&](bool wrote,
                      FrontierCacheSegment published =
                          FrontierCacheSegment()) {
        std::lock_guard<std::mutex> lock_state(mutex_);
        for (const auto &entry : pending_rows)
            pendingRows_.erase(entry.first);
        for (const std::vector<int64_t> *key : written_traces)
            mmapTraces_[*key] = std::move(trace_images[*key]);
        if (!wrote)
            return;
        ++flushes_;
        generation_ = new_gen;
        evictedLastFlush_ = evicted;
        // The folded counts are on disk. Hits scored on the old image
        // since the fold carry over to the same keys' slots of the new
        // one, which lookups pin from here on.
        auto next = std::make_shared<Image>(std::move(published));
        current->takeHits([&](uint32_t, uint32_t late,
                              const FrontierCacheSegment::Entry &entry) {
            uint32_t slot = 0;
            if (!next->segment.find(entry.kind, entry.key, &slot).empty())
                next->addHits(slot, late);
        });
        image_ = std::move(next);
    };

    if (!rewrite) {
        // Disk already holds at least everything we know (every
        // pending row matched a published record, every trace lost to
        // a deeper published prefix).
        absorb(false);
        return true;
    }

    std::vector<SegmentRecord> records;
    records.reserve(rows.size() + traces.size());
    for (const auto &[key, disk] : rows)
        records.push_back({kCacheRecordRow, &key, disk.payload,
                           disk.hits, disk.lastGen});
    for (const auto &[key, disk] : traces)
        records.push_back({kCacheRecordTrace, &key, disk.payload,
                           disk.hits, disk.lastGen});
    // The image is a temporary, freed before the new mapping is
    // validated below: the flush never holds two copies of it.
    if (!util::publishFileAtomic(
            segmentPath_,
            FrontierCacheSegment::build(fingerprint_, new_gen, records))) {
        util::warn("frontier cache: publishing %s failed; previous "
                   "image kept", segmentPath_.c_str());
        // The folded counts never reached disk: they stay counted.
        for (const auto &[slot, delta] : folded)
            current->addHits(slot, delta);
        return false;
    }
    // Nothing reads a record file an older binary left beside the
    // segment; the first publish removes it.
    std::error_code ec;
    std::filesystem::remove(legacyFilePath_, ec);
    absorb(true, FrontierCacheSegment::open(segmentPath_, fingerprint_));
    return true;
}

FrontierCache::Stats
FrontierCache::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    Stats stats;
    stats.rowsPending = pendingRows_.size();
    stats.tracesNoted = notedTraces_.size();
    stats.flushes = flushes_;
    stats.loadedClean = loadedClean_;
    stats.generation = generation_;
    stats.segmentMapped = image_->segment.valid();
    stats.segmentEntries = image_->segment.entryCount();
    stats.segmentBytes = image_->segment.bytes();
    stats.segmentRowHits = segmentRowHits_.load();
    stats.segmentTraceHits = segmentTraceHits_;
    stats.evictedLastFlush = evictedLastFlush_;
    return stats;
}

} // namespace core
} // namespace mclp
