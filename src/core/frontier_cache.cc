#include "core/frontier_cache.h"

#include <sys/stat.h>

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <deque>
#include <filesystem>
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

FrontierCache::FrontierCache(std::string dir,
                             FrontierCacheOptions options)
    : dir_(std::move(dir)), options_(options),
      fingerprint_(modelFormulaFingerprint())
{
    namespace fs = std::filesystem;
    std::error_code ec;
    fs::create_directories(dir_, ec);  // best effort; open just misses
    lockPath_ = (fs::path(dir_) / kFrontierCacheLockName).string();
    segmentPath_ = (fs::path(dir_) / kFrontierSegmentFileName).string();
    legacyFilePath_ = (fs::path(dir_) / kFrontierCacheFileName).string();
    // Sibling shards attach lazily: a sibling may not have published
    // anything yet (or even exist yet) — findInSiblings() maps each
    // segment the first time its file shows up on a miss.
    siblings_.reserve(options_.siblingDirs.size());
    for (const std::string &sibling : options_.siblingDirs) {
        SiblingSegment entry;
        entry.path =
            (fs::path(sibling) / kFrontierSegmentFileName).string();
        siblings_.push_back(std::move(entry));
    }

    // No lock needed: the segment only ever changes by atomic rename,
    // so the mapping is one complete image and pins its inode.
    segment_ = FrontierCacheSegment::open(segmentPath_, fingerprint_);
    switch (segment_.state()) {
    case SegmentState::Valid:
        generation_ = segment_.generation();
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
}

std::string_view
FrontierCache::findInSiblings(uint8_t kind,
                              const std::vector<int64_t> &key)
{
    for (SiblingSegment &sibling : siblings_) {
        // Refresh on a changed stat signature: the sibling republishes
        // with an atomic rename, so the path flips to a new inode when
        // (and only when) there is a new complete image. The stat is
        // nanoseconds against a miss that otherwise costs a cold
        // build, so probing on every miss is fine. The old mapping
        // survives an invalid or older replacement (generation guard):
        // serving it is always correct, merely less warm.
        struct stat st{};
        if (::stat(sibling.path.c_str(), &st) == 0 &&
            (static_cast<int64_t>(st.st_ino) != sibling.statIno ||
             static_cast<int64_t>(st.st_size) != sibling.statSize ||
             static_cast<int64_t>(st.st_mtim.tv_sec) * 1000000000 +
                     st.st_mtim.tv_nsec !=
                 sibling.statMtimeNs)) {
            sibling.statIno = static_cast<int64_t>(st.st_ino);
            sibling.statSize = static_cast<int64_t>(st.st_size);
            sibling.statMtimeNs =
                static_cast<int64_t>(st.st_mtim.tv_sec) * 1000000000 +
                st.st_mtim.tv_nsec;
            FrontierCacheSegment mapped =
                FrontierCacheSegment::open(sibling.path, fingerprint_);
            if (mapped.valid() &&
                (!sibling.segment.valid() ||
                 mapped.generation() >= sibling.segment.generation()))
                sibling.segment = std::move(mapped);
        }
        if (!sibling.segment.valid())
            continue;
        std::string_view payload = sibling.segment.find(kind, key);
        if (!payload.empty())
            return payload;
    }
    return {};
}

std::shared_ptr<const ShapeFrontier>
FrontierCache::loadRow(const std::vector<int64_t> &key, CacheTier *tier)
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (tier)
        *tier = CacheTier::None;
    auto it = mmapRows_.find(key);
    if (it == mmapRows_.end() && segment_.valid()) {
        std::string_view payload = segment_.find(kCacheRecordRow, key);
        if (!payload.empty()) {
            // Decode straight out of the mapping and memoize: the
            // second lookup of a hot row costs a map probe, and the
            // decoded object is shared process-wide like any other.
            if (auto row = decodeRowPayload(payload))
                it = mmapRows_
                         .emplace(key,
                                  std::make_shared<const ShapeFrontier>(
                                      std::move(*row)))
                         .first;
        }
    }
    if (it == mmapRows_.end()) {
        // Sideways before cold: a sibling shard may have published
        // this row. Its hit is not folded into rowHitDelta_ — the
        // record belongs to the sibling's file, and our flush cannot
        // update counters it does not own.
        auto sit = siblingRows_.find(key);
        if (sit == siblingRows_.end() && !siblings_.empty()) {
            std::string_view payload =
                findInSiblings(kCacheRecordRow, key);
            if (!payload.empty()) {
                if (auto row = decodeRowPayload(payload))
                    sit = siblingRows_
                              .emplace(
                                  key,
                                  std::make_shared<const ShapeFrontier>(
                                      std::move(*row)))
                              .first;
            }
        }
        if (sit == siblingRows_.end())
            return nullptr;
        ++rowHits_;
        ++siblingRowHits_;
        if (tier)
            *tier = CacheTier::Sibling;
        return sit->second;
    }
    ++rowHits_;
    ++segmentRowHits_;
    ++rowHitDelta_[key];
    if (tier)
        *tier = CacheTier::Mmap;
    return it->second;
}

void
FrontierCache::noteRow(const std::vector<int64_t> &key,
                       std::shared_ptr<const ShapeFrontier> row)
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (mmapRows_.count(key))
        return;  // already persistent
    if (segment_.valid() &&
        !segment_.find(kCacheRecordRow, key).empty())
        return;  // persistent, just never decoded by this process
    pendingRows_.emplace(key, std::move(row));
}

bool
FrontierCache::seedTrace(const std::vector<int64_t> &key,
                         TradeoffCurveCache::PartitionTrace &trace,
                         CacheTier *tier)
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (tier)
        *tier = CacheTier::None;
    const FrontierTraceImage *image = nullptr;
    CacheTier source = CacheTier::Mmap;
    auto it = mmapTraces_.find(key);
    if (it == mmapTraces_.end() && segment_.valid()) {
        std::string_view payload = segment_.find(kCacheRecordTrace, key);
        FrontierTraceImage decoded;
        if (!payload.empty() &&
            decodeTracePayload(payload, traceKeyGroups(key), decoded))
            it = mmapTraces_.emplace(key, std::move(decoded)).first;
    }
    if (it != mmapTraces_.end())
        image = &it->second;
    if (!image && !siblings_.empty()) {
        // Sideways before cold, same as rows: a sibling's published
        // walk prefix seeds this shard's trace too.
        auto sit = siblingTraces_.find(key);
        if (sit == siblingTraces_.end()) {
            std::string_view payload =
                findInSiblings(kCacheRecordTrace, key);
            FrontierTraceImage decoded;
            if (!payload.empty() &&
                decodeTracePayload(payload, traceKeyGroups(key),
                                   decoded))
                sit = siblingTraces_.emplace(key, std::move(decoded))
                          .first;
        }
        if (sit != siblingTraces_.end()) {
            image = &sit->second;
            source = CacheTier::Sibling;
        }
    }
    if (!image)
        return false;
    trace.initialized = true;
    trace.initialBram = image->initialBram;
    trace.initialPeak = image->initialPeak;
    trace.steps.assign(image->steps.data(), image->steps.size());
    trace.complete = image->complete;
    ++traceHits_;
    if (source == CacheTier::Sibling) {
        ++siblingTraceHits_;
    } else {
        ++segmentTraceHits_;
        ++traceHitDelta_[key];
    }
    if (tier)
        *tier = source;
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
    // other caches, and lookups call into us under the store mutex).
    RowMap pending_rows;
    std::vector<std::pair<
        std::vector<int64_t>,
        std::shared_ptr<TradeoffCurveCache::PartitionTrace>>>
        noted;
    /** What disk held at open/last flush: key -> (steps, complete). */
    std::unordered_map<std::vector<int64_t>, std::pair<size_t, bool>,
                       util::Int64VectorHash>
        known;
    HitMap row_deltas, trace_deltas;
    uint64_t known_gen = 0;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        pending_rows = pendingRows_;
        noted.assign(notedTraces_.begin(), notedTraces_.end());
        for (const auto &[key, image] : mmapTraces_)
            known.emplace(key, std::make_pair(image.steps.size(),
                                              image.complete));
        row_deltas = rowHitDelta_;
        trace_deltas = traceHitDelta_;
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
    // Hit-counter deltas alone never force a rewrite either — they
    // stay in memory and ride the next flush that rewrites the image
    // for a real reason (tests/core/test_frontier_cache.cc pins the
    // no-op).
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
    // replaces and anything this process published or mapped, so
    // sibling readers (which never swap to an older image) follow.
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
    // only when the image is being rewritten for a real reason. A hit
    // also stamps the record with the new generation: "recently hit"
    // is what the byte-budget eviction below spares.
    size_t evicted = 0;
    if (rewrite) {
        auto fold = [&](auto &records, const HitMap &deltas) {
            for (const auto &[key, delta] : deltas) {
                auto it = records.find(key);
                if (it == records.end())
                    continue;
                uint32_t &hits = it->second.hits;
                hits = delta > UINT32_MAX - hits ? UINT32_MAX
                                                 : hits + delta;
                it->second.lastGen = static_cast<uint32_t>(new_gen);
            }
        };
        fold(rows, row_deltas);
        fold(traces, trace_deltas);

        if (options_.maxBytes > 0) {
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
            if (imageBytes() > options_.maxBytes) {
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
                    if (imageBytes() <= options_.maxBytes)
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
        for (auto &[key, row] : pending_rows) {
            mmapRows_.emplace(key, std::move(row));
            pendingRows_.erase(key);
        }
        for (const std::vector<int64_t> *key : written_traces)
            mmapTraces_[*key] = std::move(trace_images[*key]);
        if (!wrote)
            return;
        ++flushes_;
        generation_ = new_gen;
        evictedLastFlush_ = evicted;
        // The folded counters are on disk; drop exactly the folded
        // amounts (hits scored since the snapshot stay pending).
        auto settle = [](HitMap &live, const HitMap &folded) {
            for (const auto &[key, delta] : folded) {
                auto it = live.find(key);
                if (it == live.end())
                    continue;
                if (it->second <= delta)
                    live.erase(it);
                else
                    it->second -= delta;
            }
        };
        settle(rowHitDelta_, row_deltas);
        settle(traceHitDelta_, trace_deltas);
        segment_ = std::move(published);
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
    stats.rowHits = rowHits_;
    stats.traceHits = traceHits_;
    stats.rowsPending = pendingRows_.size();
    stats.tracesNoted = notedTraces_.size();
    stats.flushes = flushes_;
    stats.loadedClean = loadedClean_;
    stats.generation = generation_;
    stats.segmentMapped = segment_.valid();
    stats.segmentEntries = segment_.entryCount();
    stats.segmentBytes = segment_.bytes();
    stats.segmentRowHits = segmentRowHits_;
    stats.segmentTraceHits = segmentTraceHits_;
    stats.evictedLastFlush = evictedLastFlush_;
    stats.siblingDirs = siblings_.size();
    for (const SiblingSegment &sibling : siblings_)
        if (sibling.segment.valid())
            ++stats.siblingSegments;
    stats.siblingRowHits = siblingRowHits_;
    stats.siblingTraceHits = siblingTraceHits_;
    return stats;
}

} // namespace core
} // namespace mclp
