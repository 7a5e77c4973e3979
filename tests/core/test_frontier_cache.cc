/**
 * @file
 * The persistent frontier cache must trade only process-start warmth,
 * never correctness: designs answered from an mmap-warm cache diff
 * byte for byte against cold runs (fixed and random networks), and
 * every way the segment can be wrong — truncated, bit-rotted in its
 * slot table or in one record, forged with a recomputed checksum,
 * stale layout version, stale model fingerprint, put back from an
 * older flush, raced by concurrent writers — must degrade to a cold
 * build of what it cannot serve: never a crash, never different bytes.
 */

#include <gtest/gtest.h>

#include <sys/resource.h>
#include <unistd.h>

#include <atomic>
#include <climits>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/dse_request.h"
#include "core/frontier_cache.h"
#include "core/frontier_codec.h"
#include "core/session_registry.h"
#include "nn/zoo.h"
#include "service/dse_codec.h"
#include "service/dse_service.h"
#include "test_helpers.h"
#include "util/logging.h"
#include "util/math.h"
#include "util/record_file.h"
#include "util/shm.h"
#include "util/string_utils.h"
#include "util/thread_pool.h"

namespace mclp {
namespace {

namespace fs = std::filesystem;

/** A fresh cache directory, removed on destruction. */
struct ScratchDir
{
    fs::path path;

    ScratchDir()
    {
        static int counter = 0;
        path = fs::temp_directory_path() /
               ("mclp_frontier_cache_" + std::to_string(::getpid()) +
                "_" + std::to_string(counter++));
        fs::create_directories(path);
    }

    ~ScratchDir() { fs::remove_all(path); }

    std::string dir() const { return path.string(); }

    /** Where an older binary's record file would sit. */
    std::string recordFile() const
    {
        return (path / core::kFrontierCacheFileName).string();
    }

    std::string segmentFile() const
    {
        return (path / core::kFrontierSegmentFileName).string();
    }

    /** Names of everything in the directory. */
    std::set<std::string> entries() const
    {
        std::set<std::string> names;
        for (const auto &entry : fs::directory_iterator(path))
            names.insert(entry.path().filename().string());
        return names;
    }
};

/** What a cache directory holds after any flush that publishes. */
const std::set<std::string> kPublishedFiles = {
    core::kFrontierSegmentFileName, core::kFrontierCacheLockName};

/** Wire-encode a request answered through a cache-backed registry,
 * over @p pool when one is lent. */
std::string
cachedResponse(const std::string &line, const std::string &cache_dir,
               util::ThreadPool *pool = nullptr)
{
    auto cache = std::make_shared<core::FrontierCache>(cache_dir);
    core::SessionRegistry registry(4, 0, 1, cache);
    core::DseRequest request = service::decodeRequest(line);
    return service::encodeResponse(
        service::answerRequest(request, &registry, pool));
    // Registry destruction flushes the cache.
}

std::string
coldResponse(const std::string &line)
{
    core::DseRequest request = service::decodeRequest(line);
    return service::encodeResponse(
        service::answerRequest(request, nullptr));
}

std::string
readFileBytes(const std::string &path)
{
    std::FILE *file = std::fopen(path.c_str(), "rb");
    EXPECT_NE(file, nullptr) << path;
    std::string bytes;
    char buf[4096];
    size_t got;
    while ((got = std::fread(buf, 1, sizeof buf, file)) > 0)
        bytes.append(buf, got);
    std::fclose(file);
    return bytes;
}

TEST(FrontierCache, DiskWarmMatchesColdByteForByte)
{
    ScratchDir scratch;
    std::vector<std::string> requests{
        "dse id=a net=alexnet device=690t budgets=500,1000,2880",
        "dse id=s net=squeezenet device=690t type=fixed mhz=170 "
        "budgets=1000,2880",
        "dse id=l net=alexnet budgets=500,2000 mode=latency",
    };
    util::ThreadPool pool(4);
    for (const std::string &line : requests) {
        std::string cold = coldResponse(line);
        // Populating pass (cold cache) and disk-warm pass (fresh
        // FrontierCache instance, fresh registry, fresh sessions —
        // only the directory survives) must both match cold bytes.
        // The warm pass walks no trace deeper than its seeds and
        // builds no row, so its flush leaves the image untouched.
        EXPECT_EQ(cachedResponse(line, scratch.dir()), cold) << line;
        std::string populated = readFileBytes(scratch.segmentFile());
        EXPECT_EQ(cachedResponse(line, scratch.dir()), cold) << line;
        EXPECT_EQ(readFileBytes(scratch.segmentFile()), populated)
            << line;
        // A pooled warm pass: heuristic and row fan-out share one
        // pool while rows load from the segment.
        EXPECT_EQ(cachedResponse(line, scratch.dir(), &pool), cold)
            << line;
    }

    // The warm pass really came from the persistent tier: a fresh
    // cache maps the published segment and loads lazily — hits
    // stream from the mapping on demand.
    EXPECT_EQ(scratch.entries(), kPublishedFiles);
    auto cache = std::make_shared<core::FrontierCache>(scratch.dir());
    core::FrontierCache::Stats before = cache->stats();
    EXPECT_TRUE(before.loadedClean);
    EXPECT_TRUE(before.segmentMapped);
    EXPECT_GT(before.segmentEntries, 0u);
    EXPECT_EQ(before.segmentRowHits, 0u);  // lazy: nothing decoded yet
    {
        core::SessionRegistry registry(4, 0, 1, cache);
        core::DseRequest request = service::decodeRequest(requests[0]);
        service::answerRequest(request, &registry);
        // The store's own accounting sees the same mmap hits (this is
        // what the cache-stats verb reports as tier_mmap).
        EXPECT_GT(registry.rowStore()->stats().mmapHits, 0u);
        EXPECT_EQ(registry.rowStore()->stats().diskHits, 0u);
        // The store keeps what it decoded: answering again, and a
        // fresh session over the same rows (another device), decode
        // nothing more, so each persisted row decodes once per process.
        size_t decoded = cache->stats().segmentRowHits;
        service::answerRequest(request, &registry);
        core::DseRequest other_device = service::decodeRequest(
            "dse id=b net=alexnet device=485t budgets=500,1000,2880");
        service::answerRequest(other_device, &registry);
        EXPECT_EQ(cache->stats().segmentRowHits, decoded);
        EXPECT_EQ(decoded, registry.rowStore()->stats().mmapHits);
    }
    core::FrontierCache::Stats after = cache->stats();
    EXPECT_GT(after.segmentRowHits, 0u);
    EXPECT_GT(after.segmentTraceHits, 0u);
}

TEST(FrontierCache, DiskWarmMatchesColdOnRandomNetworks)
{
    util::SplitMix64 rng(20170627);
    for (int trial = 0; trial < 3; ++trial) {
        ScratchDir scratch;
        std::vector<std::string> layer_specs;
        int count = static_cast<int>(rng.nextInt(3, 6));
        for (int i = 0; i < count; ++i) {
            layer_specs.push_back(util::strprintf(
                "L%d:%lld:%lld:%lld:%lld:3:1", i,
                static_cast<long long>(rng.nextInt(1, 64)),
                static_cast<long long>(rng.nextInt(1, 64)),
                static_cast<long long>(rng.nextInt(3, 14)),
                static_cast<long long>(rng.nextInt(3, 14))));
        }
        std::string line = util::strprintf(
            "dse id=r%d net=rand layers=%s budgets=%lld,%lld "
            "maxclps=3%s",
            trial, util::join(layer_specs, ";").c_str(),
            static_cast<long long>(rng.nextInt(100, 900)),
            static_cast<long long>(rng.nextInt(900, 2400)),
            trial % 2 == 1 ? " type=fixed" : "");
        std::string cold = coldResponse(line);
        EXPECT_EQ(cachedResponse(line, scratch.dir()), cold) << line;
        EXPECT_EQ(cachedResponse(line, scratch.dir()), cold) << line;
    }
}

const char *const kPopulateLine =
    "dse id=p net=alexnet device=690t budgets=500,1500";

/** Populate a cache directory with one AlexNet ladder. */
std::string
populate(const ScratchDir &scratch)
{
    std::string cold = coldResponse(kPopulateLine);
    EXPECT_EQ(cachedResponse(kPopulateLine, scratch.dir()), cold);
    EXPECT_EQ(scratch.entries(), kPublishedFiles);
    return cold;
}

/** A damaged segment must open unclean and answer cold bytes. */
void
expectDamagedButCold(const ScratchDir &scratch, const std::string &cold)
{
    auto cache = std::make_shared<core::FrontierCache>(scratch.dir());
    EXPECT_FALSE(cache->stats().loadedClean);
    EXPECT_FALSE(cache->stats().segmentMapped);
    core::SessionRegistry registry(4, 0, 1, cache);
    EXPECT_EQ(service::encodeResponse(service::answerRequest(
                  service::decodeRequest(kPopulateLine), &registry)),
              cold);
}

TEST(FrontierCache, TruncatedFileFallsBackToColdBuild)
{
    // With no record file behind it, damage anywhere in the segment
    // costs the whole cache: a cold start, never a partial image.
    ScratchDir scratch;
    std::string cold = populate(scratch);
    fs::resize_file(scratch.segmentFile(),
                    fs::file_size(scratch.segmentFile()) / 2);
    expectDamagedButCold(scratch, cold);
}

TEST(FrontierCache, CorruptPayloadByteFallsBackToColdBuild)
{
    ScratchDir scratch;
    std::string cold = populate(scratch);
    std::string damaged_image;
    {
        // Flip a byte deep in the payload blob: only the record holding
        // it fails its check, so the image still maps.
        std::FILE *file =
            std::fopen(scratch.segmentFile().c_str(), "r+b");
        ASSERT_NE(file, nullptr);
        ASSERT_EQ(std::fseek(file, -40, SEEK_END), 0);
        int byte = std::fgetc(file);
        ASSERT_EQ(std::fseek(file, -1, SEEK_CUR), 0);
        std::fputc(byte ^ 0x5a, file);
        std::fclose(file);
        damaged_image = readFileBytes(scratch.segmentFile());
    }
    auto cache = std::make_shared<core::FrontierCache>(scratch.dir());
    EXPECT_TRUE(cache->stats().segmentMapped);
    EXPECT_TRUE(cache->stats().loadedClean) << "open reads no record";
    {
        core::SessionRegistry registry(4, 0, 1, cache);
        EXPECT_EQ(service::encodeResponse(service::answerRequest(
                      service::decodeRequest(kPopulateLine), &registry)),
                  cold);
        // The damaged record read as absent and was rebuilt cold; the
        // rest answered from the image.
        EXPECT_FALSE(cache->stats().loadedClean);
        EXPECT_GT(registry.rowStore()->stats().mmapHits, 0u);
    }
    // The drain's flush put the rebuilt record in the damaged one's
    // place: a fresh process is clean and answers with every row warm.
    EXPECT_NE(readFileBytes(scratch.segmentFile()), damaged_image);
    auto healed = std::make_shared<core::FrontierCache>(scratch.dir());
    core::SessionRegistry registry(4, 0, 1, healed);
    EXPECT_EQ(service::encodeResponse(service::answerRequest(
                  service::decodeRequest(kPopulateLine), &registry)),
              cold);
    EXPECT_TRUE(healed->stats().loadedClean);
    EXPECT_EQ(registry.rowStore()->stats().misses, 0u);
}

/** A small deterministic staircase (direct-cache tests below bypass
 * the optimizer entirely). */
std::shared_ptr<const core::ShapeFrontier>
makeRow(int seed, size_t count = 30)
{
    std::vector<core::FrontierPoint> points(count);
    for (size_t i = 0; i < count; ++i) {
        points[i].shape = {static_cast<int64_t>(1 + (seed + i) % 64),
                           static_cast<int64_t>(1 + (seed * 7 + i) % 64)};
        points[i].dsp = static_cast<int64_t>(10 + seed + i * 13);
        points[i].cycles =
            static_cast<int64_t>(100000 - seed - i * 17);
    }
    auto row = core::ShapeFrontier::fromPoints(std::move(points));
    EXPECT_TRUE(row.has_value());
    return std::make_shared<const core::ShapeFrontier>(
        std::move(*row));
}

/** The segment hash (FNV-1a over kind, then key words) — repeated
 * here so the test can author images exactly as older binaries laid
 * them out. */
uint64_t
segmentSlotHash(uint8_t kind, const std::vector<int64_t> &key)
{
    uint64_t hash = 1469598103934665603ULL;
    hash ^= kind;
    hash *= 1099511628211ULL;
    for (int64_t word : key) {
        hash ^= static_cast<uint64_t>(word);
        hash *= 1099511628211ULL;
    }
    return hash;
}

/**
 * A complete, checksummed segment image of an older layout holding
 * one row, exactly what older binaries published: version 1 has
 * 24-byte slots without hit counters; version 2 adds the counters.
 * Both cover everything after the header with one checksum and give
 * records no check of their own.
 */
std::string
olderSegmentImage(uint32_t version, uint64_t fingerprint,
                  const std::vector<int64_t> &key,
                  const core::ShapeFrontier &row)
{
    std::string payload;
    core::encodeRowPayload(payload, row);
    constexpr uint32_t kSlots = 8;
    uint64_t hash = segmentSlotHash(core::kCacheRecordRow, key);
    util::ByteWriter body;
    for (uint32_t s = 0; s < kSlots; ++s) {
        bool live = s == (static_cast<uint32_t>(hash) & (kSlots - 1));
        body.u64(live ? hash : 0);
        body.u32(0);  // key offset (words)
        body.u32(live ? (uint32_t{core::kCacheRecordRow} << 24) |
                            static_cast<uint32_t>(key.size())
                      : 0);
        body.u32(0);  // payload offset
        body.u32(live ? static_cast<uint32_t>(payload.size()) : 0);
        if (version >= 2) {
            body.u32(live ? 3 : 0);  // hits
            body.u32(live ? 1 : 0);  // last-hit generation
        }
    }
    body.i64Words(key.data(), key.size());
    std::string tail = body.bytes() + payload;
    util::ByteWriter header;
    header.u64(core::kFrontierSegmentMagic);
    header.u32(version);
    header.u32(kSlots);
    header.u64(fingerprint);
    header.u64(1);  // generation
    header.u64(1);  // entries
    header.u64(key.size());
    header.u64(64 + tail.size());
    header.u64(util::fnv1aBytes(tail.data(), tail.size()));
    return header.bytes() + tail;
}

/** Header-only segment with the given identity fields, plus garbage
 * that must never be read under a refused header. */
std::string
bogusSegment(uint64_t magic, uint32_t version, uint64_t fingerprint)
{
    util::ByteWriter out;
    out.u64(magic);
    out.u32(version);
    out.u32(8);
    out.u64(fingerprint);
    for (int i = 0; i < 5; ++i)
        out.u64(0xdeadbeefULL);
    out.u8(1);
    out.i64(-7);
    return out.bytes();
}

TEST(FrontierCache, WrongVersionOrFingerprintIsIgnoredWholesale)
{
    uint64_t fingerprint = core::modelFormulaFingerprint();
    std::vector<int64_t> key = {2, 2880, 3, 64, 121, 1};
    for (int variant = 0; variant < 5; ++variant) {
        ScratchDir scratch;
        std::string image;
        if (variant == 0) {
            // Another layout version of our own file.
            image = bogusSegment(core::kFrontierSegmentMagic,
                                 core::kFrontierSegmentVersion + 1,
                                 fingerprint);
        } else if (variant == 1) {
            // A complete, valid image from a binary with different
            // model formulas.
            std::string payload;
            core::encodeRowPayload(payload, *makeRow(1));
            image = core::FrontierCacheSegment::build(
                fingerprint ^ 1, 3,
                {{core::kCacheRecordRow, key, payload, 0, 0}});
        } else if (variant == 2) {
            // The version-1 layout (no counters in the slots).
            image = olderSegmentImage(1, fingerprint, key, *makeRow(2));
        } else if (variant == 4) {
            // The version-2 layout (one checksum over everything after
            // the header, no record checks).
            image = olderSegmentImage(2, fingerprint, key, *makeRow(2));
        } else {
            // Not our file at all.
            image = bogusSegment(core::kFrontierSegmentMagic ^ 0xff,
                                 core::kFrontierSegmentVersion,
                                 fingerprint);
        }
        ASSERT_TRUE(util::publishFileAtomic(scratch.segmentFile(), image));
        EXPECT_EQ(core::FrontierCacheSegment::open(scratch.segmentFile(),
                                                   fingerprint)
                      .state(),
                  variant == 3 ? core::SegmentState::Damaged
                               : core::SegmentState::Stale)
            << "variant " << variant;

        auto cache =
            std::make_shared<core::FrontierCache>(scratch.dir());
        EXPECT_FALSE(cache->stats().segmentMapped);
        EXPECT_EQ(cache->loadRow(key), nullptr) << "variant " << variant;
        // A stale image is an *expected* invalidation, not damage —
        // except the wrong-magic case, which is not our file at all.
        EXPECT_EQ(cache->stats().loadedClean, variant != 3)
            << "variant " << variant;

        // The refused image is replaced by a valid one on flush.
        std::string line =
            "dse id=v net=alexnet device=690t budgets=500";
        std::string cold = coldResponse(line);
        {
            core::SessionRegistry registry(4, 0, 1, cache);
            core::DseRequest request = service::decodeRequest(line);
            EXPECT_EQ(service::encodeResponse(
                          service::answerRequest(request, &registry)),
                      cold);
        }
        auto reloaded =
            std::make_shared<core::FrontierCache>(scratch.dir());
        EXPECT_TRUE(reloaded->stats().loadedClean);
        EXPECT_TRUE(reloaded->stats().segmentMapped);
        EXPECT_GT(reloaded->stats().segmentEntries, 0u);
        EXPECT_EQ(scratch.entries(), kPublishedFiles);
    }
}

TEST(FrontierCache, ConcurrentWritersMergeInsteadOfClobbering)
{
    ScratchDir scratch;
    // Two cache instances on one directory (two CLIs), each learning
    // a different network, flushing in either order: both contribute.
    std::string alexnet_line =
        "dse id=a net=alexnet device=690t budgets=800";
    std::string squeeze_line =
        "dse id=s net=squeezenet device=690t budgets=800";
    std::string alexnet_cold = coldResponse(alexnet_line);
    std::string squeeze_cold = coldResponse(squeeze_line);

    auto cache_a = std::make_shared<core::FrontierCache>(scratch.dir());
    auto cache_b = std::make_shared<core::FrontierCache>(scratch.dir());
    std::thread writer_a([&] {
        core::SessionRegistry registry(4, 0, 1, cache_a);
        core::DseRequest request =
            service::decodeRequest(alexnet_line);
        EXPECT_EQ(service::encodeResponse(
                      service::answerRequest(request, &registry)),
                  alexnet_cold);
    });
    std::thread writer_b([&] {
        core::SessionRegistry registry(4, 0, 1, cache_b);
        core::DseRequest request =
            service::decodeRequest(squeeze_line);
        EXPECT_EQ(service::encodeResponse(
                      service::answerRequest(request, &registry)),
                  squeeze_cold);
    });
    writer_a.join();
    writer_b.join();

    // A third process sees the union, loads clean, and answers both
    // requests disk-warm with cold bytes. Whichever CLI flushed last
    // re-read the file under the lock and merged, so the earlier
    // flush survives alongside it.
    auto merged = std::make_shared<core::FrontierCache>(scratch.dir());
    EXPECT_TRUE(merged->stats().loadedClean);
    EXPECT_TRUE(merged->stats().segmentMapped);
    EXPECT_GT(merged->stats().segmentEntries, 0u);
    {
        core::SessionRegistry registry(4, 0, 1, merged);
        EXPECT_EQ(
            service::encodeResponse(service::answerRequest(
                service::decodeRequest(alexnet_line), &registry)),
            alexnet_cold);
        EXPECT_EQ(
            service::encodeResponse(service::answerRequest(
                service::decodeRequest(squeeze_line), &registry)),
            squeeze_cold);
    }
    EXPECT_GT(merged->stats().segmentRowHits, 0u);
}

TEST(FrontierCache, StaircaseValidationRejectsCorruptRows)
{
    // A checksummed-but-nonsensical staircase must not become a
    // frontier.
    std::vector<core::FrontierPoint> increasing_cycles(2);
    increasing_cycles[0].shape = {2, 2};
    increasing_cycles[0].dsp = 10;
    increasing_cycles[0].cycles = 100;
    increasing_cycles[1].shape = {4, 4};
    increasing_cycles[1].dsp = 20;
    increasing_cycles[1].cycles = 200;  // must decrease
    EXPECT_FALSE(
        core::ShapeFrontier::fromPoints(increasing_cycles).has_value());

    std::vector<core::FrontierPoint> bad_shape(1);
    bad_shape[0].shape = {0, 4};
    bad_shape[0].dsp = 10;
    bad_shape[0].cycles = 100;
    EXPECT_FALSE(core::ShapeFrontier::fromPoints(bad_shape).has_value());

    std::vector<core::FrontierPoint> good(2);
    good[0].shape = {2, 2};
    good[0].dsp = 10;
    good[0].cycles = 200;
    good[1].shape = {4, 4};
    good[1].dsp = 20;
    good[1].cycles = 100;
    EXPECT_TRUE(core::ShapeFrontier::fromPoints(good).has_value());
}

TEST(FrontierCache, CachedStoreCountsRowsLikeAnUncachedOne)
{
    // A cache keeps no decoded row, so the row store holds and counts
    // exactly what it would without one: the same request leaves the
    // same resident bytes, staircases included, and --max-bytes-mb
    // bounds a cached server's rows.
    ScratchDir scratch;
    std::string line = "dse id=p net=alexnet device=690t budgets=1500";

    size_t uncached_bytes;
    {
        core::SessionRegistry registry(4, 0, 1);
        service::answerRequest(service::decodeRequest(line), &registry);
        uncached_bytes = registry.rowStore()->memoryBytes();
    }
    auto cache = std::make_shared<core::FrontierCache>(scratch.dir());
    core::SessionRegistry registry(4, 0, 1, cache);
    service::answerRequest(service::decodeRequest(line), &registry);
    EXPECT_GT(registry.rowStore()->stats().rows, 0u);
    EXPECT_GT(cache->stats().rowsPending, 0u);
    EXPECT_EQ(registry.rowStore()->memoryBytes(), uncached_bytes);
}

TEST(FrontierCache, FingerprintIsStableWithinAProcess)
{
    EXPECT_EQ(core::modelFormulaFingerprint(),
              core::modelFormulaFingerprint());
    EXPECT_NE(core::modelFormulaFingerprint(), 0u);
}

/** Write @p bytes where an older binary's record file would sit. */
void
writeLeftoverRecordFile(const ScratchDir &scratch, const std::string &bytes)
{
    std::FILE *file = std::fopen(scratch.recordFile().c_str(), "wb");
    ASSERT_NE(file, nullptr);
    std::fwrite(bytes.data(), 1, bytes.size(), file);
    std::fclose(file);
}

/** @p loaded holds exactly @p row's points. */
void
expectSameRow(const core::ShapeFrontier &loaded,
              const core::ShapeFrontier &row)
{
    ASSERT_EQ(loaded.size(), row.size());
    for (size_t i = 0; i < row.size(); ++i) {
        EXPECT_EQ(loaded.point(i).shape, row.point(i).shape);
        EXPECT_EQ(loaded.point(i).dsp, row.point(i).dsp);
        EXPECT_EQ(loaded.point(i).cycles, row.point(i).cycles);
    }
}

TEST(FrontierCache, LegacyV2FileUpgradesOnFirstFlush)
{
    // A cache directory upgrades by rebuilding, not by reading the old
    // format: every record is a pure function of its key and the model
    // fingerprint. A v2 record file (legacy SoA row and trace records)
    // is stale — a clean, quiet cold start that never serves its
    // records — and the first flush that publishes leaves the current
    // segment and the lock, nothing else.
    ScratchDir scratch;
    std::vector<int64_t> row_key = {3, 64, 2880, 17};
    auto row = makeRow(5);
    std::vector<int64_t> trace_key = {1, 4, 4, -1, 8, 8, -1};
    core::FrontierTraceImage trace;
    trace.complete = true;
    trace.initialBram = 5000;
    trace.initialPeak = 12.5;
    for (int i = 0; i < 6; ++i) {
        core::TradeoffCurveCache::PartitionStep step;
        step.clp = static_cast<uint32_t>(i % 2);
        step.inCap = 100 - i;
        step.outCap = 200 - i;
        step.totalBram = 4000 - i * 300;
        step.totalPeak = 13.0 + i;
        trace.steps.push_back(step);
    }
    writeLeftoverRecordFile(
        scratch, core::encodeLegacyRowRecord(row_key, *row) +
                     core::encodeLegacyTraceRecord(trace_key, trace));

    auto cache = std::make_shared<core::FrontierCache>(scratch.dir());
    EXPECT_TRUE(cache->stats().loadedClean);
    EXPECT_FALSE(cache->stats().segmentMapped);
    EXPECT_EQ(cache->stats().generation, 0u);
    EXPECT_EQ(cache->loadRow(row_key), nullptr);
    core::TradeoffCurveCache::PartitionTrace seeded;
    EXPECT_FALSE(cache->seedTrace(trace_key, seeded));
    EXPECT_EQ(seeded.steps.size(), 0u);

    // A counter-only flush publishes nothing, so it removes nothing.
    ASSERT_TRUE(cache->flush());
    EXPECT_TRUE(fs::exists(scratch.recordFile()));
    EXPECT_FALSE(fs::exists(scratch.segmentFile()));

    // The cold rebuild's row is what the first real flush publishes,
    // and the leftover goes with it.
    cache->noteRow(row_key, row);
    ASSERT_TRUE(cache->flush());
    EXPECT_EQ(scratch.entries(), kPublishedFiles);

    auto upgraded = std::make_shared<core::FrontierCache>(scratch.dir());
    EXPECT_TRUE(upgraded->stats().loadedClean);
    EXPECT_TRUE(upgraded->stats().segmentMapped);
    EXPECT_EQ(upgraded->stats().segmentEntries, 1u);
    EXPECT_EQ(upgraded->stats().generation, 1u);
    auto reloaded = upgraded->loadRow(row_key);
    ASSERT_NE(reloaded, nullptr);
    expectSameRow(*reloaded, *row);
}

TEST(FrontierCache, LegacyV3FileUpgradesToV4OnFirstFlush)
{
    // Row keys carry four lanes per layer (n, m, r*c*k^2, G); a v3
    // binary left three-lane keys in both its record file and its
    // version-1 segment. Neither is read: the pair is stale (clean,
    // quiet, no generation inherited), no key — three-lane or
    // four-lane — answers from it, and the first flush that publishes
    // replaces both with a current segment that answers only under
    // the four-lane key.
    ScratchDir scratch;
    std::vector<int64_t> v3_row_key = {2, 2880, 3, 64, 121};
    std::vector<int64_t> v4_row_key = {2, 2880, 3, 64, 121, 1};
    auto row = makeRow(9);
    {
        // A v3-era row record: kind, three-lane key, hit counters and
        // the delta payload. Nothing parses these bytes any more; only
        // their presence matters.
        util::ByteWriter record;
        record.u8(core::kCacheRecordRow);
        record.u32(static_cast<uint32_t>(v3_row_key.size()));
        record.i64Words(v3_row_key.data(), v3_row_key.size());
        record.u32(12);  // hits
        record.u32(7);   // lastGen
        std::string payload;
        core::encodeRowPayload(payload, *row);
        writeLeftoverRecordFile(scratch, record.bytes() + payload);
    }
    ASSERT_TRUE(util::publishFileAtomic(
        scratch.segmentFile(),
        olderSegmentImage(1, core::modelFormulaFingerprint(), v3_row_key,
                          *row)));

    auto cache = std::make_shared<core::FrontierCache>(scratch.dir());
    EXPECT_TRUE(cache->stats().loadedClean);
    EXPECT_FALSE(cache->stats().segmentMapped);
    EXPECT_EQ(cache->stats().generation, 0u);
    for (const auto &key : {v3_row_key, v4_row_key})
        EXPECT_EQ(cache->loadRow(key), nullptr);

    // The cold rebuild answers under the four-lane key, and that is
    // what the first real flush publishes.
    cache->noteRow(v4_row_key, row);
    ASSERT_TRUE(cache->flush());
    EXPECT_EQ(scratch.entries(), kPublishedFiles);

    auto upgraded = std::make_shared<core::FrontierCache>(scratch.dir());
    EXPECT_TRUE(upgraded->stats().loadedClean);
    EXPECT_TRUE(upgraded->stats().segmentMapped);
    EXPECT_EQ(upgraded->stats().segmentEntries, 1u);
    EXPECT_EQ(upgraded->stats().generation, 1u);
    EXPECT_EQ(upgraded->loadRow(v3_row_key), nullptr)
        << "three-lane keys must not answer after the upgrade";
    auto reloaded = upgraded->loadRow(v4_row_key);
    ASSERT_NE(reloaded, nullptr);
    expectSameRow(*reloaded, *row);
}

TEST(FrontierCache, ByteBudgetEvictsTheLeastRecentlyHitRecords)
{
    ScratchDir scratch;
    std::vector<std::vector<int64_t>> keys;
    for (int i = 0; i < 20; ++i)
        keys.push_back({i, 100 + i, 200 + i});
    {
        auto cache = std::make_shared<core::FrontierCache>(
            scratch.dir());
        for (int i = 0; i < 20; ++i)
            cache->noteRow(keys[i], makeRow(i));
        ASSERT_TRUE(cache->flush());
    }
    size_t full_bytes = fs::file_size(scratch.segmentFile());

    // A budgeted process hits five records, learns one new row, and
    // flushes: the new image must fit the budget by evicting
    // least-recently-hit records — never the ones touched this
    // session, never the fresh one.
    size_t budget = full_bytes / 2;
    {
        auto cache = std::make_shared<core::FrontierCache>(
            scratch.dir(), budget);
        for (int i = 0; i < 5; ++i)
            ASSERT_NE(cache->loadRow(keys[i]), nullptr);
        cache->noteRow({999, 999, 999}, makeRow(99));
        ASSERT_TRUE(cache->flush());
        EXPECT_GE(cache->stats().evictedLastFlush, 5u);
        EXPECT_LE(fs::file_size(scratch.segmentFile()), budget);
    }

    // Survivors: all five hot keys and the fresh row; the evicted
    // cold keys answer null (a cold rebuild, not wrong bytes).
    auto reopened = std::make_shared<core::FrontierCache>(scratch.dir());
    EXPECT_TRUE(reopened->stats().loadedClean);
    for (int i = 0; i < 5; ++i)
        EXPECT_NE(reopened->loadRow(keys[i]), nullptr) << i;
    EXPECT_NE(reopened->loadRow({999, 999, 999}), nullptr);
    size_t cold_survivors = 0;
    for (int i = 5; i < 20; ++i)
        if (reopened->loadRow(keys[i]) != nullptr)
            ++cold_survivors;
    EXPECT_LT(cold_survivors, 15u);
}

/** The (hits, lastGen) counters the published image holds for a
 * record (a row unless @p kind says otherwise). */
std::pair<uint32_t, uint32_t>
imageCounters(const ScratchDir &scratch, const std::vector<int64_t> &key,
              uint8_t kind = core::kCacheRecordRow)
{
    std::pair<uint32_t, uint32_t> counters{0, 0};
    core::FrontierCacheSegment::open(scratch.segmentFile(),
                                     core::modelFormulaFingerprint())
        .forEach([&](const core::FrontierCacheSegment::Entry &entry) {
            if (entry.kind == kind && std::ranges::equal(entry.key, key))
                counters = {entry.hits, entry.lastGen};
        });
    return counters;
}

TEST(FrontierCache, CounterOnlyFlushLeavesTheFileUntouched)
{
    ScratchDir scratch;
    std::vector<int64_t> key = {4, 8, 15};
    {
        auto cache = std::make_shared<core::FrontierCache>(
            scratch.dir());
        cache->noteRow(key, makeRow(1));
        ASSERT_TRUE(cache->flush());
    }
    std::string segment_before = readFileBytes(scratch.segmentFile());
    auto stat_before = fs::last_write_time(scratch.segmentFile());
    EXPECT_EQ(imageCounters(scratch, key),
              (std::pair<uint32_t, uint32_t>{0, 1}));

    // Hits move counters, but counters alone never earn a rewrite:
    // the flush is a no-op and the segment keeps its exact bytes (the
    // deltas ride the next real rewrite).
    {
        auto cache = std::make_shared<core::FrontierCache>(
            scratch.dir());
        for (int i = 0; i < 3; ++i)
            ASSERT_NE(cache->loadRow(key), nullptr);
        ASSERT_TRUE(cache->flush());
        EXPECT_EQ(cache->stats().flushes, 0u);
    }
    EXPECT_EQ(readFileBytes(scratch.segmentFile()), segment_before);
    EXPECT_EQ(fs::last_write_time(scratch.segmentFile()), stat_before);

    // A real change rewrites, bumps the generation, and carries the
    // process's hits into the image's counters.
    {
        auto cache = std::make_shared<core::FrontierCache>(
            scratch.dir());
        for (int i = 0; i < 2; ++i)
            ASSERT_NE(cache->loadRow(key), nullptr);
        cache->noteRow({16, 23, 42}, makeRow(2));
        ASSERT_TRUE(cache->flush());
        EXPECT_EQ(cache->stats().flushes, 1u);
        EXPECT_EQ(cache->stats().generation, 2u);
    }
    EXPECT_NE(readFileBytes(scratch.segmentFile()), segment_before);
    EXPECT_EQ(imageCounters(scratch, key),
              (std::pair<uint32_t, uint32_t>{2, 2}));
}

TEST(FrontierCache, RowHitsAfterARewriteFoldIntoTheNextOne)
{
    // Hits count per slot of the mapped image. A rewrite folds them
    // and maps the new image; hits scored after it count against the
    // new image's slots, and the next rewrite folds those too.
    ScratchDir scratch;
    std::vector<int64_t> key = {4, 8, 15};
    {
        auto cache = std::make_shared<core::FrontierCache>(
            scratch.dir());
        cache->noteRow(key, makeRow(1));
        ASSERT_TRUE(cache->flush());
    }
    auto cache = std::make_shared<core::FrontierCache>(scratch.dir());
    for (int i = 0; i < 2; ++i)
        ASSERT_NE(cache->loadRow(key), nullptr);
    cache->noteRow({16, 23, 42}, makeRow(2));
    ASSERT_TRUE(cache->flush());
    EXPECT_EQ(imageCounters(scratch, key),
              (std::pair<uint32_t, uint32_t>{2, 2}));
    for (int i = 0; i < 3; ++i)
        ASSERT_NE(cache->loadRow(key), nullptr);
    cache->noteRow({99, 1, 1}, makeRow(3));
    ASSERT_TRUE(cache->flush());
    EXPECT_EQ(cache->stats().generation, 3u);
    EXPECT_EQ(imageCounters(scratch, key),
              (std::pair<uint32_t, uint32_t>{5, 3}));
}

TEST(FrontierCache, TraceHitsAfterARewriteFoldIntoTheNextOne)
{
    // The same for a walk trace seeded through seedTrace().
    ScratchDir scratch;
    std::vector<int64_t> key = {1, 4, 4, -1, 8, 8, -1};
    {
        auto cache = std::make_shared<core::FrontierCache>(
            scratch.dir());
        auto trace =
            std::make_shared<core::TradeoffCurveCache::PartitionTrace>();
        trace->initialized = true;
        trace->initialBram = 5000;
        trace->initialPeak = 12.5;
        core::TradeoffCurveCache::PartitionStep step;
        step.clp = 1;
        step.inCap = 100;
        step.outCap = 200;
        step.totalBram = 4000;
        step.totalPeak = 13.0;
        trace->steps.push_back(step);
        trace->complete = true;
        cache->noteTrace(key, trace);
        ASSERT_TRUE(cache->flush());
    }
    EXPECT_EQ(imageCounters(scratch, key, core::kCacheRecordTrace),
              (std::pair<uint32_t, uint32_t>{0, 1}));
    auto cache = std::make_shared<core::FrontierCache>(scratch.dir());
    auto seed = [&] {
        core::TradeoffCurveCache::PartitionTrace trace;
        return cache->seedTrace(key, trace);
    };
    for (int i = 0; i < 2; ++i)
        ASSERT_TRUE(seed());
    cache->noteRow({16, 23, 42}, makeRow(2));
    ASSERT_TRUE(cache->flush());
    EXPECT_EQ(imageCounters(scratch, key, core::kCacheRecordTrace),
              (std::pair<uint32_t, uint32_t>{2, 2}));
    for (int i = 0; i < 3; ++i)
        ASSERT_TRUE(seed());
    cache->noteRow({99, 1, 1}, makeRow(3));
    ASSERT_TRUE(cache->flush());
    EXPECT_EQ(imageCounters(scratch, key, core::kCacheRecordTrace),
              (std::pair<uint32_t, uint32_t>{5, 3}));
    EXPECT_EQ(cache->stats().segmentTraceHits, 5u);
}

TEST(FrontierCache, GoneSessionsTracesLeaveAndTheirSuccessorsReachDisk)
{
    // Two TradeoffCurveCaches over one FrontierCache stand in for an
    // evicted session and its successor. The cache keeps the evicted
    // session's trace until a flush has put it on disk, then lets go
    // of it; the successor's trace of the same partition is tracked in
    // its place, with or without a flush between the two, so its
    // deeper walk reaches disk as well.
    ScratchDir scratch;
    nn::Network net = nn::makeAlexNet();
    const fpga::DataType type = fpga::DataType::Float32;
    auto partitionOf = [](int64_t tm) {
        core::ComputePartition partition;
        core::ComputeGroup group;
        group.shape = {8, tm};
        group.layers = {1, 2, 3};
        partition.groups.push_back(group);
        return partition;
    };
    // Walk @p trace on to @p steps steps, BRAM falling at each.
    auto walk = [](core::TradeoffCurveCache::PartitionTrace &trace,
                   size_t steps) {
        std::lock_guard<std::mutex> lock(trace.mutex);
        if (!trace.initialized) {
            trace.initialized = true;
            trace.initialBram = 5000;
            trace.initialPeak = 12.5;
        }
        while (trace.steps.size() < steps) {
            core::TradeoffCurveCache::PartitionStep step;
            step.inCap = 100;
            step.outCap = 200;
            step.totalBram =
                4000 - 100 * static_cast<int64_t>(trace.steps.size());
            step.totalPeak = 13.0;
            trace.steps.push_back(step);
        }
    };
    auto diskSteps = [&](const core::ComputePartition &partition) {
        core::TradeoffCurveCache reopened(
            std::make_shared<core::FrontierCache>(scratch.dir()));
        auto trace = reopened.partitionTrace(type, net, partition);
        return trace->steps.size();
    };

    auto cache = std::make_shared<core::FrontierCache>(scratch.dir());
    const core::ComputePartition flushed_between = partitionOf(64);
    {
        core::TradeoffCurveCache evicted(cache);
        walk(*evicted.partitionTrace(type, net, flushed_between), 1);
    }
    EXPECT_EQ(cache->stats().tracesNoted, 1u);
    ASSERT_TRUE(cache->flush());
    EXPECT_EQ(cache->stats().tracesNoted, 0u)
        << "a gone session's trace on disk is let go";
    EXPECT_EQ(diskSteps(flushed_between), 1u);

    core::TradeoffCurveCache successor(cache);
    auto trace = successor.partitionTrace(type, net, flushed_between);
    EXPECT_EQ(trace->steps.size(), 1u) << "seeded from disk";
    EXPECT_EQ(cache->stats().tracesNoted, 1u);
    walk(*trace, 3);
    ASSERT_TRUE(cache->flush());
    EXPECT_EQ(cache->stats().tracesNoted, 1u)
        << "a live session's trace stays tracked";
    EXPECT_EQ(diskSteps(flushed_between), 3u);

    // No flush between the evicted session and its successor: the
    // successor's trace replaces the one only the cache still holds.
    const core::ComputePartition no_flush = partitionOf(32);
    {
        core::TradeoffCurveCache evicted(cache);
        walk(*evicted.partitionTrace(type, net, no_flush), 1);
    }
    {
        core::TradeoffCurveCache next(cache);
        walk(*next.partitionTrace(type, net, no_flush), 2);
        ASSERT_TRUE(cache->flush());
    }
    EXPECT_EQ(diskSteps(no_flush), 2u);
    ASSERT_TRUE(cache->flush());
    EXPECT_EQ(cache->stats().tracesNoted, 1u)
        << "only the live successor's trace is still tracked";
}

TEST(FrontierCache, ConcurrentWarmReadersMatchColdWhileFlushesSwapTheImage)
{
    // Warm rows and walk traces decode outside the store and cache
    // mutexes. Four threads answer overlapping GoogLeNet ladders over
    // one fresh cache and registry while a fifth keeps rewriting the
    // segment, so images are swapped under decodes in flight, and
    // each rewrite measures the live traces against the image it
    // pinned. Every answer must be cold bytes, every resident row an
    // mmap hit (the first insert wins, and a losing decode is not
    // counted as one), and traces must seed from the segment too.
    ScratchDir scratch;
    const std::vector<std::string> lines{
        "dse id=g1 net=googlenet device=690t budgets=1000,2880",
        "dse id=g2 net=googlenet device=690t budgets=2000,2880",
        "dse id=g3 net=googlenet device=690t budgets=2880",
        "dse id=g4 net=googlenet device=690t budgets=1000,2000,2880",
    };
    std::vector<std::string> cold;
    for (const std::string &line : lines)
        cold.push_back(coldResponse(line));
    // The last ladder's (budget, target) pairs cover every other
    // ladder's, so its rows are every row the readers can ask for.
    ASSERT_EQ(cachedResponse(lines.back(), scratch.dir()), cold.back());

    auto cache = std::make_shared<core::FrontierCache>(scratch.dir());
    ASSERT_TRUE(cache->stats().segmentMapped);
    {
        core::SessionRegistry registry(4, 0, 1, cache);
        std::atomic<bool> done{false};
        std::thread flusher([&] {
            for (int64_t i = 0; !done.load(); ++i) {
                cache->noteRow({-1 - i, 7, 7},
                               makeRow(static_cast<int>(i % 50)));
                EXPECT_TRUE(cache->flush());
            }
        });
        std::vector<std::thread> readers;
        for (size_t t = 0; t < lines.size(); ++t) {
            readers.emplace_back([&, t] {
                for (size_t k = 0; k < lines.size(); ++k) {
                    size_t r = (t + k) % lines.size();
                    EXPECT_EQ(service::encodeResponse(
                                  service::answerRequest(
                                      service::decodeRequest(lines[r]),
                                      &registry)),
                              cold[r])
                        << lines[r];
                }
            });
        }
        for (std::thread &reader : readers)
            reader.join();
        done = true;
        flusher.join();

        core::FrontierRowStore::Stats rows = registry.rowStore()->stats();
        EXPECT_GT(rows.mmapHits, 0u);
        EXPECT_EQ(rows.mmapHits, rows.rows);
        EXPECT_EQ(rows.misses, 0u);
        EXPECT_GE(cache->stats().segmentRowHits, rows.mmapHits);
        EXPECT_GT(cache->stats().segmentTraceHits, 0u);
    }
    EXPECT_GT(cache->stats().flushes, 0u);
}

TEST(FrontierCache, OlderImagePutBackServesWarmAndMergesForward)
{
    // A segment from an earlier flush put back over a newer one (an
    // operator restoring a backup, a crash-restored filesystem) is
    // still a complete, valid image: its rows serve warm, rows it
    // never had rebuild cold, and the next flush merges them in.
    ScratchDir scratch;
    std::vector<int64_t> old_key = {1, 2, 3};
    std::vector<int64_t> new_key = {7, 8, 9};
    {
        auto cache = std::make_shared<core::FrontierCache>(
            scratch.dir());
        cache->noteRow(old_key, makeRow(3));
        ASSERT_TRUE(cache->flush());
    }
    std::string old_segment = readFileBytes(scratch.segmentFile());
    {
        auto cache = std::make_shared<core::FrontierCache>(
            scratch.dir());
        cache->noteRow(new_key, makeRow(4));
        ASSERT_TRUE(cache->flush());
        EXPECT_EQ(cache->stats().generation, 2u);
    }
    ASSERT_TRUE(util::publishFileAtomic(scratch.segmentFile(),
                                        old_segment));

    auto cache = std::make_shared<core::FrontierCache>(scratch.dir());
    EXPECT_TRUE(cache->stats().loadedClean);
    EXPECT_TRUE(cache->stats().segmentMapped);
    EXPECT_EQ(cache->stats().segmentEntries, 1u);
    EXPECT_EQ(cache->stats().generation, 1u);
    EXPECT_NE(cache->loadRow(old_key), nullptr);
    EXPECT_EQ(cache->loadRow(new_key), nullptr);

    // The cold rebuild is noted and merged on top of the older image.
    cache->noteRow(new_key, makeRow(4));
    ASSERT_TRUE(cache->flush());
    auto healed = std::make_shared<core::FrontierCache>(scratch.dir());
    EXPECT_TRUE(healed->stats().segmentMapped);
    EXPECT_EQ(healed->stats().segmentEntries, 2u);
    EXPECT_EQ(healed->stats().generation, 2u);
    EXPECT_NE(healed->loadRow(old_key), nullptr);
    EXPECT_NE(healed->loadRow(new_key), nullptr);
}

/** Little-endian field access into a segment image. */
uint64_t
imageField(const std::string &image, size_t offset, size_t bytes)
{
    uint64_t value = 0;
    for (size_t i = 0; i < bytes; ++i)
        value |= static_cast<uint64_t>(
                     static_cast<unsigned char>(image[offset + i]))
                 << (8 * i);
    return value;
}

void
setImageField(std::string &image, size_t offset, size_t bytes,
              uint64_t value)
{
    for (size_t i = 0; i < bytes; ++i)
        image[offset + i] = static_cast<char>(value >> (8 * i));
}

/** Recompute the header checksum (the header's first 56 bytes, then
 * the slot table the header describes, as far as the image holds
 * it), so only the structural checks stand between a forged image and
 * the readers. */
void
resealImage(std::string &image)
{
    size_t slots = std::min<size_t>(imageField(image, 12, 4),
                                    (image.size() - 64) / 32);
    util::WordFold fold(0);
    fold.add(image.data(), 56);
    fold.add(image.data() + 64, slots * 32);
    setImageField(image, 56, 8, fold.finish());
}

/** Recompute the check word of the record at slot offset @p slot (its
 * kind, key words, then payload), so a forged record passes it. */
void
resealRecord(std::string &image, size_t slot)
{
    const size_t key_blob = 64 + imageField(image, 12, 4) * size_t{32};
    const size_t payload_blob = key_blob + imageField(image, 40, 8) * 8;
    const uint64_t kind_words = imageField(image, slot + 12, 4);
    const size_t record = key_blob + imageField(image, slot + 8, 4) * 8;
    util::WordFold fold(kind_words >> 24);
    fold.add(image.data() + record + 8, (kind_words & 0xffffff) * 8);
    fold.add(image.data() + payload_blob + imageField(image, slot + 16, 4),
             imageField(image, slot + 20, 4));
    setImageField(image, record, 8, fold.finish());
}

/** A copy of a segment entry's key words. */
std::vector<int64_t>
entryKey(const core::FrontierCacheSegment::Entry &entry)
{
    return {entry.key.begin(), entry.key.end()};
}

TEST(FrontierCache, CorruptV3RowKeyLoadsUnclean)
{
    // A row key the reader cannot carry makes the load unclean rather
    // than being patched up. The v3 record file's malformed keys have
    // no reader any more; the one a current image can hold is a live
    // row slot with no key words, here under a recomputed checksum so
    // only the slot check stands in the way. The whole image is
    // refused — clean=0, cold-identical answers — and the drain's
    // flush publishes a valid image again.
    ScratchDir scratch;
    std::string cold = populate(scratch);
    std::string image = readFileBytes(scratch.segmentFile());
    const uint32_t slot_count =
        static_cast<uint32_t>(imageField(image, 12, 4));
    size_t row_slot = 0;
    for (uint32_t s = 0; s < slot_count && row_slot == 0; ++s) {
        size_t slot = 64 + s * size_t{32};
        if ((imageField(image, slot + 12, 4) >> 24) ==
            core::kCacheRecordRow)
            row_slot = slot;
    }
    ASSERT_NE(row_slot, 0u);
    setImageField(image, row_slot + 12, 4,
                  uint32_t{core::kCacheRecordRow} << 24);
    resealImage(image);
    ASSERT_TRUE(util::publishFileAtomic(scratch.segmentFile(), image));
    EXPECT_EQ(core::FrontierCacheSegment::open(
                  scratch.segmentFile(), core::modelFormulaFingerprint())
                  .state(),
              core::SegmentState::Damaged);

    expectDamagedButCold(scratch, cold);
    EXPECT_EQ(scratch.entries(), kPublishedFiles);
    auto healed = std::make_shared<core::FrontierCache>(scratch.dir());
    EXPECT_TRUE(healed->stats().loadedClean);
    EXPECT_TRUE(healed->stats().segmentMapped);
    EXPECT_EQ(cachedResponse(kPopulateLine, scratch.dir()), cold);
}

TEST(FrontierCache, ForgedSegmentsAreRefusedOrServeInBoundsAndFlushHeals)
{
    // The segment is the only persisted form and the flush merge
    // reads it back, so it must survive images whose header checksum
    // was recomputed after the damage. Each seeded slot forgery is
    // either refused as damaged (unclean, cold) or — for hostile
    // counters, which are legal values — served with exactly the
    // stored payloads. Damaged record bytes leave the image mapped and
    // refuse only that record. Either way a flush over it publishes a
    // valid image and the answers stay cold-identical.
    ScratchDir scratch;
    const std::string line =
        "dse id=h net=mini layers=a:3:16:14:14:3:1;b:16:24:7:7:3:1;"
        "c:24:24:7:7:1:1 budgets=150,400";
    const std::string cold = coldResponse(line);
    ASSERT_EQ(cachedResponse(line, scratch.dir()), cold);
    const std::string good = readFileBytes(scratch.segmentFile());
    const uint64_t fingerprint = core::modelFormulaFingerprint();

    /** What the honest image stores: (kind, key) -> payload bytes. */
    std::map<std::pair<uint8_t, std::vector<int64_t>>, std::string>
        stored;
    core::FrontierCacheSegment::open(scratch.segmentFile(), fingerprint)
        .forEach([&](const core::FrontierCacheSegment::Entry &entry) {
            stored[{entry.kind, entryKey(entry)}] = std::string(entry.payload);
        });
    ASSERT_GT(stored.size(), 2u);

    const uint32_t slot_count =
        static_cast<uint32_t>(imageField(good, 12, 4));
    const uint64_t key_words = imageField(good, 40, 8);
    const uint64_t payload_bytes =
        good.size() - 64 - uint64_t{slot_count} * 32 - key_words * 8;
    std::vector<uint32_t> live, empty;
    for (uint32_t s = 0; s < slot_count; ++s)
        (imageField(good, 64 + s * 32 + 12, 4) ? live : empty)
            .push_back(s);
    ASSERT_FALSE(empty.empty());

    enum Forgery
    {
        KeyOffset,
        PayloadOffset,
        PayloadLength,
        KeyLength,
        SlotCount,
        EntryCount,
        FullTable,
        HostileCounters,
        RecordBytes,
        kForgeries
    };
    util::SplitMix64 rng(20170624);
    for (int round = 0; round < 3 * kForgeries; ++round) {
        Forgery forgery = static_cast<Forgery>(round % kForgeries);
        std::string bad = good;
        size_t slot =
            64 + live[rng.nextInt(0, live.size() - 1)] * size_t{32};
        uint64_t words = imageField(bad, slot + 12, 4) & 0xffffff;
        uint64_t p_off = imageField(bad, slot + 16, 4);
        /** The record RecordBytes damages. */
        std::pair<uint8_t, std::vector<int64_t>> damaged;
        switch (forgery) {
        case KeyOffset:
            setImageField(bad, slot + 8, 4,
                          key_words - words + 1 + rng.nextInt(0, 999));
            break;
        case PayloadOffset:
            setImageField(bad, slot + 16, 4,
                          payload_bytes + 1 + rng.nextInt(0, 999));
            break;
        case PayloadLength:
            setImageField(bad, slot + 20, 4,
                          payload_bytes - p_off + 1 +
                              rng.nextInt(0, 999));
            break;
        case KeyLength:
            setImageField(bad, slot + 12, 4,
                          (imageField(bad, slot + 12, 4) & 0xff000000) |
                              (key_words + 1 + rng.nextInt(0, 99)));
            break;
        case SlotCount:
            // Strictly between two powers of two.
            setImageField(bad, 12, 4,
                          slot_count + 1 +
                              rng.nextInt(0, slot_count - 2));
            break;
        case EntryCount:
            setImageField(bad, 32, 8,
                          rng.nextInt(0, 1) ? live.size() + 1
                                            : live.size() - 1);
            break;
        case FullTable:
            // Every empty slot becomes a copy of a live one, and the
            // entry count agrees: no probe chain would ever end.
            for (uint32_t s : empty)
                bad.replace(64 + s * size_t{32}, 32, bad, slot, 32);
            setImageField(bad, 32, 8, slot_count);
            break;
        case HostileCounters:
            for (uint32_t s : live) {
                for (size_t field : {24, 28}) {
                    int64_t pick = rng.nextInt(0, 2);
                    setImageField(bad, 64 + s * size_t{32} + field, 4,
                                  pick == 0   ? 0
                                  : pick == 1 ? UINT32_MAX
                                              : rng.next() >> 32);
                }
            }
            break;
        case RecordBytes: {
            // One byte of the chosen record's key words or payload;
            // its check word no longer matches.
            const size_t key_blob = 64 + slot_count * size_t{32};
            const size_t record =
                key_blob + imageField(bad, slot + 8, 4) * 8;
            damaged.first =
                static_cast<uint8_t>(imageField(bad, slot + 12, 4) >> 24);
            for (uint64_t w = 0; w < words; ++w)
                damaged.second.push_back(static_cast<int64_t>(
                    imageField(bad, record + 8 + w * 8, 8)));
            uint64_t pick = rng.nextInt(
                0, words * 8 + imageField(bad, slot + 20, 4) - 1);
            size_t at = pick < words * 8
                            ? record + 8 + pick
                            : key_blob + key_words * 8 + p_off +
                                  (pick - words * 8);
            bad[at] = static_cast<char>(bad[at] ^ (1 + rng.nextInt(0, 254)));
            break;
        }
        case kForgeries:
            break;
        }
        resealImage(bad);
        ASSERT_TRUE(util::publishFileAtomic(scratch.segmentFile(), bad));
        SCOPED_TRACE("round " + std::to_string(round) + " forgery " +
                     std::to_string(forgery));

        core::FrontierCacheSegment segment =
            core::FrontierCacheSegment::open(scratch.segmentFile(),
                                             fingerprint);
        bool accepted = forgery == HostileCounters || forgery == RecordBytes;
        EXPECT_EQ(segment.state(), accepted
                                       ? core::SegmentState::Valid
                                       : core::SegmentState::Damaged);
        // Every view a forged image serves is an honest payload; the
        // damaged record reads as absent.
        for (const auto &[id, payload] : stored) {
            bool damage = false;
            EXPECT_EQ(std::string(segment.find(id.first, id.second,
                                               nullptr, &damage)),
                      accepted && id != damaged ? payload : std::string());
            EXPECT_EQ(damage, id == damaged);
        }
        std::map<std::vector<int64_t>, uint32_t> forged_hits;
        segment.forEach([&](const core::FrontierCacheSegment::Entry &e) {
            EXPECT_EQ(std::string(e.payload), (stored[{e.kind, entryKey(e)}]));
            forged_hits[entryKey(e)] = e.hits;
        });
        EXPECT_EQ(forged_hits.size(),
                  !accepted                ? 0u
                  : forgery == RecordBytes ? stored.size() - 1
                                           : stored.size());

        // A flush whose merge base is the forged image.
        {
            auto cache =
                std::make_shared<core::FrontierCache>(scratch.dir());
            EXPECT_EQ(cache->stats().loadedClean, accepted);
            core::SessionRegistry registry(4, 0, 1, cache);
            EXPECT_EQ(service::encodeResponse(service::answerRequest(
                          service::decodeRequest(line), &registry)),
                      cold);
            // Answering read the damaged record, which cleared clean.
            EXPECT_EQ(cache->stats().loadedClean, forgery == HostileCounters);
            // A row the image lacks forces a real merge even when the
            // forged image served every lookup.
            cache->noteRow({-1 - round, 5, 5}, makeRow(round));
            ASSERT_TRUE(cache->flush());
        }
        EXPECT_EQ(scratch.entries(), kPublishedFiles);
        core::FrontierCacheSegment healed =
            core::FrontierCacheSegment::open(scratch.segmentFile(),
                                             fingerprint);
        ASSERT_TRUE(healed.valid());
        EXPECT_GE(healed.entryCount(), stored.size() + 1);
        // Folded hits saturate: a forged maximum never wraps.
        healed.forEach([&](const core::FrontierCacheSegment::Entry &e) {
            auto it = forged_hits.find(entryKey(e));
            if (it != forged_hits.end() && it->second == UINT32_MAX) {
                EXPECT_EQ(e.hits, UINT32_MAX);
            }
        });
        if (forgery == RecordBytes) {
            // The rebuilt record took the damaged one's place.
            EXPECT_EQ(std::string(healed.find(damaged.first, damaged.second)),
                      stored[damaged]);
        }
        EXPECT_EQ(cachedResponse(line, scratch.dir()), cold);
        // Back to the honest image for the next forgery.
        ASSERT_TRUE(util::publishFileAtomic(scratch.segmentFile(), good));
    }
}

TEST(FrontierCache, ForgedTraceStepCountIsReplacedByTheNextFlush)
{
    // A trace record whose header claims more steps than its bytes can
    // hold is refused by seedTrace(), and it must not pass for a walk
    // deeper than the one this process made: the next flush replaces
    // it instead of keeping it over every walk.
    ScratchDir scratch;
    const std::vector<int64_t> key = {1, -1, 8, 8, 3, 3, 3, 1, 1};
    util::ByteWriter forged;
    forged.u8(1);
    forged.varint(100);
    forged.f64(12.5);
    forged.varint(core::kCacheMaxListEntries - 1);
    ASSERT_TRUE(util::publishFileAtomic(
        scratch.segmentFile(),
        core::FrontierCacheSegment::build(
            core::modelFormulaFingerprint(), 1,
            {{core::kCacheRecordTrace, key, forged.bytes()}})));

    auto cache = std::make_shared<core::FrontierCache>(scratch.dir());
    ASSERT_TRUE(cache->stats().segmentMapped);
    auto trace =
        std::make_shared<core::TradeoffCurveCache::PartitionTrace>();
    EXPECT_FALSE(cache->seedTrace(key, *trace));
    trace->initialized = true;
    trace->initialBram = 100;
    trace->initialPeak = 12.5;
    core::TradeoffCurveCache::PartitionStep step;
    step.inCap = 7;
    step.outCap = 9;
    step.totalBram = 99;
    step.totalPeak = 13.0;
    trace->steps.push_back(step);
    trace->complete = true;
    cache->noteTrace(key, trace);
    ASSERT_TRUE(cache->flush());
    EXPECT_EQ(cache->stats().flushes, 1u);

    core::TradeoffCurveCache::PartitionTrace reseeded;
    EXPECT_TRUE(core::FrontierCache(scratch.dir()).seedTrace(key, reseeded));
    EXPECT_EQ(reseeded.steps.size(), 1u);
}

TEST(FrontierCache, UndecodableRowSurvivesEviction)
{
    // A valid image whose record for some row passes its check but
    // fails to decode: the store misses it and builds the row cold,
    // and the cache logs the build to replace the broken record.
    // Evicting the session that built it must not cost a rebuild —
    // the row decodes from the log — and the next flush publishes it
    // in the broken record's place.
    ScratchDir scratch;
    const std::string line =
        "dse id=u net=mini layers=a:3:16:14:14:3:1;b:16:24:7:7:3:1;"
        "c:24:24:7:7:1:1 budgets=150,400";
    const std::string other =
        "dse id=o net=other layers=a:5:12:14:14:3:1;b:12:20:7:7:3:1 "
        "budgets=150";
    const std::string cold = coldResponse(line);
    ASSERT_EQ(cachedResponse(line, scratch.dir()), cold);

    // Forge the first row record's payload into bytes no decoder
    // accepts (an unterminated varint), its record check recomputed.
    std::string image = readFileBytes(scratch.segmentFile());
    const uint32_t slot_count =
        static_cast<uint32_t>(imageField(image, 12, 4));
    const size_t key_blob = 64 + slot_count * size_t{32};
    const size_t payload_blob = key_blob + imageField(image, 40, 8) * 8;
    std::vector<int64_t> key;
    for (uint32_t s = 0; s < slot_count && key.empty(); ++s) {
        size_t slot = 64 + s * size_t{32};
        uint64_t kind_words = imageField(image, slot + 12, 4);
        if ((kind_words >> 24) != core::kCacheRecordRow)
            continue;
        size_t key_at = key_blob + imageField(image, slot + 8, 4) * 8 + 8;
        for (uint64_t w = 0; w < (kind_words & 0xffffff); ++w)
            key.push_back(static_cast<int64_t>(
                imageField(image, key_at + w * 8, 8)));
        image.replace(payload_blob + imageField(image, slot + 16, 4),
                      imageField(image, slot + 20, 4),
                      imageField(image, slot + 20, 4), '\xff');
        resealRecord(image, slot);
    }
    ASSERT_FALSE(key.empty());
    ASSERT_TRUE(util::publishFileAtomic(scratch.segmentFile(), image));

    auto cache = std::make_shared<core::FrontierCache>(scratch.dir());
    ASSERT_TRUE(cache->stats().segmentMapped);
    EXPECT_EQ(cache->loadRow(key), nullptr) << "the payload must not decode";
    {
        core::SessionRegistry registry(1, 0, 1, cache);
        auto answer = [&](const std::string &request) {
            return service::encodeResponse(service::answerRequest(
                service::decodeRequest(request), &registry));
        };
        EXPECT_EQ(answer(line), cold);
        const std::shared_ptr<core::FrontierRowStore> &store =
            registry.rowStore();
        // Built cold; hold no reference past this line, so the
        // session's tables are the row's only holders besides the
        // store.
        ASSERT_NE(store->lookup(key), nullptr);
        EXPECT_EQ(cache->stats().rowsPending, 1u)
            << "the row waits in the log to replace the broken record";
        EXPECT_TRUE(cache->stats().loadedClean)
            << "the record passed its check";

        // Evict the session that built the row: the store keeps it,
        // and re-answering the network builds nothing.
        answer(other);
        ASSERT_GE(registry.stats().evictions, 1u);
        size_t misses = store->stats().misses;
        EXPECT_NE(store->lookup(key), nullptr);
        EXPECT_EQ(answer(line), cold);
        EXPECT_EQ(store->stats().misses, misses);
    }
    // The registry's flush replaced the broken record.
    EXPECT_EQ(cache->stats().rowsPending, 0u);
    EXPECT_NE(core::FrontierCache(scratch.dir()).loadRow(key), nullptr);
}

TEST(FrontierCache, FailedPublishKeepsThePendingLog)
{
    // A directory where the publish stages its temp file makes
    // publishFileAtomic fail (as root too, unlike a chmod). The flush
    // reports it, keeps every pending record, and answers stay cold
    // bytes; once the obstruction is gone the next flush publishes
    // every row, the ones noted after the failure included.
    ScratchDir scratch;
    const std::string line = "dse id=p net=alexnet device=690t budgets=1500";
    const std::string other =
        "dse id=o net=squeezenet device=690t budgets=1500";
    const std::string cold = coldResponse(line);
    const std::string other_cold = coldResponse(other);
    const fs::path obstruction =
        scratch.path / (std::string(core::kFrontierSegmentFileName) + ".tmp");

    auto cache = std::make_shared<core::FrontierCache>(scratch.dir());
    {
        core::SessionRegistry registry(1, 0, 1, cache);
        auto answer = [&](const std::string &request) {
            return service::encodeResponse(service::answerRequest(
                service::decodeRequest(request), &registry));
        };
        EXPECT_EQ(answer(line), cold);
        size_t pending = cache->stats().rowsPending;
        ASSERT_GT(pending, 0u);

        ASSERT_TRUE(fs::create_directory(obstruction));
        EXPECT_FALSE(cache->flush());
        EXPECT_EQ(cache->stats().rowsPending, pending);
        EXPECT_EQ(cache->stats().flushes, 0u);
        EXPECT_FALSE(fs::exists(scratch.segmentFile()));

        // The other network's rows join the log the failed flush put
        // back; re-answering the first network after its eviction
        // decodes every row from that log, building and noting none.
        EXPECT_EQ(answer(other), other_cold);
        size_t both = cache->stats().rowsPending;
        EXPECT_GT(both, pending);
        size_t misses = registry.rowStore()->stats().misses;
        EXPECT_EQ(answer(line), cold);
        EXPECT_EQ(registry.rowStore()->stats().misses, misses);
        EXPECT_EQ(cache->stats().rowsPending, both);

        fs::remove(obstruction);
        EXPECT_TRUE(cache->flush());
        EXPECT_EQ(cache->stats().rowsPending, 0u);
        EXPECT_EQ(cache->stats().flushes, 1u);
    }
    EXPECT_EQ(scratch.entries(), kPublishedFiles);

    for (const auto &[request, want] :
         {std::pair{line, cold}, std::pair{other, other_cold}}) {
        auto fresh = std::make_shared<core::FrontierCache>(scratch.dir());
        core::SessionRegistry registry(4, 0, 1, fresh);
        EXPECT_EQ(service::encodeResponse(service::answerRequest(
                      service::decodeRequest(request), &registry)),
                  want);
        EXPECT_EQ(registry.rowStore()->stats().misses, 0u)
            << request << ": every row must decode (tier_cold == 0)";
        EXPECT_GT(registry.rowStore()->stats().mmapHits, 0u);
    }
}

/** Address space this process has mapped (VmSize). */
size_t
mappedBytes()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.rfind("VmSize:", 0) == 0)
            return std::stoul(line.substr(7)) * 1024;
    return 0;
}

/**
 * Note 100000 rows, cap the address space at what the process has
 * mapped plus 1 MiB, so planning the image cannot allocate, and
 * flush: exit status 0 when flush() reported a failed publish and
 * kept the log.
 */
[[noreturn]] void
flushUnderAddressLimit(const std::string &dir)
{
    core::FrontierCache cache(dir);
    auto row = makeRow(7);
    for (int64_t k = 0; k < 100000; ++k)
        cache.noteRow({2, k, 3, 64, 121, 1}, row);
    size_t pending = cache.stats().rowsPending;
    rlimit limit{mappedBytes() + (size_t{1} << 20), RLIM_INFINITY};
    bool limited = ::setrlimit(RLIMIT_AS, &limit) == 0;
    bool published = cache.flush();
    bool kept = cache.stats().rowsPending == pending;
    std::_Exit(limited && !published && kept ? 0 : 1);
}

TEST(FrontierCache, FlushThatCannotAllocateIsAFailedPublish)
{
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    GTEST_SKIP() << "sanitizer shadow memory needs the address space";
#endif
    // A bad_alloc out of the registry's destructor would end the
    // process and lose every row: flush() must report a failed
    // publish instead, and keep the log. The child re-runs only this
    // test, so no memory an earlier test freed lets the flush fit.
    ScratchDir scratch;
    std::string &style = ::testing::GTEST_FLAG(death_test_style);
    const std::string saved = style;
    style = "threadsafe";
    EXPECT_EXIT(flushUnderAddressLimit(scratch.dir()),
                ::testing::ExitedWithCode(0), "out of memory");
    style = saved;
    EXPECT_FALSE(fs::exists(scratch.segmentFile()));
}

TEST(FrontierCache, PendingLogHoldsEachKeyOnceAndServesIt)
{
    // A row noted twice is logged once, and until a flush loadRow()
    // decodes each noted row from its log record, not from the image.
    // Enough keys to grow the log's index several times over.
    ScratchDir scratch;
    constexpr int kKeys = 300;
    auto keyOf = [](int k) {
        return std::vector<int64_t>{2, 100 + k, 3, 64, 121, 1, k % 7};
    };
    auto cache = std::make_shared<core::FrontierCache>(scratch.dir());
    for (int pass = 0; pass < 2; ++pass)
        for (int k = 0; k < kKeys; ++k)
            cache->noteRow(keyOf(k), makeRow(k % 50, 20 + k % 30));
    EXPECT_EQ(cache->stats().rowsPending, size_t{kKeys});
    for (int k = 0; k < kKeys; ++k) {
        SCOPED_TRACE("key " + std::to_string(k));
        auto row = cache->loadRow(keyOf(k));
        ASSERT_NE(row, nullptr);
        expectSameRow(*row, *makeRow(k % 50, 20 + k % 30));
    }
    EXPECT_EQ(cache->loadRow(keyOf(kKeys)), nullptr);
    EXPECT_EQ(cache->loadRow({2, 100, 3, 64}), nullptr)
        << "a prefix of a logged key is another key";
    EXPECT_EQ(cache->stats().segmentRowHits, 0u);

    ASSERT_TRUE(cache->flush());
    EXPECT_EQ(cache->stats().rowsPending, 0u);
    EXPECT_EQ(cache->stats().segmentEntries, size_t{kKeys});
    auto row = cache->loadRow(keyOf(7));
    ASSERT_NE(row, nullptr);
    expectSameRow(*row, *makeRow(7, 27));
    EXPECT_EQ(cache->stats().segmentRowHits, 1u);
}

TEST(FrontierCache, ConcurrentNotesAndFlushesPublishEachKeyOnce)
{
    // Four threads note rows, every key by two of them, while a fifth
    // flushes in a loop, so logs are taken, spliced and restarted
    // under concurrent appends. In the first round every publish
    // fails (a directory sits where the temp file goes), so each flush
    // puts its log back in front of the rows noted meanwhile, and the
    // log must still hold each key once; in the second the publishes
    // succeed. Afterwards the segment holds each key exactly once,
    // under the payload of the row noted for it.
    ScratchDir scratch;
    constexpr int kThreads = 4;
    constexpr int kKeys = 400;
    auto keyOf = [](int k) {
        return std::vector<int64_t>{2, 100 + k, 3, 64, 121, 1, k % 7};
    };
    const fs::path obstruction =
        scratch.path / (std::string(core::kFrontierSegmentFileName) + ".tmp");
    const util::LogLevel level = util::logLevel();
    auto cache = std::make_shared<core::FrontierCache>(scratch.dir());
    for (bool failing : {true, false}) {
        SCOPED_TRACE(failing ? "failing publishes" : "publishing");
        if (failing) {
            ASSERT_TRUE(fs::create_directory(obstruction));
            util::setLogLevel(util::LogLevel::Quiet);  // one warning a flush
        }
        std::atomic<bool> done{false};
        std::thread flusher([&] {
            while (!done.load()) {
                bool published = cache->flush();
                EXPECT_TRUE(published || failing);
            }
        });
        std::vector<std::thread> noters;
        for (int t = 0; t < kThreads; ++t) {
            noters.emplace_back([&, t] {
                // Thread t notes the keys k with k % 4 == t or
                // k % 4 == (t + 1) % 4: every key twice, by two threads.
                for (int k = 0; k < kKeys; ++k)
                    if (k % kThreads == t ||
                        k % kThreads == (t + 1) % kThreads)
                        cache->noteRow(keyOf(k),
                                       makeRow(k % 50, 20 + k % 30));
            });
        }
        for (std::thread &noter : noters)
            noter.join();
        done = true;
        flusher.join();
        if (failing) {
            util::setLogLevel(level);
            EXPECT_EQ(cache->stats().flushes, 0u);
            EXPECT_EQ(cache->stats().rowsPending, size_t{kKeys});
            fs::remove(obstruction);
        }
    }
    ASSERT_TRUE(cache->flush());
    EXPECT_EQ(cache->stats().rowsPending, 0u);

    std::map<std::vector<int64_t>, std::string> stored;
    size_t records = 0;
    core::FrontierCacheSegment segment = core::FrontierCacheSegment::open(
        scratch.segmentFile(), core::modelFormulaFingerprint());
    ASSERT_TRUE(segment.valid());
    segment.forEach([&](const core::FrontierCacheSegment::Entry &entry) {
        ++records;
        EXPECT_EQ(entry.kind, core::kCacheRecordRow);
        stored[entryKey(entry)] = std::string(entry.payload);
    });
    EXPECT_EQ(records, size_t{kKeys});
    ASSERT_EQ(stored.size(), size_t{kKeys});
    for (int k = 0; k < kKeys; ++k) {
        SCOPED_TRACE("key " + std::to_string(k));
        auto it = stored.find(keyOf(k));
        ASSERT_NE(it, stored.end());
        auto row = core::decodeRowPayload(it->second);
        ASSERT_TRUE(row.has_value());
        expectSameRow(*row, *makeRow(k % 50, 20 + k % 30));
    }
}

} // namespace
} // namespace mclp
