/**
 * @file
 * The persistent frontier cache must trade only process-start warmth,
 * never correctness: designs answered from an mmap-warm cache diff
 * byte for byte against cold runs (fixed and random networks), and
 * every way the segment can be wrong — truncated, bit-rotted, forged
 * with a recomputed checksum, stale layout version, stale model
 * fingerprint, put back from an older flush, raced by concurrent
 * writers — must degrade to a cold build: never a crash, never
 * different bytes.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <climits>
#include <cstdio>
#include <filesystem>
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
#include "util/math.h"
#include "util/record_file.h"
#include "util/shm.h"
#include "util/string_utils.h"

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

/** Wire-encode a request answered through a cache-backed registry. */
std::string
cachedResponse(const std::string &line, const std::string &cache_dir)
{
    auto cache = std::make_shared<core::FrontierCache>(cache_dir);
    core::SessionRegistry registry(4, 0, 1, cache);
    core::DseRequest request = service::decodeRequest(line);
    return service::encodeResponse(
        service::answerRequest(request, &registry));
    // Registry destruction flushes the cache.
}

std::string
coldResponse(const std::string &line)
{
    core::DseRequest request = service::decodeRequest(line);
    return service::encodeResponse(
        service::answerRequest(request, nullptr));
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
    for (const std::string &line : requests) {
        std::string cold = coldResponse(line);
        // Populating pass (cold cache) and disk-warm pass (fresh
        // FrontierCache instance, fresh registry, fresh sessions —
        // only the directory survives) must both match cold bytes.
        EXPECT_EQ(cachedResponse(line, scratch.dir()), cold) << line;
        EXPECT_EQ(cachedResponse(line, scratch.dir()), cold) << line;
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
    EXPECT_EQ(before.rowHits, 0u);  // lazy: nothing decoded yet
    {
        core::SessionRegistry registry(4, 0, 1, cache);
        core::DseRequest request = service::decodeRequest(requests[0]);
        service::answerRequest(request, &registry);
        // The store's own accounting sees the same mmap hits (this is
        // what the cache-stats verb reports as tier_mmap).
        EXPECT_GT(registry.rowStore()->stats().mmapHits, 0u);
        EXPECT_EQ(registry.rowStore()->stats().diskHits, 0u);
    }
    core::FrontierCache::Stats after = cache->stats();
    EXPECT_GT(after.rowHits, 0u);
    EXPECT_GT(after.traceHits, 0u);
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
    {
        // Flip a byte deep in the payload blob: the image checksum
        // catches it.
        std::FILE *file =
            std::fopen(scratch.segmentFile().c_str(), "r+b");
        ASSERT_NE(file, nullptr);
        ASSERT_EQ(std::fseek(file, -40, SEEK_END), 0);
        int byte = std::fgetc(file);
        ASSERT_EQ(std::fseek(file, -1, SEEK_CUR), 0);
        std::fputc(byte ^ 0x5a, file);
        std::fclose(file);
    }
    expectDamagedButCold(scratch, cold);
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
 * A complete, checksummed version-1 segment image holding one row:
 * 24-byte slots without hit counters, exactly what the binaries
 * before counters-in-the-image published.
 */
std::string
v1SegmentImage(uint64_t fingerprint, const std::vector<int64_t> &key,
               const core::ShapeFrontier &row)
{
    util::ByteWriter payload;
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
        body.u32(live ? static_cast<uint32_t>(payload.bytes().size())
                      : 0);
    }
    body.i64Words(key.data(), key.size());
    std::string tail = body.bytes() + payload.bytes();
    util::ByteWriter header;
    header.u64(core::kFrontierSegmentMagic);
    header.u32(1);  // layout version 1
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
    for (int variant = 0; variant < 4; ++variant) {
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
            util::ByteWriter payload;
            core::encodeRowPayload(payload, *makeRow(1));
            image = core::FrontierCacheSegment::build(
                fingerprint ^ 1, 3,
                {{core::kCacheRecordRow, &key, payload.bytes(), 0, 0}});
        } else if (variant == 2) {
            // The version-1 layout (no counters in the slots).
            image = v1SegmentImage(fingerprint, key, *makeRow(2));
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
    EXPECT_GT(merged->stats().rowHits, 0u);
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

TEST(FrontierCache, PinnedRowsAreExcludedFromEvictableBytes)
{
    // With a cache attached every row is pinned by the cache's mirror
    // (disk-loaded or pending write-back), so eviction cannot free
    // it; the byte budget must therefore not count row payloads, or a
    // --max-bytes-mb server with --cache-dir would thrash sessions
    // forever against a floor it can never get under.
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
    core::FrontierRowStore::Stats stats =
        registry.rowStore()->stats();
    EXPECT_GT(stats.rows, 0u);
    EXPECT_LT(registry.rowStore()->memoryBytes(), uncached_bytes)
        << "pinned staircase payloads must not count as evictable";
}

TEST(FrontierCache, FingerprintIsStableWithinAProcess)
{
    EXPECT_EQ(core::modelFormulaFingerprint(),
              core::modelFormulaFingerprint());
    EXPECT_NE(core::modelFormulaFingerprint(), 0u);
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
    core::CacheTier tier = core::CacheTier::Mmap;
    EXPECT_EQ(cache->loadRow(row_key, &tier), nullptr);
    EXPECT_EQ(tier, core::CacheTier::None);
    core::TradeoffCurveCache::PartitionTrace seeded;
    tier = core::CacheTier::Mmap;
    EXPECT_FALSE(cache->seedTrace(trace_key, seeded, &tier));
    EXPECT_EQ(tier, core::CacheTier::None);
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
    tier = core::CacheTier::None;
    auto reloaded = upgraded->loadRow(row_key, &tier);
    ASSERT_NE(reloaded, nullptr);
    EXPECT_EQ(tier, core::CacheTier::Mmap);
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
        core::encodeRowPayload(record, *row);
        writeLeftoverRecordFile(scratch, record.bytes());
    }
    ASSERT_TRUE(util::publishFileAtomic(
        scratch.segmentFile(),
        v1SegmentImage(core::modelFormulaFingerprint(), v3_row_key,
                       *row)));

    auto cache = std::make_shared<core::FrontierCache>(scratch.dir());
    EXPECT_TRUE(cache->stats().loadedClean);
    EXPECT_FALSE(cache->stats().segmentMapped);
    EXPECT_EQ(cache->stats().generation, 0u);
    for (const auto &key : {v3_row_key, v4_row_key}) {
        core::CacheTier tier = core::CacheTier::Mmap;
        EXPECT_EQ(cache->loadRow(key, &tier), nullptr);
        EXPECT_EQ(tier, core::CacheTier::None);
    }

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
    core::CacheTier tier = core::CacheTier::Mmap;
    EXPECT_EQ(upgraded->loadRow(v3_row_key, &tier), nullptr)
        << "three-lane keys must not answer after the upgrade";
    EXPECT_EQ(tier, core::CacheTier::None);
    auto reloaded = upgraded->loadRow(v4_row_key, &tier);
    ASSERT_NE(reloaded, nullptr);
    EXPECT_EQ(tier, core::CacheTier::Mmap);
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
    core::FrontierCacheOptions budgeted;
    budgeted.maxBytes = full_bytes / 2;
    {
        auto cache = std::make_shared<core::FrontierCache>(
            scratch.dir(), budgeted);
        for (int i = 0; i < 5; ++i)
            ASSERT_NE(cache->loadRow(keys[i]), nullptr);
        cache->noteRow({999, 999, 999}, makeRow(99));
        ASSERT_TRUE(cache->flush());
        EXPECT_GE(cache->stats().evictedLastFlush, 5u);
        EXPECT_LE(fs::file_size(scratch.segmentFile()),
                  budgeted.maxBytes);
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

/** The (hits, lastGen) counters the published image holds for a row. */
std::pair<uint32_t, uint32_t>
imageCounters(const ScratchDir &scratch, const std::vector<int64_t> &key)
{
    std::pair<uint32_t, uint32_t> counters{0, 0};
    core::FrontierCacheSegment::open(scratch.segmentFile(),
                                     core::modelFormulaFingerprint())
        .forEach([&](const core::FrontierCacheSegment::Entry &entry) {
            if (entry.kind == core::kCacheRecordRow && entry.key == key)
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
    core::CacheTier tier = core::CacheTier::None;
    EXPECT_NE(cache->loadRow(old_key, &tier), nullptr);
    EXPECT_EQ(tier, core::CacheTier::Mmap);
    EXPECT_EQ(cache->loadRow(new_key, &tier), nullptr);
    EXPECT_EQ(tier, core::CacheTier::None);

    // The cold rebuild is noted and merged on top of the older image.
    cache->noteRow(new_key, makeRow(4));
    ASSERT_TRUE(cache->flush());
    auto healed = std::make_shared<core::FrontierCache>(scratch.dir());
    EXPECT_TRUE(healed->stats().segmentMapped);
    EXPECT_EQ(healed->stats().segmentEntries, 2u);
    EXPECT_EQ(healed->stats().generation, 2u);
    EXPECT_NE(healed->loadRow(old_key, &tier), nullptr);
    EXPECT_EQ(tier, core::CacheTier::Mmap);
    EXPECT_NE(healed->loadRow(new_key, &tier), nullptr);
    EXPECT_EQ(tier, core::CacheTier::Mmap);
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

/** Recompute the body checksum, so only the structural checks stand
 * between a forged image and the readers. */
void
resealImage(std::string &image)
{
    setImageField(image, 56, 8,
                  util::fnv1aBytes(image.data() + 64, image.size() - 64));
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
    // reads it back, so it must survive images whose checksum was
    // recomputed after the damage. Each seeded forgery is either
    // refused as damaged (unclean, cold) or — for hostile counters,
    // which are legal values — served with exactly the stored
    // payloads; either way a flush over it publishes a valid image
    // and the answers stay cold-identical.
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
            stored[{entry.kind, entry.key}] = std::string(entry.payload);
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
        bool accepted = forgery == HostileCounters;
        EXPECT_EQ(segment.state(), accepted
                                       ? core::SegmentState::Valid
                                       : core::SegmentState::Damaged);
        // Every view a forged image serves is an honest payload.
        for (const auto &[id, payload] : stored)
            EXPECT_EQ(std::string(segment.find(id.first, id.second)),
                      accepted ? payload : std::string());
        std::map<std::vector<int64_t>, uint32_t> forged_hits;
        segment.forEach([&](const core::FrontierCacheSegment::Entry &e) {
            EXPECT_EQ(std::string(e.payload), (stored[{e.kind, e.key}]));
            forged_hits[e.key] = e.hits;
        });
        EXPECT_EQ(forged_hits.size(), accepted ? stored.size() : 0u);

        // A flush whose merge base is the forged image.
        {
            auto cache =
                std::make_shared<core::FrontierCache>(scratch.dir());
            EXPECT_EQ(cache->stats().loadedClean, accepted);
            core::SessionRegistry registry(4, 0, 1, cache);
            EXPECT_EQ(service::encodeResponse(service::answerRequest(
                          service::decodeRequest(line), &registry)),
                      cold);
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
            auto it = forged_hits.find(e.key);
            if (it != forged_hits.end() && it->second == UINT32_MAX) {
                EXPECT_EQ(e.hits, UINT32_MAX);
            }
        });
        EXPECT_EQ(cachedResponse(line, scratch.dir()), cold);
        // Back to the honest image for the next forgery.
        ASSERT_TRUE(util::publishFileAtomic(scratch.segmentFile(), good));
    }
}

} // namespace
} // namespace mclp
