/**
 * @file
 * Persistent-cache benchmark: the warmth tier ladder of the DSE
 * engine, measured on one mixed request set.
 *
 *   cold          nothing shared: every request through a fresh
 *                 registry with no cache directory (what any single
 *                 CLI invocation without --cache-dir costs).
 *   process-warm  the same registry answers the set a second time
 *                 (sessions + row store resident).
 *   mmap-warm     a *fresh* process image — new FrontierCache, new
 *                 registry, new sessions — on a populated cache
 *                 directory: opening maps the published segment and
 *                 validates one checksum, and staircases stream out
 *                 of the mapping on demand.
 *
 * The run also measures the delta compaction: the segment image on
 * disk against the bytes its records would occupy as legacy SoA
 * records (each decoded out of the segment and re-encoded through the
 * legacy encoder, 12-byte record frames included).
 *
 * All tiers must produce byte-identical responses and the segment
 * must stay at least 2x smaller than the legacy encoding (the exit
 * code enforces both); the numbers land in BENCH_optimizer.json under
 * "cache" / "cache_tiers".
 */

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/frontier_cache.h"
#include "core/frontier_cache_segment.h"
#include "core/frontier_codec.h"
#include "core/session_registry.h"
#include "service/dse_codec.h"
#include "service/dse_service.h"
#include "util/string_utils.h"
#include "util/table.h"

namespace {

using namespace mclp;

std::vector<std::string>
requestSet()
{
    // The service_batch mix minus GoogLeNet's 57-layer rung twice
    // over: ladders on two networks plus a latency-mode ladder keeps
    // the populate pass around a quarter second while still touching
    // frontier rows, tiling options, and walk traces.
    return {
        "dse id=a690 net=alexnet device=690t budgets=500,1000,2240,2880",
        "dse id=s690 net=squeezenet device=690t type=fixed mhz=170 "
        "budgets=1000,2000,2880",
        "dse id=alat net=alexnet budgets=500,2880 mode=latency",
        "dse id=g690 net=googlenet device=690t budgets=2880",
    };
}

std::vector<std::string>
answerAll(core::SessionRegistry &registry,
          const std::vector<std::string> &lines)
{
    std::vector<std::string> responses;
    responses.reserve(lines.size());
    for (const std::string &line : lines) {
        responses.push_back(service::encodeResponse(
            service::answerRequest(service::decodeRequest(line),
                                   &registry)));
    }
    return responses;
}

/**
 * The bytes the segment's records would occupy as legacy SoA records:
 * every record's key unpacked back to words and its payload decoded
 * out of the mapping, then re-encoded through the legacy encoder, with
 * the legacy format's 12-byte record frame.
 */
size_t
legacyEquivalentBytes(const std::string &path, size_t *records)
{
    size_t legacy = 0;
    std::vector<int64_t> key;
    core::FrontierCacheSegment::open(path, core::modelFormulaFingerprint())
        .forEach([&](const core::FrontierCacheSegment::Entry &entry) {
            ++*records;
            if (!core::unpackKey(entry.key, key))
                return;  // not a key this binary wrote: no legacy form
            if (entry.kind == core::kCacheRecordRow) {
                if (auto row = core::decodeRowPayload(entry.payload))
                    legacy +=
                        12 + core::encodeLegacyRowRecord(key, *row).size();
            } else if (entry.kind == core::kCacheRecordTrace) {
                core::FrontierTraceImage image;
                if (core::decodeTracePayload(
                        entry.payload, core::traceKeyGroups(key), image))
                    legacy +=
                        12 + core::encodeLegacyTraceRecord(key, image).size();
            }
        });
    return legacy;
}

} // namespace

int
main()
{
    bench::printBenchHeader(
        "Persistent frontier cache: cold vs process-warm vs mmap-warm",
        "ROADMAP 'persist warm state' + shared cache tier");

    namespace fs = std::filesystem;
    fs::path dir = fs::temp_directory_path() / "mclp_cache_reuse_bench";
    fs::remove_all(dir);

    std::vector<std::string> lines = requestSet();

    // Tier 1: cold (no cache directory, fresh registry).
    auto cold_start = std::chrono::steady_clock::now();
    std::vector<std::string> cold;
    {
        core::SessionRegistry registry(8, 0, 1);
        cold = answerAll(registry, lines);
    }
    double cold_ms = bench::msSince(cold_start);

    // Populate the cache directory (timed: cold work + flush cost).
    auto populate_start = std::chrono::steady_clock::now();
    std::vector<std::string> populate;
    std::vector<std::string> process_warm;
    double process_warm_ms;
    {
        auto cache =
            std::make_shared<core::FrontierCache>(dir.string());
        core::SessionRegistry registry(8, 0, 1, cache);
        populate = answerAll(registry, lines);
        // Tier 2: process-warm (same registry, second pass).
        auto warm_start = std::chrono::steady_clock::now();
        process_warm = answerAll(registry, lines);
        process_warm_ms = bench::msSince(warm_start);
    }
    double populate_ms =
        bench::msSince(populate_start) - process_warm_ms;

    // Compaction: the segment image on disk vs the bytes the same
    // records would occupy as legacy SoA records.
    std::string segment_file =
        (dir / core::kFrontierSegmentFileName).string();
    size_t segment_bytes = fs::file_size(segment_file);
    size_t record_count = 0;
    size_t legacy_bytes =
        legacyEquivalentBytes(segment_file, &record_count);

    // Tier 3: mmap-warm (fresh cache + registry on the populated
    // directory: startup maps the segment and validates one checksum,
    // and only the staircases the requests actually touch decode).
    auto mmap_start = std::chrono::steady_clock::now();
    std::vector<std::string> mmap_warm;
    core::FrontierCache::Stats mmap_stats;
    double mmap_load_ms;
    {
        auto cache =
            std::make_shared<core::FrontierCache>(dir.string());
        mmap_load_ms = bench::msSince(mmap_start);
        core::SessionRegistry registry(8, 0, 1, cache);
        mmap_warm = answerAll(registry, lines);
        mmap_stats = cache->stats();
    }
    double mmap_ms = bench::msSince(mmap_start);
    fs::remove_all(dir);

    size_t mismatched = 0;
    for (size_t i = 0; i < lines.size(); ++i) {
        if (cold[i] != populate[i] || cold[i] != process_warm[i] ||
            cold[i] != mmap_warm[i])
            ++mismatched;
    }

    util::TextTable table({"tier", "open (ms)", "total (ms)",
                           "vs cold", "reuse source"});
    table.setTitle("4 mixed requests (AlexNet / SqueezeNet / "
                   "latency ladders + GoogLeNet rung)");
    auto speedup = [&](double ms) {
        return util::strprintf("%.1fx", cold_ms / ms);
    };
    table.addRow({"cold", "-", util::strprintf("%.1f", cold_ms),
                  "1.0x", "none"});
    table.addRow({"populate (+flush)", "-",
                  util::strprintf("%.1f", populate_ms),
                  speedup(populate_ms), "none; writes cache dir"});
    table.addRow({"process-warm", "-",
                  util::strprintf("%.1f", process_warm_ms),
                  speedup(process_warm_ms), "resident sessions"});
    table.addRow({"mmap-warm", util::strprintf("%.1f", mmap_load_ms),
                  util::strprintf("%.1f", mmap_ms), speedup(mmap_ms),
                  "mmap'd segment, lazy decode"});
    table.addNote(util::strprintf(
        "compaction: %zu records, segment image %.2f MB vs legacy SoA "
        "records %.2f MB (%.1fx smaller)",
        record_count, segment_bytes / 1e6, legacy_bytes / 1e6,
        static_cast<double>(legacy_bytes) / segment_bytes));
    table.addNote(util::strprintf(
        "mmap-warm decoded %zu rows / %zu traces on demand; responses "
        "%s",
        mmap_stats.segmentRowHits, mmap_stats.segmentTraceHits,
        mismatched == 0 ? "byte-identical across all tiers"
                        : "MISMATCHED (bug!)"));
    std::printf("%s\n", table.render().c_str());

    bool compaction_ok = segment_bytes * 2 <= legacy_bytes;
    if (!compaction_ok)
        std::printf("FAIL: the segment is not 2x smaller than the "
                    "legacy SoA encoding\n");
    return mismatched == 0 && compaction_ok ? 0 : 1;
}
