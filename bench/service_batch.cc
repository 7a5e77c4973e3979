/**
 * @file
 * Batch DSE service benchmark: the mclp-serve scenario in-process.
 *
 * One DseService answers the same mixed-network request batch twice.
 * The first batch builds every session cold (frontier tables, tiling
 * options, walk traces); the second batch hits the registry and the
 * cross-network frontier-row store, so it measures pure serving
 * overhead + truncation queries. The two outputs must be
 * byte-identical — warmth is a speed property, never a results
 * property — and the timings land in BENCH_optimizer.json.
 *
 * Two eviction-churn legs then run the same 200 never-seen inline
 * networks through a fresh DseService each. The cached leg has a
 * temporary cache directory, the default 8 sessions and a byte budget
 * of kCachedBudgetBytes: sessions are evicted by count or by bytes,
 * and their rows leave with them while the cache holds only the
 * encoded records it will write. The uncached leg has no cache and
 * kUncachedSessions sessions: the first half of the requests fills
 * the registry without evicting (the first quarter times requests
 * alone), and every later request evicts one session while the
 * others stay resident, freeing the evicted session's rows. Evicting
 * must cost only the evicted session, not the rows the process holds:
 * the binary exits non-zero when, on either leg, the mean request
 * time of the last quarter exceeds kChurnRatioLimit times the first
 * quarter's (a same-run ratio, stable on a noisy host). The budget
 * must bound the rows a cached process holds: the binary also exits
 * non-zero when, after any request of the cached leg, the row store's
 * resident bytes exceed the budget by more than the rows of the one
 * session the registry must keep (what a fresh uncached service holds
 * after answering that request alone). And the pending log's payloads
 * must wait on disk, not in the heap: the binary exits non-zero when
 * the process's RssAnon grows over the cached leg, up to its last
 * request, by more than half the payload bytes the leg noted
 * (bytes_pending before the shutdown flush), a same-run ratio too.
 *
 * A replay leg then sends the first kReplayNetworks of those networks
 * kReplayPasses times over, in order, through a cached service of the
 * same shape with no flush before its shutdown: with more networks
 * than sessions, every request after the first pass re-acquires an
 * evicted session whose rows wait in the cache's pending log. The
 * binary exits non-zero when the log ever holds more records, or the
 * leg builds more rows cold, than an uncached service with room for
 * every session builds answering each network once: a released row
 * needed again must decode from its pending record, not be rebuilt
 * and logged again.
 */

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <numeric>

#include "bench_common.h"
#include "core/frontier_cache.h"
#include "core/session_registry.h"
#include "service/dse_service.h"
#include "util/math.h"
#include "util/string_utils.h"
#include "util/table.h"

namespace {

using namespace mclp;

constexpr int kChurnNetworks = 200;
/** Session cap of the uncached churn leg: half the networks. */
constexpr size_t kUncachedSessions = 100;
/** Largest last-quarter / first-quarter mean request time allowed. */
constexpr double kChurnRatioLimit = 2.0;
/** Byte budget of the cached legs: the rows of a few sessions. */
constexpr size_t kCachedBudgetBytes = size_t{8} << 20;
/** Networks of the replay leg: twice the default session cap. */
constexpr size_t kReplayNetworks = 16;
/** Times the replay leg sends its networks. */
constexpr int kReplayPasses = 4;
/** Largest RssAnon growth over the cached churn leg, as a share of the
 * payload bytes it noted. */
constexpr double kPendingRssShareLimit = 0.5;

std::vector<std::string>
mixedBatch()
{
    // Two AlexNet ladders (different devices), a SqueezeNet ladder, a
    // latency-mode ladder, and a GoogLeNet rung (the 57-layer stress
    // case; inception twins make it the heaviest intra-network user
    // of the shared frontier-row store). Cross-*network* row sharing
    // is exercised by tests/core/test_session_registry.cc.
    return {
        "dse id=a690 net=alexnet device=690t budgets=500,1000,2240,2880",
        "dse id=a485 net=alexnet device=485t mode=single "
        "budgets=250,750,2000",
        "dse id=s690 net=squeezenet device=690t type=fixed mhz=170 "
        "budgets=1000,2000,2880",
        "dse id=alat net=alexnet budgets=500,2880 mode=latency",
        "dse id=g690 net=googlenet device=690t budgets=2880",
    };
}

/**
 * Request @p index of the churn leg: a never-seen inline network
 * (its first layer's input channel count is the index's own), 12-24
 * layers of zoo-like dims, a two-rung ladder on the 690T.
 */
std::string
churnLine(util::SplitMix64 &rng, int index)
{
    static const int64_t kChannels[] = {16, 32, 48, 64, 96, 128, 192, 256};
    int64_t layers = rng.nextInt(12, 24);
    int64_t spatial = 28;
    int64_t n = 3 + index;
    std::string spec;
    for (int64_t l = 0; l < layers; ++l) {
        int64_t stride = 1;
        if (l > 0 && spatial > 7 && rng.nextInt(0, layers - 1) < 2) {
            spatial /= 2;
            stride = 2;
        }
        int64_t m = kChannels[rng.nextInt(0, 7)];
        spec += util::strprintf(
            "%sc%lld:%lld:%lld:%lld:%lld:%lld:%lld", l == 0 ? "" : ";",
            static_cast<long long>(l), static_cast<long long>(n),
            static_cast<long long>(m), static_cast<long long>(spatial),
            static_cast<long long>(spatial), rng.nextInt(0, 2) ? 3LL : 1LL,
            static_cast<long long>(stride));
        n = m;
    }
    return util::strprintf(
        "dse id=c%d net=churn%d device=690t budgets=%lld,2880 layers=%s",
        index, index, static_cast<long long>(rng.nextInt(3, 20) * 100),
        spec.c_str());
}

/** Resident anonymous memory of this process (RssAnon), in bytes. */
size_t
residentAnonBytes()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.rfind("RssAnon:", 0) == 0)
            return std::stoul(line.substr(8)) * 1024;
    return 0;
}

/** Row-store bytes a fresh uncached service holds after answering
 * @p line alone: the rows of that one session. */
size_t
aloneRowBytes(const std::string &line)
{
    service::DseService alone{service::ServiceOptions()};
    alone.handleLine(line);
    return alone.registry().rowStore()->memoryBytes();
}

/**
 * One eviction-churn leg over @p lines through a service of
 * @p max_sessions sessions and a byte budget of @p max_bytes (0 =
 * none), with a temporary cache directory when @p cached; true when
 * every answer was an ok line, the last/first quarter ratio stayed
 * within kChurnRatioLimit, under a budget no request left the row
 * store over it by more than its own session's rows, and with a cache
 * RssAnon grew by at most kPendingRssShareLimit of the payload bytes
 * pending at the end.
 */
bool
runChurn(const std::vector<std::string> &lines, bool cached,
         size_t max_sessions, size_t max_bytes)
{
    namespace fs = std::filesystem;
    fs::path dir = fs::temp_directory_path() /
                   ("mclp_service_batch_" + std::to_string(::getpid()));
    fs::remove_all(dir);

    std::vector<double> request_ms;
    size_t failed = 0;
    size_t evictions = 0;
    size_t peak_rows = 0;   ///< largest resident row bytes seen
    size_t over_budget = 0; ///< requests that broke the byte gate
    size_t rss_before = residentAnonBytes();
    size_t rss_growth = 0;     ///< RssAnon growth up to the last request
    size_t pending_bytes = 0;  ///< payload bytes noted, before the flush
    {
        service::ServiceOptions options;
        options.maxSessions = max_sessions;
        options.maxBytes = max_bytes;
        if (cached)
            options.cacheDir = dir.string();
        service::DseService service(options);
        const core::FrontierRowStore &store =
            *service.registry().rowStore();
        for (const std::string &line : lines) {
            auto start = std::chrono::steady_clock::now();
            std::string answer = service.handleLine(line);
            request_ms.push_back(bench::msSince(start));
            if (answer.rfind("ok ", 0) != 0)
                ++failed;
            if (max_bytes == 0)
                continue;
            // Over the budget, the registry keeps only the session it
            // just answered from, so the excess may be that session's
            // rows and nothing else.
            size_t resident = store.memoryBytes();
            peak_rows = std::max(peak_rows, resident);
            if (resident > max_bytes &&
                resident - max_bytes > aloneRowBytes(line))
                ++over_budget;
        }
        evictions = service.registry().stats().evictions;
        if (cached) {
            size_t rss_after = residentAnonBytes();
            rss_growth = rss_after - std::min(rss_after, rss_before);
            pending_bytes = service.cache()->stats().bytesPending;
        }
    }  // the service flushes the cache here, outside the timings
    fs::remove_all(dir);

    double all = std::accumulate(request_ms.begin(), request_ms.end(), 0.0) /
                 static_cast<double>(request_ms.size());
    size_t quarter = request_ms.size() / 4;
    double first =
        std::accumulate(request_ms.begin(), request_ms.begin() + quarter,
                        0.0) /
        static_cast<double>(quarter);
    double last = std::accumulate(request_ms.end() - quarter,
                                  request_ms.end(), 0.0) /
                  static_cast<double>(quarter);
    double ratio = last / first;
    bool rss_ok = static_cast<double>(rss_growth) <=
                  kPendingRssShareLimit * static_cast<double>(pending_bytes);
    bool pass = failed == 0 && ratio <= kChurnRatioLimit &&
                over_budget == 0 && rss_ok;

    util::TextTable table({"quarter", "requests", "mean request (ms)"});
    table.setTitle(util::strprintf(
        "eviction churn: %zu never-seen networks, %s, %zu sessions%s",
        lines.size(), cached ? "--cache-dir" : "no cache", max_sessions,
        max_bytes > 0
            ? util::strprintf(", %zu KiB budget", max_bytes / 1024).c_str()
            : ""));
    table.addRow({"first", std::to_string(quarter),
                  util::strprintf("%.2f", first)});
    table.addRow({"last", std::to_string(quarter),
                  util::strprintf("%.2f", last)});
    table.addRow({"all", std::to_string(request_ms.size()),
                  util::strprintf("%.2f", all)});
    table.addNote(util::strprintf(
        "last/first %.2f (limit %.1f): %s; %zu evictions, %zu failed "
        "answers",
        ratio, kChurnRatioLimit, pass ? "PASS" : "FAIL", evictions,
        failed));
    if (max_bytes > 0)
        table.addNote(util::strprintf(
            "resident rows peaked at %zu KiB; %zu requests left them over "
            "the budget by more than their own session's rows",
            peak_rows / 1024, over_budget));
    if (cached)
        table.addNote(util::strprintf(
            "RssAnon grew %zu KiB while %zu KiB of row payloads waited "
            "for the flush (limit %.0f%% of them): %s",
            rss_growth / 1024, pending_bytes / 1024,
            100.0 * kPendingRssShareLimit, rss_ok ? "PASS" : "FAIL"));
    std::printf("%s\n", table.render().c_str());
    return pass;
}

/**
 * The replay leg over @p networks (see the file comment); true when
 * every answer was an ok line, and neither the pending log nor the
 * cold builds ever exceeded the rows the networks need.
 */
bool
runReplay(const std::vector<std::string> &networks)
{
    // The rows the networks need: what an uncached service that never
    // evicts builds answering each once (a row it releases at a
    // smaller cap and needs again counts twice, so this bounds the
    // distinct rows from above).
    size_t needed = 0;
    {
        service::ServiceOptions options;
        options.maxSessions = networks.size();
        service::DseService reference(options);
        for (const std::string &line : networks)
            reference.handleLine(line);
        needed = reference.registry().rowStore()->stats().misses;
    }

    namespace fs = std::filesystem;
    fs::path dir = fs::temp_directory_path() /
                   ("mclp_service_replay_" + std::to_string(::getpid()));
    fs::remove_all(dir);
    std::vector<double> pass_ms(kReplayPasses, 0.0);
    size_t failed = 0;
    size_t peak_pending = 0;
    core::FrontierRowStore::Stats rows;
    {
        service::ServiceOptions options;
        options.maxBytes = kCachedBudgetBytes;
        options.cacheDir = dir.string();
        service::DseService service(options);
        for (int pass = 0; pass < kReplayPasses; ++pass) {
            for (const std::string &line : networks) {
                auto start = std::chrono::steady_clock::now();
                if (service.handleLine(line).rfind("ok ", 0) != 0)
                    ++failed;
                pass_ms[pass] += bench::msSince(start);
                peak_pending = std::max(
                    peak_pending, service.cache()->stats().rowsPending);
            }
        }
        rows = service.registry().rowStore()->stats();
    }  // the shutdown flush, outside the timings
    fs::remove_all(dir);
    bool pass = failed == 0 && peak_pending <= needed &&
                rows.misses <= needed;

    util::TextTable table({"pass", "requests", "mean request (ms)"});
    table.setTitle(util::strprintf(
        "replay: %zu networks x %d passes, --cache-dir, %zu sessions, "
        "%zu KiB budget, no flush",
        networks.size(), kReplayPasses,
        service::ServiceOptions().maxSessions, kCachedBudgetBytes / 1024));
    for (int p = 0; p < kReplayPasses; ++p)
        table.addRow({std::to_string(p + 1), std::to_string(networks.size()),
                      util::strprintf("%.2f",
                                      pass_ms[p] / static_cast<double>(
                                                       networks.size()))});
    table.addNote(util::strprintf(
        "rows_pending peaked at %zu and %zu rows were built cold, against "
        "%zu rows needed: %s; %zu failed answers",
        peak_pending, rows.misses, needed, pass ? "PASS" : "FAIL", failed));
    size_t acquisitions = rows.hits + rows.misses;
    table.addNote(util::strprintf(
        "%zu of %zu row acquisitions (%.1f%%) decoded a released row from "
        "the pending log",
        rows.mmapHits, acquisitions,
        100.0 * static_cast<double>(rows.mmapHits) /
            static_cast<double>(std::max<size_t>(acquisitions, 1))));
    std::printf("%s\n", table.render().c_str());
    return pass;
}

} // namespace

int
main()
{
    bench::printBenchHeader(
        "Batch DSE service: cold first batch vs warm second batch",
        "Section 4.3 (service harness)");

    service::ServiceOptions options;
    options.threads = 1;  // measure serving cost, not parallelism
    if (const char *env = std::getenv("MCLP_BENCH_THREADS"))
        options.threads = std::atoi(env);
    service::DseService service(options);
    std::vector<std::string> batch = mixedBatch();

    auto cold_start = std::chrono::steady_clock::now();
    std::vector<std::string> first = service.handleBatch(batch);
    double cold_ms = bench::msSince(cold_start);

    auto warm_start = std::chrono::steady_clock::now();
    std::vector<std::string> second = service.handleBatch(batch);
    double warm_ms = bench::msSince(warm_start);

    size_t mismatched = 0;
    for (size_t i = 0; i < batch.size(); ++i) {
        if (first[i] != second[i])
            ++mismatched;
    }

    core::SessionRegistry::Stats reg = service.registry().stats();
    core::FrontierRowStore::Stats rows =
        service.registry().rowStore()->stats();

    util::TextTable table({"batch", "requests", "wallclock (ms)",
                           "per request (ms)"});
    table.setTitle("one DseService, mixed AlexNet / SqueezeNet / "
                   "GoogLeNet batch");
    table.addRow({"first (cold sessions)",
                  std::to_string(batch.size()),
                  util::strprintf("%.1f", cold_ms),
                  util::strprintf("%.2f",
                                  cold_ms /
                                      static_cast<double>(
                                          batch.size()))});
    table.addRow({"second (warm registry)",
                  std::to_string(batch.size()),
                  util::strprintf("%.1f", warm_ms),
                  util::strprintf("%.2f",
                                  warm_ms /
                                      static_cast<double>(
                                          batch.size()))});
    table.addNote(util::strprintf(
        "speedup %.1fx; responses %s", cold_ms / warm_ms,
        mismatched == 0 ? "byte-identical" : "MISMATCHED (bug!)"));
    table.addNote(util::strprintf(
        "registry: %zu sessions, %zu hits / %zu misses, ~%zu KiB",
        reg.sessions, reg.hits, reg.misses, reg.bytes / 1024));
    table.addNote(util::strprintf(
        "frontier-row store: %zu rows, %zu hits / %zu builds",
        rows.rows, rows.hits, rows.misses));
    std::printf("%s\n", table.render().c_str());

    util::SplitMix64 rng(20170624);
    std::vector<std::string> lines;
    for (int i = 0; i < kChurnNetworks; ++i)
        lines.push_back(churnLine(rng, i));
    bool cached_ok = runChurn(lines, true,
                              service::ServiceOptions().maxSessions,
                              kCachedBudgetBytes);
    bool uncached_ok = runChurn(lines, false, kUncachedSessions, 0);
    bool replay_ok = runReplay(
        std::vector<std::string>(lines.begin(),
                                 lines.begin() + kReplayNetworks));
    return mismatched == 0 && cached_ok && uncached_ok && replay_ok ? 0
                                                                     : 1;
}
