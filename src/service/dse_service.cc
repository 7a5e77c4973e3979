#include "service/dse_service.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <istream>
#include <map>
#include <mutex>
#include <ostream>
#include <thread>

#include "core/frontier_cache.h"
#include "core/schedule.h"
#include "model/bram_model.h"
#include "model/dsp_model.h"
#include "service/dse_codec.h"
#include "util/logging.h"
#include "util/prof.h"
#include "util/string_utils.h"

namespace mclp {
namespace service {

std::string
scavengeId(const std::string &line)
{
    size_t pos = line.find("id=");
    if (pos == std::string::npos ||
        (pos > 0 && line[pos - 1] != ' '))
        return "-";
    size_t end = line.find(' ', pos);
    std::string id = line.substr(
        pos + 3, end == std::string::npos ? std::string::npos
                                          : end - pos - 3);
    return id.empty() ? "-" : id;
}

std::string
trimmedLine(const std::string &line)
{
    size_t begin = line.find_first_not_of(" \t\r");
    if (begin == std::string::npos)
        return "";
    size_t end = line.find_last_not_of(" \t\r");
    return line.substr(begin, end - begin + 1);
}

core::DseResponse
answerRequest(const core::DseRequest &request,
              core::SessionRegistry *registry, util::ThreadPool *pool)
{
    core::DseResponse response;
    response.id = request.id.empty() ? "-" : request.id;
    try {
        request.validate();
        // Joint requests (Section 4.3): resolveNetwork() returns the
        // weight-expanded concatenation, so from here the run is
        // indistinguishable from a single-network request over the
        // same layers — the registry keys it by the concatenated dims
        // signature, and the shared FrontierRowStore answers any
        // layer range already built by a constituent network's solo
        // session. The spans let clients attribute each CLP's global
        // layer indices back to the originating sub-network.
        nn::Network network =
            core::resolveNetwork(request, &response.subnets);
        response.network = network.name();
        std::vector<fpga::ResourceBudget> budgets =
            core::requestBudgets(request);
        core::OptimizerOptions options = core::requestOptions(request);
        options.pool = pool;

        std::vector<core::OptimizationResult> results;
        std::shared_ptr<core::DseSession> session;  // pins its network
        const nn::Network *result_network = &network;
        if (registry) {
            // The ladder maximum doubles as the admission-control
            // hint: the registry can cost the session before building
            // it (and evict or reject under a byte budget).
            int64_t max_dsp = 0;
            for (const fpga::ResourceBudget &budget : budgets)
                max_dsp = std::max(max_dsp, budget.dspSlices);
            session = registry->session(network, request.device,
                                        request.type, max_dsp);
            results = session->sweep(budgets, options);
            // Build the response against the network copy the session
            // owns (identical layers; the handle keeps it alive).
            result_network = &session->network();
        } else {
            results.reserve(budgets.size());
            for (const fpga::ResourceBudget &budget : budgets)
                results.push_back(
                    core::MultiClpOptimizer(network, request.type,
                                            budget, options)
                        .run());
        }

        response.points.reserve(results.size());
        for (size_t i = 0; i < results.size(); ++i) {
            core::DsePoint point;
            point.budget = budgets[i];
            point.design = core::canonicalizeSchedule(
                results[i].design, *result_network);
            point.epochCycles = results[i].metrics.epochCycles;
            point.dspUsed = model::designDsp(point.design);
            point.bramUsed =
                model::designBram(point.design, *result_network);
            point.schedule =
                core::analyzeSchedule(point.design, *result_network);
            response.points.push_back(std::move(point));
        }
        response.ok = true;
    } catch (const util::FatalError &err) {
        response.ok = false;
        response.points.clear();
        // Spans may have been filled before a later step threw; an
        // error response must not attribute a network it never
        // optimized.
        response.subnets.clear();
        response.error = err.what();
    }
    return response;
}

/**
 * Periodically publishes the persistent frontier cache while the
 * service lives, so a crash or SIGKILL loses at most one interval of
 * new state: a respawned process starts warm from the segment instead
 * of waiting for a drain that never came. flush() snapshots
 * under the cache's own mutex and merges under the advisory file
 * lock, so it is safe alongside request execution and alongside the
 * drain-path flushCache() call.
 */
class CacheFlushTimer
{
  public:
    CacheFlushTimer(DseService &service, int interval_ms)
        : service_(service), intervalMs_(interval_ms)
    {
        thread_ = std::thread([this] { run(); });
    }

    ~CacheFlushTimer()
    {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            stop_ = true;
        }
        wake_.notify_all();
        thread_.join();
    }

  private:
    void
    run()
    {
        std::unique_lock<std::mutex> lock(mutex_);
        while (!stop_) {
            if (wake_.wait_for(lock,
                               std::chrono::milliseconds(intervalMs_),
                               [this] { return stop_; }))
                break;
            lock.unlock();
            service_.flushCache();
            lock.lock();
        }
    }

    DseService &service_;
    int intervalMs_;
    std::mutex mutex_;
    std::condition_variable wake_;
    bool stop_ = false;
    std::thread thread_;
};

DseService::DseService(ServiceOptions options)
    : options_(options),
      cache_(options.cacheDir.empty()
                 ? nullptr
                 : std::make_shared<core::FrontierCache>(
                       options.cacheDir, options.cacheMaxBytes)),
      registry_(options.maxSessions, options.maxBytes, 1, cache_)
{
    if (cache_ && options_.cacheFlushIntervalMs > 0)
        flushTimer_ = std::make_unique<CacheFlushTimer>(
            *this, options_.cacheFlushIntervalMs);
    // Phase counters feed the stats verb; the scopes cost two clock
    // reads per coarse phase, so always-on is fine for a server.
    util::prof::setEnabled(true);
}

DseService::~DseService()
{
    // Stop the timer explicitly before any member teardown begins:
    // flushTimer_ is the last-declared member, but being explicit
    // here keeps the invariant obvious — no flush can start after
    // this line, and one already in flush() completes safely (the
    // cache outlives the registry's own shutdown flush).
    flushTimer_.reset();
}

std::string
DseService::handleLine(const std::string &line)
{
    std::string text = trimmedLine(line);
    if (text.empty() || text[0] == '#')
        return "";
    if (text == "stats") {
        core::SessionRegistry::Stats reg = registry_.stats();
        core::FrontierRowStore::Stats rows =
            registry_.rowStore()->stats();
        std::string stats = util::strprintf(
            "ok stats sessions=%zu bytes=%zu hits=%zu misses=%zu "
            "evictions=%zu rows=%zu row_hits=%zu row_misses=%zu "
            "row_mmap_hits=%zu",
            reg.sessions, reg.bytes, reg.hits, reg.misses,
            reg.evictions, rows.rows, rows.hits, rows.misses,
            rows.mmapHits);
        // Per-session hit rates: NETWORK[@DEVICE]:HITS:USES per
        // resident session, '-' when nothing is warm. Deterministic
        // order (registry key order).
        stats += " session_rates=";
        std::vector<core::SessionRegistry::SessionInfo> infos =
            registry_.sessionInfos();
        if (infos.empty()) {
            stats += "-";
        } else {
            for (size_t i = 0; i < infos.size(); ++i) {
                if (i > 0)
                    stats += ",";
                stats += infos[i].network;
                if (!infos[i].device.empty())
                    stats += "@" + infos[i].device;
                stats += util::strprintf(":%zu:%zu", infos[i].hits,
                                         infos[i].uses);
            }
        }
        if (transportStats_) {
            const TransportStats &t = *transportStats_;
            stats += util::strprintf(
                " conns_accepted=%llu conns_open=%llu requests=%llu "
                "shed_busy=%llu shed_oversize=%llu timeouts=%llu",
                static_cast<unsigned long long>(t.connsAccepted.load()),
                static_cast<unsigned long long>(t.connsOpen.load()),
                static_cast<unsigned long long>(t.requests.load()),
                static_cast<unsigned long long>(t.shedBusy.load()),
                static_cast<unsigned long long>(t.shedOversize.load()),
                static_cast<unsigned long long>(t.timeouts.load()));
        }
        return stats + " " + util::prof::statsTokens();
    }
    if (text == "cache-stats") {
        if (!cache_)
            return "ok cache-stats enabled=0";
        core::FrontierCache::Stats stats = cache_->stats();
        core::FrontierRowStore::Stats rows =
            registry_.rowStore()->stats();
        // The tier ladder, cheapest first: process = answered from
        // the row store's in-memory map, mmap = decoded on demand
        // from the read-only segment, cold = built from scratch.
        return util::strprintf(
            "ok cache-stats enabled=1 generation=%llu "
            "segment_mapped=%d segment_entries=%zu segment_bytes=%zu "
            "tier_process=%zu tier_mmap=%zu tier_cold=%zu "
            "segment_row_hits=%zu segment_trace_hits=%zu "
            "rows_pending=%zu traces_noted=%zu flushes=%zu "
            "evicted_last_flush=%zu clean=%d",
            static_cast<unsigned long long>(stats.generation),
            stats.segmentMapped ? 1 : 0, stats.segmentEntries,
            stats.segmentBytes, rows.hits - rows.mmapHits,
            rows.mmapHits, rows.misses, stats.segmentRowHits,
            stats.segmentTraceHits, stats.rowsPending,
            stats.tracesNoted, stats.flushes, stats.evictedLastFlush,
            stats.loadedClean ? 1 : 0);
    }
    if (text == "shutdown")
        return "ok shutdown";
    try {
        return encodeResponse(answerRequest(
            decodeRequest(text), options_.cold ? nullptr : &registry_));
    } catch (const util::FatalError &err) {
        core::DseResponse response;
        response.id = scavengeId(text);
        response.error = err.what();
        return encodeResponse(response);
    } catch (const std::exception &err) {
        // A long-lived server contains everything — allocation
        // failures, internal panics — as an err line; one bad request
        // must not take down the batch (and parallelFor's fn must not
        // throw).
        core::DseResponse response;
        response.id = scavengeId(text);
        response.error =
            std::string("internal error: ") + err.what();
        return encodeResponse(response);
    }
}

std::vector<std::string>
DseService::handleBatch(const std::vector<std::string> &lines)
{
    std::vector<std::string> responses(lines.size());
    // handleLine never throws, as parallelFor requires.
    util::ThreadPool pool(options_.threads);
    pool.parallelFor(lines.size(), [&](size_t i) {
        responses[i] = handleLine(lines[i]);
    });
    return responses;
}

namespace {

/**
 * getline with a hard cap: reads the next input line into @p line; a
 * line past @p cap bytes is truncated to cap + 1 bytes (the caller's
 * overlong signal, with enough prefix to scavenge an id=) and the
 * rest is discarded up to its newline, so hostile input can never
 * balloon the buffer. False at EOF with nothing read.
 */
bool
readCappedLine(std::istream &in, std::string *line, size_t cap)
{
    line->clear();
    bool any = false;
    bool discarding = false;
    char ch;
    while (in.get(ch)) {
        any = true;
        if (ch == '\n')
            return true;
        if (discarding)
            continue;
        line->push_back(ch);
        if (line->size() > cap)
            discarding = true;
    }
    return any;
}

} // namespace

void
DseService::serveStream(std::istream &in, std::ostream &out)
{
    std::vector<std::string> lines;
    // Overlong rejections, pinned to their input slot so the batch
    // still answers strictly in input order (same cap and same wire
    // answer as the socket path).
    std::map<size_t, std::string> rejected;
    std::string line;
    while (readCappedLine(in, &line, options_.maxLineBytes)) {
        if (line.size() > options_.maxLineBytes) {
            rejected[lines.size()] =
                "err id=" + scavengeId(line) + " msg=line-too-long";
            lines.push_back("");
        } else {
            lines.push_back(line);
        }
    }
    std::vector<std::string> responses = handleBatch(lines);
    for (size_t i = 0; i < responses.size(); ++i) {
        auto it = rejected.find(i);
        const std::string &response =
            it != rejected.end() ? it->second : responses[i];
        if (!response.empty())
            out << response << '\n';
    }
    out.flush();
}

void
DseService::flushCache()
{
    if (cache_)
        cache_->flush();
}

} // namespace service
} // namespace mclp
