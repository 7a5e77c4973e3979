/**
 * @file
 * The batch DSE service: a long-lived dispatcher that owns a
 * SessionRegistry and answers streams of DseRequest lines — the
 * serving layer between the warm session machinery (core/dse_session)
 * and the mclp-serve front end.
 *
 * Requests arrive one per line (see service/dse_codec.h), fan out
 * over a work-stealing pool, and are answered strictly in input
 * order. Answers never depend on concurrency, batch composition, or
 * registry warmth: every response is bit-identical to a cold
 * MultiClpOptimizer run of the same request, which
 * tests/service/test_dse_service.cc pins and the CI smoke re-checks
 * end to end against mclp-opt --response.
 */

#ifndef MCLP_SERVICE_DSE_SERVICE_H
#define MCLP_SERVICE_DSE_SERVICE_H

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "core/dse_request.h"
#include "core/session_registry.h"
#include "util/thread_pool.h"

namespace mclp {
namespace service {

/**
 * Execute one request end to end: resolve the network, build the
 * budget ladder, optimize every rung, and package designs + metrics.
 * With @p registry the run goes through the warm session for the
 * request's (network dims, device, type) key; without it every rung
 * is an independent cold MultiClpOptimizer run. Both paths produce
 * bit-identical responses. User errors (unknown network, impossible
 * budget) come back as an err response, never an exception.
 */
core::DseResponse answerRequest(const core::DseRequest &request,
                                core::SessionRegistry *registry);

/** Best-effort id= recovery from a line that never decoded (shed,
 * overlong, or malformed lines still answer with the client's id
 * when one is visible); "-" otherwise. */
std::string scavengeId(const std::string &line);

/** The line with leading/trailing spaces, tabs, and CRs removed. */
std::string trimmedLine(const std::string &line);

/**
 * Transport-level counters of the event-driven server
 * (service::Server): published here so the `stats` verb — which the
 * service layer answers — can report them when a server attaches
 * them. All relaxed atomics: these are monitoring counters, not
 * synchronization.
 */
struct TransportStats
{
    std::atomic<uint64_t> connsAccepted{0};  ///< lifetime accepts
    std::atomic<uint64_t> connsOpen{0};      ///< currently open
    std::atomic<uint64_t> requests{0};       ///< lines dispatched
    std::atomic<uint64_t> shedBusy{0};       ///< admission rejections
    std::atomic<uint64_t> shedOversize{0};   ///< line-too-long sheds
    std::atomic<uint64_t> timeouts{0};       ///< read/idle closes
};

/** Dispatcher knobs (mclp-serve flags map onto these). */
struct ServiceOptions
{
    /** Request fan-out worker threads (0 = hardware concurrency,
     * 1 = serial). Never changes responses. */
    int threads = 1;

    /** SessionRegistry LRU capacity. */
    size_t maxSessions = 8;

    /** SessionRegistry byte budget (0 = unlimited). */
    size_t maxBytes = 0;

    /** Threads each session spends on its own budget ladder; kept at
     * 1 under concurrent serving so the pool is not oversubscribed. */
    int sessionThreads = 1;

    /** Request lines longer than this are rejected with
     * `err ... msg=line-too-long` instead of buffering unboundedly;
     * applies to the stream path here and is the default for the
     * socket server (service/server.h). */
    size_t maxLineBytes = 1 << 20;

    /** Bypass the registry: every request runs cold (the parity
     * baseline the warm path is diffed against). */
    bool cold = false;

    /**
     * Directory of the persistent frontier cache (mclp-serve
     * --cache-dir); empty disables it. Frontier staircases and
     * memory-walk traces load from here on a miss and flush back on
     * shutdown, so a restarted server starts disk-warm. Responses
     * never change — the cache self-invalidates on format or model
     * changes (core/frontier_cache.h).
     */
    std::string cacheDir;

    /** Byte budget for the cache segment image (mclp-serve
     * --cache-max-mb; 0 = unbounded): flushes evict the
     * least-recently-hit records past it. */
    size_t cacheMaxBytes = 0;

    /** Cache directories of sibling shards (mclp-serve
     * --cache-sibling, repeatable; the sharded front passes each
     * worker its siblings' shard dirs). Their published segments are
     * attached read-only and consulted after this shard's own tiers
     * miss, before a cold build (core/frontier_cache.h). */
    std::vector<std::string> cacheSiblingDirs;

    /** Also flush the persistent cache every N ms from a background
     * timer (mclp-serve --cache-flush-interval-ms; 0 = shutdown-only
     * flush), so siblings and mmap readers pick up new state
     * mid-life. The timer stops before the registry's shutdown flush
     * runs, and FrontierCache::flush() is safe under concurrent
     * callers anyway (snapshot under its mutex, merge under the
     * advisory file lock, atomic rename), so a timer flush racing the
     * drain flush can neither double-write nor tear the segment —
     * tests/service/test_dse_service.cc pins this. */
    int cacheFlushIntervalMs = 0;
};

class CacheFlushTimer;

class DseService
{
  public:
    explicit DseService(ServiceOptions options = {});
    ~DseService();

    /**
     * Answer one input line: a "dse ..." request (decoded, executed,
     * encoded), "stats" (registry/row-store counters), "cache-stats"
     * (persistent-cache counters), or malformed input (an err line).
     * Blank lines and '#' comments return "".
     */
    std::string handleLine(const std::string &line);

    /**
     * Answer a batch of lines concurrently; responses[i] always
     * corresponds to lines[i] (deterministic ordered responses).
     */
    std::vector<std::string>
    handleBatch(const std::vector<std::string> &lines);

    /**
     * Read request lines from @p in until EOF, answer the whole batch
     * over the pool, write one response line each (blank/comment
     * lines produce no output). The stdin/stdout mode of mclp-serve.
     */
    void serveStream(std::istream &in, std::ostream &out);

    /**
     * Listen on a Unix stream socket at @p path through the
     * event-driven server (service/server.h) with its defaults:
     * many concurrent connections, pipelined per-line answers in
     * request order, bounded buffers, overload shedding, graceful
     * drain on a "shutdown" line. Batch clients keep working
     * unchanged — write lines, shutdown(SHUT_WR), read responses
     * until EOF — they simply start receiving answers earlier.
     * Serves until @p max_connections connections were handled (-1 =
     * until drained). A client that dies mid-batch costs only its
     * own connection. Returns 0 on clean exit, 1 on listener errors.
     * Front ends needing the TCP listener or tuned limits construct
     * a service::Server directly.
     */
    int serveSocket(const std::string &path, int max_connections = -1);

    /** Attach (or detach, with nullptr) a server's transport
     * counters; the `stats` verb reports them while attached. */
    void attachTransportStats(const TransportStats *stats)
    {
        transportStats_ = stats;
    }

    /** Flush the persistent frontier cache now (drain path); a no-op
     * without --cache-dir. Also happens at destruction. */
    void flushCache();

    core::SessionRegistry &registry() { return registry_; }

    /** The persistent cache, when --cache-dir enabled one. */
    const std::shared_ptr<core::FrontierCache> &cache() const
    {
        return cache_;
    }

  private:
    ServiceOptions options_;
    std::shared_ptr<core::FrontierCache> cache_;  ///< before registry_
    core::SessionRegistry registry_;
    std::unique_ptr<util::ThreadPool> pool_;
    const TransportStats *transportStats_ = nullptr;
    /** Declared last: destroyed (joined) first, so the timer thread
     * can never call flushCache() into a half-dead service. */
    std::unique_ptr<CacheFlushTimer> flushTimer_;
};

} // namespace service
} // namespace mclp

#endif // MCLP_SERVICE_DSE_SERVICE_H
