/**
 * @file
 * The session registry: one long-lived process owning warm DseSessions
 * for many (network, device, data type) keys at once — the dispatcher
 * state behind the batch DSE service (tools/mclp_serve.cc).
 *
 * Sessions are keyed by the *dims signature* of a network, not its
 * name, so renamed or inline-submitted copies of the same CNN reuse
 * one session; and every session shares one FrontierRowStore, so
 * dims-identical layer ranges (fire modules repeated across
 * SqueezeNet variants, inception twins across GoogLeNet tweaks) are
 * built once process-wide even across *different* networks. Joint
 * multi-network requests (Section 4.3) key their session by the
 * *concatenated* dims signature — distinct from every constituent's
 * key — while their layer ranges that fall inside one sub-network
 * are dims-identical to that network's solo ranges, so a joint
 * session reuses frontier rows (and on-disk FrontierCache records)
 * built by earlier single-network sessions, and vice versa
 * (tests/core/test_session_registry.cc pins both directions). The
 * registry evicts least-recently-used sessions beyond a session-count
 * cap or a resident-byte budget; eviction never changes results, only
 * how warm the next request starts (which
 * tests/core/test_session_registry.cc pins).
 */

#ifndef MCLP_CORE_SESSION_REGISTRY_H
#define MCLP_CORE_SESSION_REGISTRY_H

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/dse_session.h"
#include "fpga/data_type.h"
#include "nn/network.h"

namespace mclp {
namespace core {

/** Registry key: network dims signature x device context x type. */
struct SessionKey
{
    std::string signature;  ///< core::networkSignature()
    std::string device;     ///< catalog short name, "" = ladder rule
    fpga::DataType type = fpga::DataType::Float32;

    bool operator<(const SessionKey &other) const
    {
        if (signature != other.signature)
            return signature < other.signature;
        if (device != other.device)
            return device < other.device;
        return type < other.type;
    }
};

class SessionRegistry
{
  public:
    struct Stats
    {
        size_t hits = 0;       ///< acquisitions answered warm
        size_t misses = 0;     ///< acquisitions that built a session
        size_t evictions = 0;  ///< sessions dropped by LRU/byte caps
        size_t sessions = 0;   ///< currently resident sessions
        size_t bytes = 0;      ///< rough resident bytes (with store)
    };

    /** Per-resident-session acquisition counters (the `stats` verb's
     * session_rates= field). An eviction takes its counters with it:
     * these describe what is warm *now*. */
    struct SessionInfo
    {
        std::string network;  ///< resolved network name
        std::string device;   ///< "" = ladder rule
        fpga::DataType type = fpga::DataType::Float32;
        size_t uses = 0;      ///< acquisitions of this session
        size_t hits = 0;      ///< of those, answered warm (uses - 1)
    };

    /**
     * @param max_sessions LRU capacity (>= 1; clamped).
     * @param max_bytes rough resident-byte budget across all sessions
     * plus the shared row store; 0 = unlimited. Enforced after each
     * acquisition, never against the session just returned, and — for
     * acquisitions carrying a budget hint — *before* a new session is
     * built (see session()). Each check reads the store's running
     * byte total and walks only the resident sessions, never the
     * store's rows. Rows count with or without a persistent cache:
     * either way an evicted session's rows leave with its tables. A
     * cache's pending write-back records do not count (only a flush
     * frees them).
     * @param cache optional persistent frontier cache: attached to
     * the shared row store and to every session's tradeoff-curve
     * cache, and flushed when the registry dies. Warmth only — never
     * results.
     *
     * The unnamed int is ignored: sessions own no threads, and a run
     * borrows its front end's pool through OptimizerOptions::pool. It
     * stays only for callers that still pass it.
     */
    explicit SessionRegistry(size_t max_sessions = 8,
                             size_t max_bytes = 0, int = 1,
                             std::shared_ptr<FrontierCache> cache =
                                 nullptr);

    /** Flushes the persistent cache (when attached). */
    ~SessionRegistry();

    /**
     * The warm session for (@p network dims, @p device, @p type),
     * created on first use (the registry copies the network, so the
     * caller's copy may die). The returned handle pins the session:
     * eviction only drops the registry's reference, so in-flight
     * requests on an evicted session finish safely.
     *
     * @p max_dsp_budget is the admission-control hint: the largest
     * DSP budget the caller will run on this session (0 = unknown).
     * Under a byte budget, a miss with a hint first evicts LRU
     * sessions until the estimated cost of the new session fits —
     * so a burst of giant networks can no longer transiently blow
     * the cap — and fatal()s (a user error, not a crash) when the
     * estimate alone exceeds the whole budget.
     */
    std::shared_ptr<DseSession> session(const nn::Network &network,
                                        const std::string &device,
                                        fpga::DataType type,
                                        int64_t max_dsp_budget = 0);

    /**
     * Rough pre-build cost estimate of a warm session: layer count x
     * the ladder maximum's MAC-unit cap x the staircase point size
     * (frontier rows dominate warm-session memory, and a row's total
     * point count is bounded by the units cap because DSP strictly
     * increases along a staircase). Proportionality is what admission
     * control needs, not exactness.
     */
    static size_t estimateSessionBytes(const nn::Network &network,
                                       fpga::DataType type,
                                       int64_t max_dsp_budget);

    /** The cross-network frontier-row pool all sessions share. */
    const std::shared_ptr<FrontierRowStore> &rowStore() const
    {
        return store_;
    }

    Stats stats();

    /** One SessionInfo per resident session, ordered by key (so the
     * `stats` verb's session_rates= field is deterministic). */
    std::vector<SessionInfo> sessionInfos();

    /** Rough resident bytes (sessions + shared row store). */
    size_t memoryBytes();

  private:
    struct Entry
    {
        nn::Network network;  ///< owned; the session references it
        std::unique_ptr<DseSession> session;
        uint64_t lastUse = 0;
        size_t uses = 0;  ///< acquisitions (first one is the miss)
    };

    /** Enforce the caps; caller holds mutex_. @p keep is never
     * evicted (the entry just acquired). */
    void enforceCapsLocked(const Entry *keep);

    /** Evict the least-recently-used entry other than @p keep; false
     * when nothing evictable is left. Caller holds mutex_. When no
     * handle holds the session it dies here, and its tables release
     * their rows to the store (see the lock order on mutex_). */
    bool evictLruLocked(const Entry *keep);

    size_t memoryBytesLocked();

    /**
     * Guards the entries and counters. Lock order: registry mutex_ →
     * a session's own locks (its caches, its table rows) →
     * FrontierRowStore, or FrontierCache (the store releases its
     * shard mutex before calling into the cache, so the two never
     * nest). A session's tables release
     * their rows to the store on whichever thread drops its last
     * reference: inside mutex_ when an eviction drops an unheld
     * session, outside it when a request drops the last handle of an
     * already-evicted one. The store and the cache never call back
     * into the registry, so the order never inverts.
     */
    std::mutex mutex_;
    size_t maxSessions_;
    size_t maxBytes_;
    std::shared_ptr<FrontierCache> cache_;
    std::shared_ptr<FrontierRowStore> store_;
    uint64_t tick_ = 0;
    std::map<SessionKey, std::shared_ptr<Entry>> entries_;
    size_t hits_ = 0;
    size_t misses_ = 0;
    size_t evictions_ = 0;
};

} // namespace core
} // namespace mclp

#endif // MCLP_CORE_SESSION_REGISTRY_H
