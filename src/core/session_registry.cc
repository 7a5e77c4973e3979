#include "core/session_registry.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "core/dse_request.h"
#include "core/frontier_cache.h"
#include "model/dsp_model.h"
#include "util/logging.h"

namespace mclp {
namespace core {

SessionRegistry::SessionRegistry(size_t max_sessions, size_t max_bytes,
                                 int, std::shared_ptr<FrontierCache> cache)
    : maxSessions_(std::max<size_t>(1, max_sessions)),
      maxBytes_(max_bytes), cache_(std::move(cache)),
      store_(std::make_shared<FrontierRowStore>(cache_))
{
}

SessionRegistry::~SessionRegistry()
{
    // Write-back on session close: every tool and the service own
    // their registry, so registry death is the one reliable "process
    // is done exploring" hook.
    if (cache_)
        cache_->flush();
}

namespace {

bool
sameDims(const nn::Network &a, const nn::Network &b)
{
    if (a.numLayers() != b.numLayers())
        return false;
    for (size_t i = 0; i < a.numLayers(); ++i) {
        if (!a.layer(i).sameShape(b.layer(i)))
            return false;
    }
    return true;
}

} // namespace

size_t
SessionRegistry::estimateSessionBytes(const nn::Network &network,
                                      fpga::DataType type,
                                      int64_t max_dsp_budget)
{
    if (max_dsp_budget <= 0)
        return 0;
    // Saturating arithmetic: the codec deliberately accepts budgets
    // up to INT64_MAX, and a wrapped product here would silently skip
    // the very admission check such a request exists to trigger.
    uint64_t units =
        static_cast<uint64_t>(model::macBudget(max_dsp_budget, type));
    uint64_t bytes;
    if (__builtin_mul_overflow(units,
                               uint64_t{ShapeFrontier::kBytesPerPoint},
                               &bytes) ||
        __builtin_mul_overflow(
            bytes, static_cast<uint64_t>(network.numLayers()), &bytes) ||
        bytes > std::numeric_limits<size_t>::max())
        return std::numeric_limits<size_t>::max();
    return static_cast<size_t>(bytes);
}

std::shared_ptr<DseSession>
SessionRegistry::session(const nn::Network &network,
                         const std::string &device, fpga::DataType type,
                         int64_t max_dsp_budget)
{
    SessionKey key{networkSignature(network), device, type};
    std::lock_guard<std::mutex> lock(mutex_);
    size_t estimate = 0;
    if (maxBytes_ > 0) {
        // Admission control, checked on hits and misses alike so the
        // answer never depends on warmth: a request whose estimated
        // warm state could never fit the whole byte budget is
        // rejected as the user error it is — even when its session
        // is already resident (serving it would grow that session's
        // tables to the oversized cap, re-opening the overshoot this
        // check exists to prevent).
        estimate = estimateSessionBytes(network, type, max_dsp_budget);
        if (estimate > maxBytes_) {
            util::fatal(
                "session registry: %s (%zu layers) at %lld DSP "
                "slices is estimated at ~%zu KiB of warm state, "
                "over the whole %zu KiB registry budget; raise "
                "--max-bytes-mb or trim the budget ladder",
                network.name().c_str(), network.numLayers(),
                static_cast<long long>(max_dsp_budget),
                estimate / 1024, maxBytes_ / 1024);
        }
    }
    auto it = entries_.find(key);
    // The signature is a 64-bit dims hash and inline-layer requests
    // control the dims, so a hit must be verified against the actual
    // layer sequence; a true collision is disambiguated by probing
    // suffixed keys rather than silently answering with another
    // network's session.
    while (it != entries_.end() &&
           !sameDims(it->second->network, network)) {
        key.signature += "+";
        it = entries_.find(key);
    }
    bool warm = it != entries_.end();
    if (!warm) {
        // Enforcing the byte budget only after the build would let a
        // burst of giant networks transiently blow it: evict up
        // front until the estimated newcomer fits.
        while (estimate > 0 &&
               memoryBytesLocked() + estimate > maxBytes_ &&
               evictLruLocked(nullptr)) {
        }
        ++misses_;
        auto entry = std::make_shared<Entry>();
        entry->network = network;
        entry->session = std::make_unique<DseSession>(
            entry->network, type, store_, cache_);
        it = entries_.emplace(std::move(key), std::move(entry)).first;
    } else {
        ++hits_;
    }
    it->second->lastUse = ++tick_;
    ++it->second->uses;
    std::shared_ptr<Entry> entry = it->second;
    enforceCapsLocked(entry.get());
    // Alias the entry so the handle pins the network the session
    // references, even after an eviction drops the registry's copy.
    return std::shared_ptr<DseSession>(entry, entry->session.get());
}

bool
SessionRegistry::evictLruLocked(const Entry *keep)
{
    auto victim = entries_.end();
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
        if (it->second.get() == keep)
            continue;
        if (victim == entries_.end() ||
            it->second->lastUse < victim->second->lastUse)
            victim = it;
    }
    if (victim == entries_.end())
        return false;
    // Dropping the registry's reference frees the session at once when
    // no handle holds it; its frontier tables then hand their rows
    // back to the store, which frees the ones no other session holds
    // (release by ownership: the cost is the rows this session held,
    // not the store's size). A held session releases when its last
    // handle drops.
    entries_.erase(victim);
    ++evictions_;
    return true;
}

void
SessionRegistry::enforceCapsLocked(const Entry *keep)
{
    while (entries_.size() > maxSessions_ && evictLruLocked(keep)) {
    }
    if (maxBytes_ == 0)
        return;
    // The byte budget counts shared rows once (the store owns them).
    while (entries_.size() > 1 && memoryBytesLocked() > maxBytes_) {
        if (!evictLruLocked(keep))
            break;
    }
}

size_t
SessionRegistry::memoryBytesLocked()
{
    size_t bytes = store_->memoryBytes();
    for (const auto &entry : entries_)
        bytes += entry.second->session->memoryBytes();
    return bytes;
}

size_t
SessionRegistry::memoryBytes()
{
    std::lock_guard<std::mutex> lock(mutex_);
    return memoryBytesLocked();
}

std::vector<SessionRegistry::SessionInfo>
SessionRegistry::sessionInfos()
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<SessionInfo> infos;
    infos.reserve(entries_.size());
    for (const auto &kv : entries_) {
        SessionInfo info;
        info.network = kv.second->network.name();
        info.device = kv.first.device;
        info.type = kv.first.type;
        info.uses = kv.second->uses;
        info.hits = kv.second->uses > 0 ? kv.second->uses - 1 : 0;
        infos.push_back(std::move(info));
    }
    return infos;
}

SessionRegistry::Stats
SessionRegistry::stats()
{
    std::lock_guard<std::mutex> lock(mutex_);
    Stats stats;
    stats.hits = hits_;
    stats.misses = misses_;
    stats.evictions = evictions_;
    stats.sessions = entries_.size();
    stats.bytes = memoryBytesLocked();
    return stats;
}

} // namespace core
} // namespace mclp
