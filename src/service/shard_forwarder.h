/**
 * @file
 * The shard forwarder: the Dispatcher (service/server.h) that
 * mclp-front runs its service::Server over. The Server owns every
 * client connection; the forwarder owns K supervised mclp-serve
 * worker processes and forwards each admitted line to one of them.
 *
 * Each worker listens on its own Unix socket and, with a cache dir,
 * owns its own cache shard directory. A line goes to the worker
 * chosen by hashing the request's network-dims signature (shardFor()),
 * so the same network always lands on the same worker, and each
 * shard's warm sessions and persistent frontier cache only ever hold
 * its own slice of the traffic. A shard's cache ladder is its own:
 * process -> its segment -> cold. Nothing is read across shards; a
 * network's rows already live on the one shard its dims hash to.
 *
 * Wire behavior is byte-identical to a single mclp-serve worker:
 * every worker answers its trunk (the forwarder's one connection to
 * it) strictly in order, so a FIFO of owed slots per trunk matches
 * answers positionally, and the Server's reorder buffers deliver them
 * in each client's request order. Err lines pass through unchanged,
 * and a line that fails to decode is routed by its raw bytes, so the
 * worker it lands on produces the very err answer a lone worker
 * would. The CI sharded smoke diffs a front-of-2 against a single
 * cold worker line for line.
 *
 * Supervision (the self-healing part): a worker that dies — crash,
 * OOM kill, operator kill -9 — is detected by its trunk's EOF,
 * every line it still owed answers `err id=ID msg=worker-died` (no
 * client ever hangs on a hole in its response order), and the worker
 * is respawned on the same shard cache dir under capped exponential
 * backoff. Nothing is replayed: the shard's mapped cache segment
 * makes the restart warm, and re-sent requests answer byte-identical
 * to a cold run. While a shard is down, lines routed to it answer
 * `err ... msg=worker-died` immediately (shed, never queued). The
 * state machine per worker:
 *
 *   UP --(trunk EOF / write error: SIGKILL the pid)--> KILLED
 *   KILLED --(waitpid reap)--> BACKOFF (delay doubles, capped;
 *                                       resets after >=10s of uptime)
 *   BACKOFF --(timer)--> STARTING (fork/exec on the same shard dir)
 *   STARTING --(connect ok)--> UP     (restarts++, uptime restarts)
 *   STARTING --(child exits first)--> BACKOFF (doubled)
 *
 * Verbs: `stats` and `cache-stats` broadcast to every live worker;
 * the answer is one line with the counters summed across shards
 * (service/shard_merge.h) followed by each worker's verbatim line as
 * a per-shard breakdown (dead shards contribute an err part).
 * `front-stats` is answered by the forwarder itself: per-shard state,
 * pid, restart count, and uptime. Workers also stay directly
 * reachable at SOCKET.w0..w{K-1}.
 *
 * Admission lives in the Server alone: each worker runs with
 * `--max-pipeline` and `--max-inflight` equal to the front's
 * `--max-inflight`, so a trunk can never shed a line the front
 * admitted. No timeout flag is forwarded — a worker's idle timeout
 * would close the idle trunk, which the forwarder would read as a
 * worker death. The drain cascade (finish()) closes the trunks and
 * SIGTERMs the workers, so each flushes its cache shard and exits;
 * it returns 0 when that cascade is clean (an earlier crash that was
 * respawned does not count, a crash *during* the drain does).
 *
 * The forwarder is safe inside a multi-threaded process (the test
 * suite runs it in-process): the child of fork() only calls execvp()
 * and _exit(), only the forwarder's own pids are reaped, and it
 * installs no signal handler — a worker's exit closes its trunk, and
 * dead or starting workers are reaped on a 20 ms supervision timer.
 */

#ifndef MCLP_SERVICE_SHARD_FORWARDER_H
#define MCLP_SERVICE_SHARD_FORWARDER_H

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

#include "service/server.h"

namespace mclp {
namespace service {

/**
 * The shard of @p shards that serves request @p line: the hash of its
 * network-dims signature (core::networkSignature of the resolved
 * network), so equal dims always share a shard; a line that fails to
 * decode or resolve hashes by its raw bytes instead.
 */
size_t shardFor(const std::string &line, size_t shards);

/** mclp-front's worker and supervision flags map onto these. */
struct ShardForwarderOptions
{
    /** Worker w listens on socketPath.wN. */
    std::string socketPath;
    int workers = 2;
    std::string serveBin = "mclp-serve";  ///< execvp()'d per worker

    // Passed through to every worker as the mclp-serve flags of the
    // same name; worker w's cache dir is cacheDir/shard-w.
    std::string cacheDir;
    int64_t cacheMaxMb = 0;
    int cacheFlushIntervalMs = 0;
    int threads = 1;
    int64_t maxSessions = 0;  ///< 0 = leave at the worker default

    /** First respawn delay after a worker death; doubles per rapid
     * re-death up to respawnBackoffMaxMs. */
    int respawnBackoffMs = 100;
    int respawnBackoffMaxMs = 5000;
};

/** The forwarder; the Server's start() call spawns and connects its
 * workers, and destroying it stops any that are still running. */
std::unique_ptr<Dispatcher>
makeShardForwarder(ShardForwarderOptions options);

} // namespace service
} // namespace mclp

#endif // MCLP_SERVICE_SHARD_FORWARDER_H
