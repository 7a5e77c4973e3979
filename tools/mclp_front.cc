/**
 * @file
 * mclp-front — the self-healing sharded serving front: one listening
 * endpoint (Unix socket and/or loopback TCP), K supervised mclp-serve
 * worker processes, requests routed by network identity.
 *
 * The front is a service::Server (src/service/server.h) over the
 * shard forwarder (src/service/shard_forwarder.h), so its clients get
 * every guarantee a lone mclp-serve gives — pipelining in request
 * order, the line cap, admission shedding, read and idle timeouts,
 * backpressure, graceful drain — from the same loop and the same
 * transport flags. The forwarder spawns and supervises the workers,
 * routes each line, aggregates `stats`/`cache-stats`, answers
 * `front-stats`, and cascades the drain to the workers; this file is
 * flags and main(). `shutdown` (or SIGTERM) drains the front, and it
 * exits 0 when the workers' drain cascade was clean.
 *
 * Examples:
 *   mclp-front --socket /tmp/mclp.sock --workers 2 --cache-dir /tmp/fc
 *   mclp-front --socket /tmp/mclp.sock --tcp-port 0 --workers 4
 */

#include <csignal>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>

#include "service/server.h"
#include "service/shard_forwarder.h"
#include "util/flags.h"
#include "util/logging.h"

using namespace mclp;

namespace {

void
printUsage()
{
    std::printf(
        "mclp-front: self-healing sharded serving front over K "
        "mclp-serve workers\n\n"
        "usage: mclp-front --socket PATH [options]\n"
        "%s"
        "worker w listens on PATH.wN; workers get the front's\n"
        "--max-line-bytes, and its --max-inflight as both their\n"
        "--max-pipeline and --max-inflight (no timeout flags)\n"
        "workers:\n"
        "  --workers K          worker process count (default 2)\n"
        "  --serve-bin PATH     mclp-serve binary (default: next to\n"
        "                       this binary, else $PATH)\n"
        "worker passthrough (each applies to every worker):\n"
        "  --cache-dir DIR      persistent frontier cache root; worker\n"
        "                       w uses DIR/shard-N, so shards never\n"
        "                       contend on one cache segment\n"
        "  --cache-max-mb N     forward the per-shard segment byte\n"
        "                       budget (default 0 = unbounded)\n"
        "  --cache-flush-interval-ms N\n"
        "                       forward the background flush interval\n"
        "                       so shards publish mid-life and a\n"
        "                       killed worker respawns warm (default\n"
        "                       0 = shutdown-only flush)\n"
        "  --threads N          request threads per worker (default 1)\n"
        "  --max-sessions N     warm-session LRU capacity per worker\n"
        "supervision:\n"
        "  --respawn-backoff-ms N\n"
        "                       first respawn delay after a worker\n"
        "                       death (default 100); doubles per\n"
        "                       rapid re-death, resets after 10s of\n"
        "                       uptime\n"
        "  --respawn-backoff-max-ms N\n"
        "                       backoff ceiling (default 5000)\n"
        "  --help               this text\n\n"
        "protocol: identical to mclp-serve (docs/PROTOCOL.md); routing\n"
        "is by network-dims signature, so equal-dims requests share a\n"
        "shard. 'stats'/'cache-stats' broadcast to every worker and\n"
        "answer one line: counters summed across shards (enabled/clean\n"
        "ANDed, generation maxed), then each worker's verbatim line\n"
        "after ' | shardN: ' separators. 'front-stats' reports the\n"
        "supervisor's own view: shardN=STATE:PID:RESTARTS:UPTIME_MS\n"
        "per shard. A line routed to a dead shard — in flight when it\n"
        "died, or arriving before the respawn — answers\n"
        "'err id=ID msg=worker-died'. 'shutdown' or SIGTERM drains\n"
        "the front and SIGTERMs the workers.\n",
        service::kTransportFlagsHelp);
}

struct Options
{
    service::Server::Options server;
    service::ShardForwarderOptions forwarder;
};

/** mclp-serve next to our own binary when argv[0] has a directory
 * part; otherwise rely on $PATH (execvp). */
std::string
defaultServeBin(const char *argv0)
{
    std::string self = argv0;
    size_t slash = self.rfind('/');
    if (slash == std::string::npos)
        return "mclp-serve";
    return self.substr(0, slash + 1) + "mclp-serve";
}

std::optional<Options>
parseArgs(int argc, char **argv)
{
    Options opts;
    service::ShardForwarderOptions &fwd = opts.forwarder;
    fwd.serveBin = defaultServeBin(argv[0]);
    auto need_value = [&](int &i, const char *flag) -> const char * {
        if (i + 1 >= argc)
            util::fatal("%s needs a value", flag);
        return argv[++i];
    };
    auto int_flag = [&](int &i, const char *flag, int64_t min,
                        int64_t max) {
        return util::parseIntFlag(flag, need_value(i, flag), min, max);
    };
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            printUsage();
            return std::nullopt;
        } else if (service::parseTransportFlag(argc, argv, i,
                                               opts.server)) {
        } else if (arg == "--workers") {
            fwd.workers =
                static_cast<int>(int_flag(i, "--workers", 1, 256));
        } else if (arg == "--serve-bin") {
            fwd.serveBin = need_value(i, "--serve-bin");
        } else if (arg == "--cache-dir") {
            fwd.cacheDir = need_value(i, "--cache-dir");
        } else if (arg == "--cache-max-mb") {
            fwd.cacheMaxMb =
                int_flag(i, "--cache-max-mb", 0, int64_t{1} << 30);
        } else if (arg == "--cache-flush-interval-ms") {
            fwd.cacheFlushIntervalMs = static_cast<int>(
                int_flag(i, "--cache-flush-interval-ms", 0, 1 << 30));
        } else if (arg == "--threads") {
            fwd.threads =
                static_cast<int>(int_flag(i, "--threads", 0, 4096));
        } else if (arg == "--max-sessions") {
            fwd.maxSessions = int_flag(i, "--max-sessions", 1, 1 << 20);
        } else if (arg == "--respawn-backoff-ms") {
            fwd.respawnBackoffMs = static_cast<int>(
                int_flag(i, "--respawn-backoff-ms", 1, 1 << 30));
        } else if (arg == "--respawn-backoff-max-ms") {
            fwd.respawnBackoffMaxMs = static_cast<int>(
                int_flag(i, "--respawn-backoff-max-ms", 1, 1 << 30));
        } else {
            util::fatal("unknown option '%s' (try --help)",
                        arg.c_str());
        }
    }
    if (opts.server.unixPath.empty())
        util::fatal("--socket is required (try --help)");
    fwd.socketPath = opts.server.unixPath;
    if (fwd.respawnBackoffMaxMs < fwd.respawnBackoffMs)
        fwd.respawnBackoffMaxMs = fwd.respawnBackoffMs;
    opts.server.handleSigterm = true;
    return opts;
}

} // namespace

int
main(int argc, char **argv)
{
    std::signal(SIGPIPE, SIG_IGN);
    try {
        auto opts = parseArgs(argc, argv);
        if (!opts)
            return 0;
        // Declared first, so it outlives the server; its destructor
        // stops the workers when the listener fails to bind.
        std::unique_ptr<service::Dispatcher> forwarder =
            service::makeShardForwarder(opts->forwarder);
        service::Server server(*forwarder, opts->server);
        if (!server.listening())
            return 1;
        if (opts->server.tcpPort >= 0) {
            // Ephemeral ports (--tcp-port 0) are useless unless
            // announced; stderr keeps stdout free.
            std::fprintf(stderr, "mclp-front: tcp port %u\n",
                         static_cast<unsigned>(server.tcpPort()));
        }
        return server.run();
    } catch (const util::FatalError &err) {
        std::fprintf(stderr, "mclp-front: %s\n", err.what());
        return 1;
    }
}
