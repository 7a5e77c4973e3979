/**
 * @file
 * mclp-serve — the batch DSE service front end: one long-lived
 * process, many networks, shared frontiers, many concurrent clients.
 *
 * Reads DseRequest lines (see src/service/dse_codec.h) from stdin or
 * serves them over Unix/TCP stream sockets through the event-driven
 * server (src/service/server.h): pipelined per-line answers in
 * request order, bounded buffers, overload shedding (`err ...
 * msg=busy`), slow-client timeouts, and graceful drain on a
 * `shutdown` line or SIGTERM. Responses are bit-identical to cold
 * mclp-opt runs of the same requests (mclp-opt --response emits the
 * same wire form, which CI diffs against) no matter how many clients
 * interleave.
 *
 * Examples:
 *   printf 'dse id=a net=alexnet device=690t\n' | mclp-serve
 *   mclp-serve --socket /tmp/mclp.sock --accept 4
 *   mclp-serve --socket /tmp/mclp.sock --tcp-port 0 --threads 8
 *   mclp-serve --threads 8 --max-sessions 16 --max-bytes-mb 256
 */

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <optional>
#include <string>

#include "service/dse_service.h"
#include "service/server.h"
#include "util/flags.h"
#include "util/logging.h"

using namespace mclp;

namespace {

void
printUsage()
{
    std::printf(
        "mclp-serve: batch DSE service over stdin/stdout or stream "
        "sockets\n\n"
        "usage: mclp-serve [options]\n"
        "%s"
        "  --accept N           stop accepting after N connections and\n"
        "                       exit once they drain (default: serve\n"
        "                       until a 'shutdown' line or SIGTERM)\n"
        "without --socket or --tcp-port, requests are read from stdin\n"
        "(--max-line-bytes caps those lines too)\n"
        "service:\n"
        "  --threads N          request execution threads (0 = all\n"
        "                       cores; default 1; never changes\n"
        "                       responses)\n"
        "  --max-sessions N     warm-session LRU capacity (default 8)\n"
        "  --max-bytes-mb N     evict sessions beyond a rough resident\n"
        "                       byte budget (default: unlimited);\n"
        "                       oversized requests are rejected up\n"
        "                       front with an err line\n"
        "  --cache-dir DIR      persistent frontier cache: restart\n"
        "                       warm by mapping DIR's cache segment,\n"
        "                       flush new state on shutdown (responses\n"
        "                       never change)\n"
        "  --cache-max-mb N     evict least-recently-hit cache records\n"
        "                       once the segment image would exceed\n"
        "                       N MiB (default 0 = unbounded)\n"
        "  --cache-flush-interval-ms N\n"
        "                       also flush the persistent cache every\n"
        "                       N ms in the background, so a crash or\n"
        "                       kill loses at most one interval and a\n"
        "                       restart maps what was built before it\n"
        "                       (default 0 = shutdown-only)\n"
        "  --cold               bypass the registry; every request\n"
        "                       runs cold (parity baseline)\n"
        "  --help               this text\n\n"
        "protocol: one request per line (full spec: docs/PROTOCOL.md)\n"
        "  dse id=ID net=NAME [device=D] [type=float|fixed] [mhz=F]\n"
        "      [bw=GBPS] [maxclps=N] [mode=throughput|latency|single]\n"
        "      [budgets=A,B,C] [layers=name:n:m:r:c:k:s;...]\n"
        "  dse id=ID nets=NAME[:ZOO|:#COUNT],... [weights=W,...]\n"
        "      ...          joint multi-network request (Section 4.3);\n"
        "                   responses add subnets= attribution spans\n"
        "  stats        registry / row-store / transport counters\n"
        "  cache-stats  persistent-cache counters\n"
        "  shutdown     graceful drain: stop accepting, finish\n"
        "               in-flight work, flush the cache, exit 0\n",
        service::kTransportFlagsHelp);
}

struct Options
{
    service::Server::Options server;
    service::ServiceOptions service;
};

std::optional<Options>
parseArgs(int argc, char **argv)
{
    Options opts;
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
        } else if (arg == "--accept") {
            opts.server.acceptLimit = static_cast<int>(
                int_flag(i, "--accept", -1, 1 << 30));
        } else if (arg == "--threads") {
            opts.service.threads = static_cast<int>(
                int_flag(i, "--threads", 0, 4096));
        } else if (arg == "--max-sessions") {
            opts.service.maxSessions = static_cast<size_t>(
                int_flag(i, "--max-sessions", 1, 1 << 20));
        } else if (arg == "--max-bytes-mb") {
            opts.service.maxBytes =
                static_cast<size_t>(int_flag(i, "--max-bytes-mb", 0,
                                             int64_t{1} << 40)) *
                1024 * 1024;
        } else if (arg == "--cache-dir") {
            opts.service.cacheDir = need_value(i, "--cache-dir");
        } else if (arg == "--cache-max-mb") {
            opts.service.cacheMaxBytes =
                static_cast<size_t>(int_flag(i, "--cache-max-mb", 0,
                                             int64_t{1} << 40)) *
                1024 * 1024;
        } else if (arg == "--cache-flush-interval-ms") {
            opts.service.cacheFlushIntervalMs = static_cast<int>(
                int_flag(i, "--cache-flush-interval-ms", 0, 1 << 30));
        } else if (arg == "--cold") {
            opts.service.cold = true;
        } else {
            util::fatal("unknown option '%s' (try --help)",
                        arg.c_str());
        }
    }
    opts.service.maxLineBytes = opts.server.maxLineBytes;
    opts.server.handleSigterm = true;
    return opts;
}

} // namespace

int
main(int argc, char **argv)
{
    // A client that disconnects while we stream its response must not
    // kill the server: socket sends already use MSG_NOSIGNAL, and
    // ignoring SIGPIPE covers the stdout path too (EPIPE surfaces as
    // an ordinary write error instead of a fatal signal).
    std::signal(SIGPIPE, SIG_IGN);
    // A file-size limit must fail a cache publish (EFBIG: the tmp file
    // is removed, the previous image and the pending log are kept),
    // not kill the process in the middle of its drain.
    std::signal(SIGXFSZ, SIG_IGN);
    try {
        auto opts = parseArgs(argc, argv);
        if (!opts)
            return 0;
        service::DseService service(opts->service);
        if (!opts->server.unixPath.empty() || opts->server.tcpPort >= 0) {
            service::Server server(service, opts->server);
            if (!server.listening())
                return 1;
            if (opts->server.tcpPort >= 0) {
                // Ephemeral ports (--tcp-port 0) are useless unless
                // announced; stderr keeps stdout a pure response
                // stream.
                std::fprintf(stderr, "mclp-serve: tcp port %u\n",
                             server.tcpPort());
            }
            return server.run();
        }
        service.serveStream(std::cin, std::cout);
        return 0;
    } catch (const util::FatalError &err) {
        std::fprintf(stderr, "mclp-serve: %s\n", err.what());
        return 1;
    }
}
