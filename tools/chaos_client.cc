/**
 * @file
 * chaos-client — fault injection against a *live* mclp-serve process.
 *
 * Each scenario plays a hostile or unlucky client against the serving
 * loop and asserts the server honors its contract from the outside:
 * it stays up, sheds or errors exactly per the wire spec
 * (docs/PROTOCOL.md), and every surviving response is byte-identical
 * to a cold in-process run of the same request (the tool links the
 * library, so it computes its own references). CI runs the scenarios
 * against a real mclp-serve and a real 2-worker mclp-front (both run
 * service::Server); tests/service/test_server.cc proves the same
 * properties in-process against both.
 *
 * Scenarios:
 *   slow-loris      drip a never-finished line one byte at a time;
 *                   the server must hang up (read timeout), and a
 *                   polite client afterwards must be answered
 *   disconnect      request a big ladder, vanish without reading;
 *                   the server must survive and keep answering
 *   torn-line       send a request with no trailing newline, then
 *                   half-close; the answer must still come back
 *   oversized-line  send a line past the cap; expect
 *                   `err ... msg=line-too-long`, and the *same*
 *                   connection must answer a valid line afterwards
 *   flood           pipeline a slow request plus a burst behind it;
 *                   expect `err ... msg=busy` sheds (run the server
 *                   with --max-inflight 1) and a correct answer for
 *                   the admitted request
 *   pipeline-parity pipeline a mixed batch on one connection and
 *                   byte-compare every response to a cold run
 *   worker-kill     (front-only, excluded from `all`) kill -9 one
 *                   mclp-front shard mid-request: in-flight lines
 *                   must answer `err ... msg=worker-died`, the shard
 *                   must respawn within the backoff window, the
 *                   respawned shard must answer byte-identical to a
 *                   cold run, and the client connection stays usable
 *                   through all of it
 *
 * Exit status: 0 when every requested scenario passes, 1 otherwise.
 *
 * Example (the CI fault-injection step):
 *   mclp-serve --socket /tmp/chaos.sock --max-inflight 1 \
 *              --read-timeout-ms 200 --max-line-bytes 4096 &
 *   chaos-client --socket /tmp/chaos.sock --scenario all
 */

#include <signal.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "core/dse_request.h"
#include "service/dse_codec.h"
#include "service/dse_service.h"
#include "service/shard_forwarder.h"
#include "util/flags.h"
#include "util/logging.h"
#include "util/net.h"
#include "util/string_utils.h"

using namespace mclp;

namespace {

void
printUsage()
{
    std::printf(
        "chaos-client: fault injection against a live mclp-serve\n\n"
        "usage: chaos-client --socket PATH [options]\n"
        "       chaos-client --tcp-port N [options]\n"
        "  --socket PATH     Unix socket of the server under test\n"
        "  --tcp-port N      or its loopback TCP port\n"
        "  --scenario NAME   slow-loris | disconnect | torn-line |\n"
        "                    oversized-line | flood | pipeline-parity\n"
        "                    | all (default all) | worker-kill\n"
        "                    (front-only: needs mclp-front, so it is\n"
        "                    not part of 'all')\n"
        "  --request LINE    instead of scenarios: send one request\n"
        "                    line, print the response to stdout, and\n"
        "                    exit 0 (1 when the server never answers)\n"
        "  --timeout-ms N    per-read deadline before a scenario is\n"
        "                    declared hung (default 30000)\n"
        "  --help            this text\n\n"
        "flood expects the server to run with --max-inflight 1;\n"
        "oversized-line expects --max-line-bytes well under 64 KiB.\n");
}

struct Options
{
    std::string socketPath;
    int tcpPort = -1;
    std::string scenario = "all";
    std::string request;
    int timeoutMs = 30000;
};

Options g_options;

/** Connect to the server under test (Unix or TCP per flags), with a
 * receive deadline so a hung server fails loudly, never silently. */
util::ScopedFd
connectToServer()
{
    int fd = g_options.socketPath.empty()
                 ? util::connectTcp(
                       static_cast<uint16_t>(g_options.tcpPort))
                 : util::connectUnix(g_options.socketPath);
    if (fd >= 0) {
        timeval tv{};
        tv.tv_sec = g_options.timeoutMs / 1000;
        tv.tv_usec = (g_options.timeoutMs % 1000) * 1000;
        ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    }
    return util::ScopedFd(fd);
}

/** The reference answer: an independent cold run, wire-encoded. */
std::string
coldReference(const std::string &request_line)
{
    core::DseRequest request = service::decodeRequest(request_line);
    return service::encodeResponse(
        service::answerRequest(request, nullptr));
}

/** Blocking read of one line; empty optional on EOF/timeout/error. */
std::optional<std::string>
readLine(int fd)
{
    std::string line;
    char ch;
    while (true) {
        ssize_t got = ::read(fd, &ch, 1);
        if (got == 1) {
            if (ch == '\n')
                return line;
            line.push_back(ch);
        } else if (got == 0 || errno != EINTR) {
            return std::nullopt;
        }
    }
}

bool
fail(const char *scenario, const std::string &why)
{
    std::fprintf(stderr, "FAIL %s: %s\n", scenario, why.c_str());
    return false;
}

const char *kSanity = "dse id=sanity net=mini "
                      "layers=conv1:3:16:14:14:3:1 budgets=200";

/** A polite request on a fresh connection answers correctly — the
 * "server is still alive" probe every scenario ends with. A busy
 * shed is NOT a failure: with --max-inflight 1 the previous
 * scenario's abandoned work may still be executing, and shedding is
 * exactly what the spec demands — so retry until the server drains
 * or the deadline expires. */
bool
sanityCheck(const char *scenario)
{
    int64_t deadline =
        util::monotonicMs() + g_options.timeoutMs;
    std::string busy = "err id=sanity msg=busy";
    while (true) {
        util::ScopedFd fd = connectToServer();
        if (!fd.valid())
            return fail(
                scenario,
                "server unreachable after the fault (did it die?)");
        std::string line = std::string(kSanity) + "\n";
        if (!util::writeAll(fd.get(), line.data(), line.size()))
            return fail(scenario, "sanity request write failed");
        std::optional<std::string> reply = readLine(fd.get());
        if (!reply)
            return fail(scenario, "no answer to the sanity request");
        if (*reply == coldReference(kSanity))
            return true;
        if (*reply != busy)
            return fail(scenario,
                        "sanity answer is not byte-identical to a "
                        "cold run: " + *reply);
        if (util::monotonicMs() >= deadline)
            return fail(scenario,
                        "server still shedding busy at the deadline "
                        "(in-flight work never finished?)");
        ::usleep(50 * 1000);
    }
}

bool
scenarioSlowLoris()
{
    util::ScopedFd fd = connectToServer();
    if (!fd.valid())
        return fail("slow-loris", "cannot connect");
    // Drip a never-finished request line. A correct server anchors
    // its read timeout at the first byte of the partial line, so the
    // drip cannot keep itself alive; eventually we read EOF.
    bool dropped = false;
    for (int i = 0; i < 2000 && !dropped; ++i) {
        if (::send(fd.get(), "x", 1, MSG_NOSIGNAL) != 1) {
            dropped = true;
            break;
        }
        ::usleep(20 * 1000);
        // Poll the read side without blocking the drip.
        char ch;
        ssize_t got = ::recv(fd.get(), &ch, 1, MSG_DONTWAIT);
        if (got == 0)
            dropped = true;
    }
    if (!dropped)
        return fail("slow-loris",
                    "server never hung up on a 40s one-byte drip "
                    "(is --read-timeout-ms set?)");
    return sanityCheck("slow-loris");
}

bool
scenarioDisconnect()
{
    util::ScopedFd fd = connectToServer();
    if (!fd.valid())
        return fail("disconnect", "cannot connect");
    std::string heavy = "dse id=chaos net=squeezenet device=690t "
                        "budgets=500,1000,1500,2000,2500,2880\n";
    if (!util::writeAll(fd.get(), heavy.data(), heavy.size()))
        return fail("disconnect", "request write failed");
    ::shutdown(fd.get(), SHUT_WR);
    fd.reset();  // vanish before the response is written
    return sanityCheck("disconnect");
}

bool
scenarioTornLine()
{
    if (!sanityCheck("torn-line (pre-drain)"))
        return false;
    util::ScopedFd fd = connectToServer();
    if (!fd.valid())
        return fail("torn-line", "cannot connect");
    // No trailing newline: the batch protocol still answers it.
    if (!util::writeAll(fd.get(), kSanity, std::strlen(kSanity)))
        return fail("torn-line", "request write failed");
    ::shutdown(fd.get(), SHUT_WR);
    std::optional<std::string> reply = readLine(fd.get());
    if (!reply)
        return fail("torn-line", "torn final line was not answered");
    if (*reply != coldReference(kSanity))
        return fail("torn-line", "answer mismatch: " + *reply);
    return sanityCheck("torn-line");
}

bool
scenarioOversizedLine()
{
    if (!sanityCheck("oversized-line (pre-drain)"))
        return false;
    util::ScopedFd fd = connectToServer();
    if (!fd.valid())
        return fail("oversized-line", "cannot connect");
    // 64 KiB of junk on one line, then a valid request on the SAME
    // connection: the cap must reject the first and answer the
    // second (the connection stays usable).
    std::string batch = "dse id=huge net=alexnet " +
                        std::string(64 * 1024, 'x') + "\n" +
                        std::string(kSanity) + "\n";
    if (!util::writeAll(fd.get(), batch.data(), batch.size()))
        return fail("oversized-line", "batch write failed");
    std::optional<std::string> first = readLine(fd.get());
    if (!first)
        return fail("oversized-line", "no answer to the huge line");
    if (*first != "err id=huge msg=line-too-long")
        return fail("oversized-line",
                    "expected 'err id=huge msg=line-too-long', got: " +
                        *first);
    std::optional<std::string> second = readLine(fd.get());
    if (!second)
        return fail("oversized-line",
                    "connection unusable after the oversized line");
    if (*second != coldReference(kSanity))
        return fail("oversized-line", "answer mismatch: " + *second);
    return sanityCheck("oversized-line");
}

bool
scenarioFlood()
{
    if (!sanityCheck("flood (pre-drain)"))
        return false;
    util::ScopedFd fd = connectToServer();
    if (!fd.valid())
        return fail("flood", "cannot connect");
    // One write carries a slow ladder plus a burst behind it: with
    // --max-inflight 1 every burst line is parsed while the ladder
    // still executes, so each must shed busy — immediately and in
    // request order, never queued behind the ladder.
    std::string heavy = "dse id=h net=squeezenet device=690t "
                        "budgets=500,1000,1500,2000,2880";
    std::string batch = heavy + "\n";
    constexpr int kBurst = 8;
    for (int i = 0; i < kBurst; ++i)
        batch +=
            util::strprintf("dse id=f%d net=alexnet budgets=500\n", i);
    if (!util::writeAll(fd.get(), batch.data(), batch.size()))
        return fail("flood", "batch write failed");
    ::shutdown(fd.get(), SHUT_WR);

    std::optional<std::string> first = readLine(fd.get());
    if (!first)
        return fail("flood", "no answer to the admitted request");
    if (*first != coldReference(heavy))
        return fail("flood",
                    "the admitted request's answer changed under "
                    "load: " + *first);
    int shed = 0;
    for (int i = 0; i < kBurst; ++i) {
        std::optional<std::string> reply = readLine(fd.get());
        if (!reply)
            return fail("flood", util::strprintf(
                                     "missing response %d of %d",
                                     i + 1, kBurst));
        std::string busy = util::strprintf("err id=f%d msg=busy", i);
        if (*reply == busy)
            ++shed;
        else if (*reply != coldReference(util::strprintf(
                     "dse id=f%d net=alexnet budgets=500", i)))
            return fail("flood", "response is neither a busy shed "
                                 "nor a correct answer: " + *reply);
    }
    if (shed == 0)
        return fail("flood",
                    "no 'err ... msg=busy' sheds observed (run the "
                    "server with --max-inflight 1)");
    std::fprintf(stderr, "  flood: %d/%d burst lines shed busy\n",
                 shed, kBurst);
    return sanityCheck("flood");
}

bool
scenarioPipelineParity()
{
    if (!sanityCheck("pipeline-parity (pre-drain)"))
        return false;
    util::ScopedFd fd = connectToServer();
    if (!fd.valid())
        return fail("pipeline-parity", "cannot connect");
    const std::vector<std::string> requests{
        "dse id=p0 net=alexnet budgets=500",
        "dse id=p1 net=alexnet budgets=500 mode=single",
        "dse id=p2 net=mini layers=conv1:3:16:14:14:3:1 budgets=200",
        "dse id=p3 net=squeezenet device=690t budgets=1000",
    };
    // Write request k+1 only after response k arrived: a pipelined
    // conversation on one connection, not a half-closed batch.
    for (const std::string &request : requests) {
        std::string line = request + "\n";
        if (!util::writeAll(fd.get(), line.data(), line.size()))
            return fail("pipeline-parity", "write failed");
        std::optional<std::string> reply = readLine(fd.get());
        if (!reply)
            return fail("pipeline-parity",
                        "no pipelined answer to: " + request);
        if (*reply != coldReference(request))
            return fail("pipeline-parity",
                        "byte mismatch vs cold run for: " + request);
    }
    return true;
}

/** One shard's slice of a `front-stats` answer. */
struct ShardStatus
{
    std::string state;
    pid_t pid = -1;
    uint64_t restarts = 0;
};

/** Parse `ok front-stats ... shardN=STATE:PID:RESTARTS:UPTIME_MS`
 * into per-shard records; empty on anything that isn't a front-stats
 * line. */
std::vector<ShardStatus>
parseFrontStats(const std::string &line)
{
    std::vector<ShardStatus> shards;
    if (line.rfind("ok front-stats ", 0) != 0)
        return shards;
    size_t pos = 0;
    while ((pos = line.find(" shard", pos)) != std::string::npos) {
        pos += 6;
        size_t eq = line.find('=', pos);
        if (eq == std::string::npos)
            break;
        size_t shard = std::strtoul(line.c_str() + pos, nullptr, 10);
        size_t end = line.find(' ', eq);
        std::string value = line.substr(
            eq + 1,
            (end == std::string::npos ? line.size() : end) - eq - 1);
        std::vector<std::string> fields = util::split(value, ':');
        if (fields.size() != 4)
            break;
        if (shards.size() <= shard)
            shards.resize(shard + 1);
        shards[shard].state = fields[0];
        shards[shard].pid =
            fields[1] == "-"
                ? -1
                : static_cast<pid_t>(
                      std::strtol(fields[1].c_str(), nullptr, 10));
        shards[shard].restarts =
            std::strtoull(fields[2].c_str(), nullptr, 10);
    }
    return shards;
}

bool
scenarioWorkerKill()
{
    const char *name = "worker-kill";
    util::ScopedFd fd = connectToServer();
    if (!fd.valid())
        return fail(name, "cannot connect");
    auto sendLine = [&](const std::string &text) {
        std::string line = text + "\n";
        return util::writeAll(fd.get(), line.data(), line.size());
    };

    // The target under test must be a front: everything below runs
    // on this ONE connection, which must stay usable through the
    // whole kill/respawn cycle.
    if (!sendLine("front-stats"))
        return fail(name, "front-stats write failed");
    std::optional<std::string> reply = readLine(fd.get());
    if (!reply)
        return fail(name, "no answer to front-stats");
    std::vector<ShardStatus> before = parseFrontStats(*reply);
    if (before.empty())
        return fail(name, "target is not an mclp-front (front-stats "
                          "answered: " + *reply + ")");

    // Route a request whose shard we can name, so the kill provably
    // lands on the worker that owes the in-flight answers.
    std::string heavy = "dse id=%s net=squeezenet device=690t "
                        "budgets=500,1000";
    size_t target = service::shardFor(
        util::strprintf(heavy.c_str(), "k1"), before.size());
    if (before[target].state != "up" || before[target].pid <= 0)
        return fail(name, util::strprintf(
                              "target shard %zu is not up before the "
                              "kill", target));
    pid_t victim = before[target].pid;
    uint64_t restarts_before = before[target].restarts;

    // SIGSTOP first: the two requests pile up inside the worker (the
    // front has forwarded them, nothing answers), so the SIGKILL
    // deterministically catches them in flight — no racing against
    // request completion.
    if (::kill(victim, SIGSTOP) != 0)
        return fail(name, "cannot SIGSTOP the target worker (run "
                          "chaos-client as the front's user)");
    bool sent = sendLine(util::strprintf(heavy.c_str(), "k1")) &&
                sendLine(util::strprintf(heavy.c_str(), "k2"));
    if (!sent) {
        ::kill(victim, SIGCONT);
        return fail(name, "in-flight request write failed");
    }
    ::usleep(300 * 1000);  // let the front forward both lines
    if (::kill(victim, SIGKILL) != 0)
        return fail(name, "cannot SIGKILL the target worker");

    // Both in-flight lines answer the documented err form, in order.
    for (const char *id : {"k1", "k2"}) {
        std::optional<std::string> answer = readLine(fd.get());
        if (!answer)
            return fail(name, util::strprintf(
                                  "no answer for in-flight %s after "
                                  "the kill", id));
        std::string want =
            util::strprintf("err id=%s msg=worker-died", id);
        if (*answer != want)
            return fail(name, "expected '" + want + "', got: " +
                                  *answer);
    }

    // The supervisor must bring the shard back within the backoff
    // window; poll front-stats on the SAME connection.
    int64_t deadline = util::monotonicMs() + g_options.timeoutMs;
    while (true) {
        if (!sendLine("front-stats"))
            return fail(name, "front-stats write failed mid-respawn");
        reply = readLine(fd.get());
        if (!reply)
            return fail(name, "connection died while the shard "
                              "respawned");
        std::vector<ShardStatus> now = parseFrontStats(*reply);
        if (now.size() == before.size() &&
            now[target].state == "up" &&
            now[target].restarts > restarts_before)
            break;
        if (util::monotonicMs() >= deadline)
            return fail(name, "shard never respawned: " + *reply);
        ::usleep(50 * 1000);
    }

    // The respawned shard answers byte-identical to a cold run —
    // nothing was replayed, the cache tiers did the warming.
    std::string warm = util::strprintf(heavy.c_str(), "k3");
    if (!sendLine(warm))
        return fail(name, "post-respawn request write failed");
    reply = readLine(fd.get());
    if (!reply)
        return fail(name, "no answer from the respawned shard");
    if (*reply != coldReference(warm))
        return fail(name, "respawned shard's answer is not "
                          "byte-identical to a cold run: " + *reply);
    return true;
}

std::optional<Options>
parseArgs(int argc, char **argv)
{
    Options opts;
    auto need_value = [&](int &i, const char *flag) -> const char * {
        if (i + 1 >= argc)
            util::fatal("%s needs a value", flag);
        return argv[++i];
    };
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            printUsage();
            return std::nullopt;
        } else if (arg == "--socket") {
            opts.socketPath = need_value(i, "--socket");
        } else if (arg == "--tcp-port") {
            opts.tcpPort = static_cast<int>(util::parseIntFlag(
                "--tcp-port", need_value(i, "--tcp-port"), 1, 65535));
        } else if (arg == "--scenario") {
            opts.scenario = need_value(i, "--scenario");
        } else if (arg == "--request") {
            opts.request = need_value(i, "--request");
        } else if (arg == "--timeout-ms") {
            opts.timeoutMs = static_cast<int>(util::parseIntFlag(
                "--timeout-ms", need_value(i, "--timeout-ms"), 1,
                1 << 30));
        } else {
            util::fatal("unknown option '%s' (try --help)",
                        arg.c_str());
        }
    }
    if (opts.socketPath.empty() && opts.tcpPort < 0)
        util::fatal("need --socket or --tcp-port (try --help)");
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
        g_options = *opts;

        if (!g_options.request.empty()) {
            // Plain-client mode: CI uses this to drive a request
            // over the socket without a scenario wrapped around it.
            util::ScopedFd fd = connectToServer();
            if (!fd.valid())
                util::fatal("cannot connect to the server");
            std::string line = g_options.request + "\n";
            if (!util::writeAll(fd.get(), line.data(), line.size()))
                util::fatal("request write failed");
            std::optional<std::string> reply = readLine(fd.get());
            if (!reply)
                util::fatal("no response before EOF/timeout");
            std::printf("%s\n", reply->c_str());
            return 0;
        }

        // worker-kill is front-only (it SIGKILLs a shard of an
        // mclp-front), so `all` — which CI points at a plain
        // mclp-serve — never runs it; it must be requested by name.
        if (g_options.scenario == "worker-kill") {
            std::fprintf(stderr, "RUN  worker-kill\n");
            if (!scenarioWorkerKill())
                return 1;
            std::fprintf(stderr, "PASS worker-kill\n");
            return 0;
        }

        const std::vector<
            std::pair<std::string, std::function<bool()>>>
            scenarios{
                {"slow-loris", scenarioSlowLoris},
                {"disconnect", scenarioDisconnect},
                {"torn-line", scenarioTornLine},
                {"oversized-line", scenarioOversizedLine},
                {"flood", scenarioFlood},
                {"pipeline-parity", scenarioPipelineParity},
            };
        bool matched = false;
        bool all_passed = true;
        for (const auto &[name, run] : scenarios) {
            if (g_options.scenario != "all" &&
                g_options.scenario != name)
                continue;
            matched = true;
            std::fprintf(stderr, "RUN  %s\n", name.c_str());
            if (run())
                std::fprintf(stderr, "PASS %s\n", name.c_str());
            else
                all_passed = false;
        }
        if (!matched)
            util::fatal("unknown scenario '%s' (try --help)",
                        g_options.scenario.c_str());
        return all_passed ? 0 : 1;
    } catch (const util::FatalError &err) {
        std::fprintf(stderr, "chaos-client: %s\n", err.what());
        return 1;
    }
}
