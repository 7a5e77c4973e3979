/**
 * @file
 * End-to-end proofs for the sharded serving front (tools/mclp_front.cc),
 * driven against the *real* binaries: each fixture forks an actual
 * mclp-front, which forks actual mclp-serve workers, and every
 * assertion runs over the wire. CMake points MCLP_TEST_BINARY_DIR at
 * the build tree so the test always drives the binaries it was built
 * with.
 *
 * What must hold, from the outside:
 *  - routing is deterministic by network identity (equal dims → the
 *    same shard, every time);
 *  - one connection's answers arrive in request order even when its
 *    lines fan out across shards;
 *  - `stats`/`cache-stats` aggregate all shards into one line with
 *    per-shard breakdowns, and `front-stats` reports the supervisor;
 *  - a malformed line answers exactly what a lone worker would say;
 *  - kill -9 on a shard answers the in-flight lines with
 *    `err ... msg=worker-died`, the shard respawns, and the respawned
 *    shard answers byte-identical to a cold run with zero replay;
 *  - SIGTERM drains the cascade and the front exits 0 — including
 *    after an earlier kill + respawn;
 *  - the TCP listener answers byte-identical to the Unix socket.
 */

#include <gtest/gtest.h>

#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "core/dse_request.h"
#include "service/dse_codec.h"
#include "service/dse_service.h"
#include "service/shard_forwarder.h"
#include "util/net.h"
#include "util/string_utils.h"

#ifndef MCLP_TEST_BINARY_DIR
#error "CMake must define MCLP_TEST_BINARY_DIR (the build tree)"
#endif

namespace mclp {
namespace {

std::string
frontBinary()
{
    return std::string(MCLP_TEST_BINARY_DIR) + "/mclp-front";
}

std::string
socketPath(const char *tag)
{
    return util::strprintf("/tmp/mclp_front_%s_%d.sock", tag,
                           static_cast<int>(::getpid()));
}

std::string
cacheDir(const char *tag)
{
    std::string dir =
        util::strprintf("/tmp/mclp_front_%s_%d.cache", tag,
                        static_cast<int>(::getpid()));
    std::filesystem::remove_all(dir);
    return dir;
}

/** The reference answer: an independent cold run, wire-encoded. */
std::string
coldReference(const std::string &request_line)
{
    core::DseRequest request = service::decodeRequest(request_line);
    return service::encodeResponse(
        service::answerRequest(request, nullptr));
}

/** An inline-layer request built from @p copies identical conv
 * layers: every copy shares dims, so all such nets build the same
 * frontier rows, but each layer *count* is a distinct network
 * identity — distinct signatures spread over shards while the cache
 * records stay shareable. */
std::string
layeredRequest(const std::string &id, int copies)
{
    std::string layers;
    for (int i = 0; i < copies; ++i) {
        if (i)
            layers += ";";
        layers += util::strprintf("c%d:3:16:14:14:3:1", i);
    }
    return "dse id=" + id + " net=mini layers=" + layers +
           " budgets=200";
}

/** Blocking read of one newline-terminated line; false on EOF. */
bool
readLine(int fd, std::string *line)
{
    line->clear();
    char ch;
    while (true) {
        ssize_t got = ::read(fd, &ch, 1);
        if (got == 1) {
            if (ch == '\n')
                return true;
            line->push_back(ch);
        } else if (got == 0) {
            return false;
        } else if (errno != EINTR) {
            return false;
        }
    }
}

bool
sendLine(int fd, const std::string &text)
{
    std::string line = text + "\n";
    return util::writeAll(fd, line.data(), line.size());
}

/** Send one request on a fresh connection, return its answer. */
std::string
oneShot(const std::string &socket_path, const std::string &request)
{
    util::ScopedFd fd(util::connectUnix(socket_path));
    if (!fd.valid())
        return "<connect-failed>";
    if (!sendLine(fd.get(), request))
        return "<write-failed>";
    std::string reply;
    if (!readLine(fd.get(), &reply))
        return "<eof>";
    return reply;
}

/** `key=` integer scraped out of a stats-style line (first match);
 * -1 when absent. */
long long
statValue(const std::string &line, const std::string &key)
{
    size_t pos = line.find(" " + key + "=");
    if (pos == std::string::npos)
        return -1;
    return std::strtoll(line.c_str() + pos + key.size() + 2, nullptr,
                        10);
}

/**
 * A live mclp-front over real worker subprocesses. Construction
 * blocks until the front accepts connections; destruction SIGTERMs
 * it and asserts the drain cascade exits 0 (every test therefore
 * also proves clean shutdown for its scenario).
 */
class FrontProcess
{
  public:
    struct Config
    {
        int workers = 2;
        std::string cacheDir;           // empty = no cache
        int flushIntervalMs = 0;
        int tcpPort = -1;               // -1 = no TCP listener
        int respawnBackoffMs = 50;
        bool expectCleanExit = true;
    };

    FrontProcess(const char *tag, Config config)
        : config_(std::move(config)), socketPath_(socketPath(tag))
    {
        start();  // ASSERT_* needs a void function, not a ctor
    }

  private:
    void start()
    {
        std::filesystem::remove(socketPath_);
        std::vector<std::string> args = {
            frontBinary(),
            "--socket", socketPath_,
            "--workers", std::to_string(config_.workers),
            "--respawn-backoff-ms",
            std::to_string(config_.respawnBackoffMs),
        };
        if (!config_.cacheDir.empty()) {
            args.push_back("--cache-dir");
            args.push_back(config_.cacheDir);
        }
        if (config_.flushIntervalMs > 0) {
            args.push_back("--cache-flush-interval-ms");
            args.push_back(std::to_string(config_.flushIntervalMs));
        }
        if (config_.tcpPort >= 0) {
            args.push_back("--tcp-port");
            args.push_back(std::to_string(config_.tcpPort));
        }

        int err_pipe[2] = {-1, -1};
        if (config_.tcpPort >= 0) {
            EXPECT_EQ(::pipe(err_pipe), 0);
        }
        pid_ = ::fork();
        ASSERT_GE(pid_, 0);
        if (pid_ == 0) {
            if (err_pipe[1] >= 0) {
                ::dup2(err_pipe[1], 2);
                ::close(err_pipe[0]);
                ::close(err_pipe[1]);
            }
            std::vector<char *> argv;
            for (std::string &arg : args)
                argv.push_back(arg.data());
            argv.push_back(nullptr);
            ::execv(argv[0], argv.data());
            _exit(127);
        }
        if (err_pipe[1] >= 0)
            ::close(err_pipe[1]);

        // The front only starts listening after its workers are up;
        // poll the socket rather than guessing a sleep.
        int64_t deadline = util::monotonicMs() + 30000;
        while (true) {
            int fd = util::connectUnix(socketPath_);
            if (fd >= 0) {
                ::close(fd);
                break;
            }
            ASSERT_LT(util::monotonicMs(), deadline)
                << "front never started listening";
            ::usleep(20 * 1000);
        }

        if (err_pipe[0] >= 0) {
            // The ephemeral TCP port is announced on stderr.
            std::string line;
            while (readLine(err_pipe[0], &line)) {
                unsigned port = 0;
                if (std::sscanf(line.c_str(),
                                "mclp-front: tcp port %u",
                                &port) == 1) {
                    tcpPort_ = static_cast<int>(port);
                    break;
                }
            }
            ::close(err_pipe[0]);
            ASSERT_GT(tcpPort_, 0) << "tcp port never announced";
        }
    }

  public:
    ~FrontProcess()
    {
        if (pid_ > 0) {
            ::kill(pid_, SIGTERM);
            int status = 0;
            pid_t got;
            do {
                got = ::waitpid(pid_, &status, 0);
            } while (got < 0 && errno == EINTR);
            EXPECT_EQ(got, pid_);
            if (config_.expectCleanExit) {
                EXPECT_TRUE(WIFEXITED(status));
                if (WIFEXITED(status)) {
                    EXPECT_EQ(WEXITSTATUS(status), 0)
                        << "drain cascade was not clean";
                }
            }
        }
        std::filesystem::remove(socketPath_);
        if (!config_.cacheDir.empty())
            std::filesystem::remove_all(config_.cacheDir);
    }

    /** The child is already reaped (e.g. by a `shutdown`-verb test):
     * the destructor must not wait on it again. */
    void markExited() { pid_ = -1; }

    const std::string &socket() const { return socketPath_; }
    std::string workerSocket(int w) const
    {
        return socketPath_ + ".w" + std::to_string(w);
    }
    int tcpPort() const { return tcpPort_; }
    pid_t pid() const { return pid_; }

  private:
    Config config_;
    std::string socketPath_;
    pid_t pid_ = -1;
    int tcpPort_ = -1;
};

TEST(Front, RoutingIsDeterministicByNetworkIdentity)
{
    FrontProcess front("route", {});
    // Three sends of one identity, plus an identity that hashes to
    // the other shard: warm sessions must never split across workers.
    std::string req_a, req_b;
    for (int copies = 1; copies <= 8; ++copies) {
        std::string req = layeredRequest("r", copies);
        if (req_a.empty() && service::shardFor(req, 2) == 0)
            req_a = req;
        if (req_b.empty() && service::shardFor(req, 2) == 1)
            req_b = req;
    }
    ASSERT_FALSE(req_a.empty()) << "no candidate routed to shard 0";
    ASSERT_FALSE(req_b.empty()) << "no candidate routed to shard 1";

    for (int i = 0; i < 3; ++i)
        EXPECT_EQ(oneShot(front.socket(), req_a),
                  coldReference(req_a));
    EXPECT_EQ(oneShot(front.socket(), req_b), coldReference(req_b));

    // Workers stay directly reachable on SOCKET.wN; their private
    // session counts prove where the requests landed: all three
    // identical requests on shard 0's registry, the other identity
    // alone on shard 1's.
    std::string stats0 = oneShot(front.workerSocket(0), "stats");
    std::string stats1 = oneShot(front.workerSocket(1), "stats");
    EXPECT_EQ(statValue(stats0, "sessions"), 1) << stats0;
    EXPECT_EQ(statValue(stats0, "hits"), 2) << stats0;
    EXPECT_EQ(statValue(stats1, "sessions"), 1) << stats1;
    EXPECT_EQ(statValue(stats1, "hits"), 0) << stats1;
}

TEST(Front, PipelinedAnswersKeepRequestOrderAcrossShards)
{
    FrontProcess front("pipe", {});
    // One connection, six lines interleaving both shards. The shards
    // answer at their own pace; the front's reorder buffer must
    // deliver strictly in request order, each byte-identical to a
    // cold run.
    std::vector<std::string> requests;
    for (int copies = 1; copies <= 6; ++copies)
        requests.push_back(
            layeredRequest(util::strprintf("p%d", copies), copies));
    bool shard0 = false, shard1 = false;
    for (const std::string &req : requests) {
        (service::shardFor(req, 2) == 0 ? shard0 : shard1) = true;
    }
    ASSERT_TRUE(shard0 && shard1)
        << "candidates all hash to one shard; widen the range";

    util::ScopedFd fd(util::connectUnix(front.socket()));
    ASSERT_TRUE(fd.valid());
    std::string batch;
    for (const std::string &req : requests)
        batch += req + "\n";
    ASSERT_TRUE(util::writeAll(fd.get(), batch.data(), batch.size()));
    ::shutdown(fd.get(), SHUT_WR);
    for (const std::string &req : requests) {
        std::string reply;
        ASSERT_TRUE(readLine(fd.get(), &reply))
            << "missing answer for " << req;
        EXPECT_EQ(reply, coldReference(req));
    }
}

TEST(Front, StatsAggregateAcrossShardsWithBreakdown)
{
    FrontProcess front("stats", {2, cacheDir("stats")});
    EXPECT_EQ(oneShot(front.socket(), layeredRequest("s", 1)),
              coldReference(layeredRequest("s", 1)));

    std::string stats = oneShot(front.socket(), "stats");
    EXPECT_EQ(stats.rfind("ok stats shards=2 ", 0), 0u) << stats;
    EXPECT_NE(stats.find(" | shard0: ok stats "), std::string::npos)
        << stats;
    EXPECT_NE(stats.find(" | shard1: ok stats "), std::string::npos)
        << stats;
    EXPECT_EQ(statValue(stats, "sessions"), 1) << stats;

    std::string cache = oneShot(front.socket(), "cache-stats");
    EXPECT_EQ(cache.rfind("ok cache-stats shards=2 enabled=1", 0), 0u)
        << cache;
    for (const char *key : {"tier_process", "tier_mmap", "tier_cold"})
        EXPECT_GE(statValue(cache, key), 0)
            << "missing " << key << " in: " << cache;

    std::string fs = oneShot(front.socket(), "front-stats");
    EXPECT_EQ(fs.rfind("ok front-stats workers=2 draining=0 "
                       "restarts=0 shard0=up:", 0), 0u) << fs;
    EXPECT_NE(fs.find(" shard1=up:"), std::string::npos) << fs;
}

TEST(Front, MalformedLineAnswersExactlyLikeALoneWorker)
{
    FrontProcess front("mal", {});
    // Undecodable lines route by raw bytes; whichever shard gets one
    // must answer the very line a single mclp-serve would.
    service::DseService lone{service::ServiceOptions{}};
    for (const char *bad :
         {"bogus verb", "dse id=x net=no-such-net budgets=100",
          "dse id=", "dse"}) {
        EXPECT_EQ(oneShot(front.socket(), bad), lone.handleLine(bad))
            << "for line: " << bad;
    }
}

TEST(Front, KilledWorkerAnswersPendingRespawnsAndStaysWarm)
{
    std::string dir = cacheDir("kill");
    FrontProcess front("kill", {2, dir, /*flushIntervalMs=*/25});
    std::string req = layeredRequest("k1", 1);
    size_t target = service::shardFor(req, 2);

    // Warm the target shard's cache and wait for the background
    // flush to publish it: a SIGKILLed worker flushes nothing, so
    // the post-respawn warmth below can only come from what was
    // already persisted.
    EXPECT_EQ(oneShot(front.socket(), req), coldReference(req));
    int64_t publish_deadline = util::monotonicMs() + 30000;
    while (true) {
        std::string cache = oneShot(front.socket(), "cache-stats");
        if (statValue(cache, "flushes") > 0 &&
            statValue(cache, "segment_entries") > 0)
            break;
        ASSERT_LT(util::monotonicMs(), publish_deadline)
            << "background flush never published a segment";
        ::usleep(25 * 1000);
    }

    util::ScopedFd fd(util::connectUnix(front.socket()));
    ASSERT_TRUE(fd.valid());
    std::string fs;
    ASSERT_TRUE(sendLine(fd.get(), "front-stats"));
    ASSERT_TRUE(readLine(fd.get(), &fs));
    // shardN=up:PID:...
    std::string token =
        util::strprintf("shard%zu=up:", target);
    size_t pos = fs.find(token);
    ASSERT_NE(pos, std::string::npos) << fs;
    pid_t victim = static_cast<pid_t>(
        std::strtol(fs.c_str() + pos + token.size(), nullptr, 10));
    ASSERT_GT(victim, 0) << fs;

    // SIGSTOP first: the two lines are forwarded but never answered,
    // so the SIGKILL catches them in flight deterministically.
    ASSERT_EQ(::kill(victim, SIGSTOP), 0);
    ASSERT_TRUE(sendLine(fd.get(), layeredRequest("k2", 1)));
    ASSERT_TRUE(sendLine(fd.get(), layeredRequest("k3", 1)));
    ::usleep(300 * 1000);
    ASSERT_EQ(::kill(victim, SIGKILL), 0);

    std::string reply;
    ASSERT_TRUE(readLine(fd.get(), &reply));
    EXPECT_EQ(reply, "err id=k2 msg=worker-died");
    ASSERT_TRUE(readLine(fd.get(), &reply));
    EXPECT_EQ(reply, "err id=k3 msg=worker-died");

    // Same connection: wait out the respawn via front-stats.
    int64_t deadline = util::monotonicMs() + 30000;
    while (true) {
        ASSERT_TRUE(sendLine(fd.get(), "front-stats"));
        ASSERT_TRUE(readLine(fd.get(), &fs));
        if (fs.find(token) != std::string::npos &&
            statValue(fs, "restarts") == 1)
            break;
        ASSERT_LT(util::monotonicMs(), deadline)
            << "shard never respawned: " << fs;
        ::usleep(30 * 1000);
    }

    // The respawned shard answers byte-identical to a cold run, on
    // the connection that lived through the whole failure.
    std::string warm = layeredRequest("k4", 1);
    ASSERT_EQ(service::shardFor(warm, 2), target);
    ASSERT_TRUE(sendLine(fd.get(), warm));
    ASSERT_TRUE(readLine(fd.get(), &reply));
    EXPECT_EQ(reply, coldReference(warm));

    // ... and it restarted cache-warm: the row its predecessor
    // flushed came back from its own mapped segment, not a rebuild.
    std::string cache = oneShot(front.socket(), "cache-stats");
    EXPECT_GT(statValue(cache, "segment_row_hits"), 0) << cache;
}

TEST(Front, TcpListenerAnswersIdenticallyToUnixSocket)
{
    FrontProcess::Config config;
    config.tcpPort = 0;  // ephemeral, announced on stderr
    FrontProcess front("tcp", config);
    ASSERT_GT(front.tcpPort(), 0);

    util::ScopedFd fd(
        util::connectTcp(static_cast<uint16_t>(front.tcpPort())));
    ASSERT_TRUE(fd.valid());
    // Pipelined conversation over TCP: same ordering, same bytes.
    for (int copies = 1; copies <= 3; ++copies) {
        std::string req =
            layeredRequest(util::strprintf("t%d", copies), copies);
        ASSERT_TRUE(sendLine(fd.get(), req));
        std::string reply;
        ASSERT_TRUE(readLine(fd.get(), &reply));
        EXPECT_EQ(reply, coldReference(req));
    }
    std::string fs;
    ASSERT_TRUE(sendLine(fd.get(), "front-stats"));
    ASSERT_TRUE(readLine(fd.get(), &fs));
    EXPECT_EQ(fs.rfind("ok front-stats workers=2 ", 0), 0u) << fs;
}

TEST(Front, ShutdownVerbDrainsTheCascade)
{
    // `shutdown` over the wire must behave exactly like SIGTERM: the
    // front answers, drains, SIGTERMs the workers, and exits 0. The
    // fixture's destructor would also SIGTERM it — sending the verb
    // first proves the wire path alone completes the drain.
    FrontProcess front("shut", {});
    EXPECT_EQ(oneShot(front.socket(), "shutdown"), "ok shutdown");
    int status = 0;
    pid_t got;
    do {
        got = ::waitpid(front.pid(), &status, 0);
    } while (got < 0 && errno == EINTR);
    EXPECT_EQ(got, front.pid());
    EXPECT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 0);
    // Workers are gone too: their sockets no longer accept.
    EXPECT_LT(util::connectUnix(front.workerSocket(0)), 0);
    front.markExited();
}

} // namespace
} // namespace mclp
