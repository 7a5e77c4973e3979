/**
 * @file
 * Failure-path proofs for the event-driven serving loop
 * (src/service/server.h): pipelining before EOF, concurrent-client
 * parity against cold runs, overload shedding (`err ... msg=busy`),
 * request-line caps (`err ... msg=line-too-long`), slow-loris and
 * idle timeouts, torn lines at close, mid-response disconnects, and
 * graceful drain while work is in flight. The transport must be
 * invisible in results: every surviving response is byte-identical
 * to a cold run of the same request, no matter what the other
 * clients were doing.
 *
 * Each proof runs on both dispatchers behind the one loop: as
 * `Server.*` on a lone server (the local crew over an in-process
 * DseService), and as `FrontServer.*` on the shard forwarder over 2
 * real mclp-serve workers — what mclp-front runs. CMake points
 * MCLP_TEST_BINARY_DIR at the build tree for the worker binary.
 *
 * `ServeProcess.*` runs the real mclp-serve (and mclp-front) under a
 * resource limit set between fork and exec: out of file descriptors
 * it must not spin, over a file-size limit its cache publish must
 * fail cleanly, and under an address-space limit its drain must still
 * publish the cache.
 */

#include <gtest/gtest.h>

#include <fcntl.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/frontier_cache_segment.h"
#include "service/dse_codec.h"
#include "service/dse_service.h"
#include "service/server.h"
#include "service/shard_forwarder.h"
#include "util/net.h"
#include "util/string_utils.h"

#ifndef MCLP_TEST_BINARY_DIR
#error "CMake must define MCLP_TEST_BINARY_DIR (the build tree)"
#endif

namespace mclp {
namespace {

/** The reference answer: an independent cold run, wire-encoded. */
std::string
coldReference(const std::string &request_line)
{
    core::DseRequest request = service::decodeRequest(request_line);
    return service::encodeResponse(
        service::answerRequest(request, nullptr));
}

std::string
socketPath(const char *tag)
{
    return util::strprintf("/tmp/mclp_srv_%s_%d.sock", tag,
                           static_cast<int>(::getpid()));
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

/** Write a whole batch, half-close, slurp the reply. */
std::string
batchOverFd(int fd, const std::string &batch)
{
    EXPECT_TRUE(util::writeAll(fd, batch.data(), batch.size()));
    ::shutdown(fd, SHUT_WR);
    std::string reply;
    EXPECT_TRUE(util::readAll(fd, &reply));
    return reply;
}

/** Response lines, without the trailing empty element a final
 * newline leaves behind in util::split(). */
std::vector<std::string>
splitLines(const std::string &reply)
{
    std::vector<std::string> lines = util::split(reply, '\n');
    if (!lines.empty() && lines.back().empty())
        lines.pop_back();
    return lines;
}

const char *kCheap =
    "dse id=c net=mini layers=conv1:3:16:14:14:3:1 budgets=200";

/** A server under test plus whatever answers its lines. */
struct Harness
{
    std::unique_ptr<service::DseService> dse;        ///< lone only
    std::unique_ptr<service::Dispatcher> forwarder;  ///< front only
    /** Declared last, so destroyed before what it dispatches to. */
    std::unique_ptr<service::Server> server;
};

using ServerFactory = Harness (*)(const service::Server::Options &,
                                  int threads);

/** A lone server: the local crew, @p threads wide. */
Harness
loneServer(const service::Server::Options &options, int threads)
{
    service::ServiceOptions service_options;
    service_options.threads = threads;
    Harness harness;
    harness.dse = std::make_unique<service::DseService>(service_options);
    harness.server =
        std::make_unique<service::Server>(*harness.dse, options);
    return harness;
}

/** A front: the shard forwarder over 2 mclp-serve workers of
 * @p threads threads each. */
Harness
frontServer(const service::Server::Options &options, int threads)
{
    service::ShardForwarderOptions forwarder;
    forwarder.socketPath = options.unixPath.empty() ? socketPath("front")
                                                    : options.unixPath;
    forwarder.workers = 2;
    forwarder.serveBin = std::string(MCLP_TEST_BINARY_DIR) + "/mclp-serve";
    forwarder.threads = threads;
    Harness harness;
    harness.forwarder = service::makeShardForwarder(forwarder);
    harness.server =
        std::make_unique<service::Server>(*harness.forwarder, options);
    return harness;
}

/** Define one proof, run as Server.NAME on a lone server and as
 * FrontServer.NAME on a 2-worker front. */
#define SERVER_TEST(name)                                              \
    void name##Body(ServerFactory make);                               \
    TEST(Server, name) { name##Body(loneServer); }                     \
    TEST(FrontServer, name) { name##Body(frontServer); }               \
    void name##Body(ServerFactory make)

SERVER_TEST(PipelinedAnswersArriveBeforeConnectionEof)
{
    // The old loop answered only at client EOF; the event loop must
    // answer each line as it completes, on a connection that stays
    // open — a request/response conversation, not a batch.
    service::Server::Options options;
    options.unixPath = socketPath("pipe");
    options.acceptLimit = 1;
    Harness harness = make(options, 1);
    service::Server &server = *harness.server;
    ASSERT_TRUE(server.listening());
    std::thread run([&] { EXPECT_EQ(server.run(), 0); });

    util::ScopedFd fd(util::connectUnix(options.unixPath));
    ASSERT_TRUE(fd.valid());
    std::string line1 = std::string(kCheap) + "\n";
    ASSERT_TRUE(util::writeAll(fd.get(), line1.data(), line1.size()));
    std::string reply;
    ASSERT_TRUE(readLine(fd.get(), &reply)) << "no pipelined answer";
    EXPECT_EQ(reply, coldReference(kCheap));

    // A second round on the same still-open connection.
    std::string line2 = "dse id=c2 net=alexnet budgets=500\n";
    ASSERT_TRUE(util::writeAll(fd.get(), line2.data(), line2.size()));
    ASSERT_TRUE(readLine(fd.get(), &reply));
    EXPECT_EQ(reply, coldReference("dse id=c2 net=alexnet budgets=500"));
    fd.reset();
    run.join();
}

SERVER_TEST(ConcurrentInterleavedClientsMatchSerialAnswers)
{
    service::Server::Options options;
    options.unixPath = socketPath("concurrent");
    options.acceptLimit = 4;
    Harness harness = make(options, 4);
    service::Server &server = *harness.server;
    ASSERT_TRUE(server.listening());
    std::thread run([&] { EXPECT_EQ(server.run(), 0); });

    const std::vector<std::string> requests{
        "dse id=k0 net=alexnet budgets=500",
        "dse id=k1 net=alexnet budgets=500 mode=single",
        "dse id=k2 net=squeezenet device=690t budgets=1000",
        "dse id=k3 net=mini layers=conv1:3:16:14:14:3:1 budgets=200",
    };
    std::vector<std::string> replies(requests.size());
    std::vector<std::thread> clients;
    for (size_t i = 0; i < requests.size(); ++i) {
        clients.emplace_back([&, i] {
            util::ScopedFd fd(util::connectUnix(options.unixPath));
            ASSERT_TRUE(fd.valid());
            // Two lines per client, written separately with a yield
            // between them so the four conversations interleave.
            std::string first = requests[i] + "\n";
            ASSERT_TRUE(util::writeAll(fd.get(), first.data(),
                                       first.size()));
            std::this_thread::yield();
            replies[i] = batchOverFd(fd.get(), requests[i] + "\n");
        });
    }
    for (std::thread &client : clients)
        client.join();
    run.join();

    for (size_t i = 0; i < requests.size(); ++i) {
        std::vector<std::string> lines =
            splitLines(replies[i]);
        ASSERT_GE(lines.size(), 2u) << requests[i];
        // Both copies of the request answered identically, and
        // byte-identical to a serial cold run — no cross-client
        // bleed, no reordering.
        EXPECT_EQ(lines[0], coldReference(requests[i]));
        EXPECT_EQ(lines[1], coldReference(requests[i]));
    }
}

SERVER_TEST(FloodPastAdmissionLimitShedsErrBusyInOrder)
{
    service::Server::Options options;
    options.unixPath = socketPath("flood");
    options.acceptLimit = 1;
    options.maxInflight = 1;  // one admitted request at a time
    Harness harness = make(options, 1);
    service::Server &server = *harness.server;
    ASSERT_TRUE(server.listening());
    std::thread run([&] { EXPECT_EQ(server.run(), 0); });

    // One write carries a slow request plus a flood behind it: every
    // flood line is parsed while the slow one still executes, so the
    // admission check sheds each deterministically.
    std::string heavy = "dse id=h net=squeezenet device=690t "
                        "budgets=500,1000,1500,2000,2880";
    std::string batch = heavy + "\n";
    for (int i = 0; i < 6; ++i)
        batch += util::strprintf("dse id=f%d net=alexnet budgets=500\n",
                                 i);
    util::ScopedFd fd(util::connectUnix(options.unixPath));
    ASSERT_TRUE(fd.valid());
    std::vector<std::string> lines =
        splitLines(batchOverFd(fd.get(), batch));
    fd.reset();
    run.join();

    ASSERT_EQ(lines.size(), 7u);
    // The admitted request still answers correctly — shedding is
    // load-dependent, the answer never is.
    EXPECT_EQ(lines[0], coldReference(heavy));
    for (int i = 0; i < 6; ++i)
        EXPECT_EQ(lines[i + 1],
                  util::strprintf("err id=f%d msg=busy", i));
    EXPECT_EQ(server.stats().shedBusy.load(), 6u);
}

SERVER_TEST(OverlongLineAnswersErrAndConnectionStaysUsable)
{
    service::Server::Options options;
    options.unixPath = socketPath("overlong");
    options.acceptLimit = 1;
    options.maxLineBytes = 256;
    Harness harness = make(options, 1);
    service::Server &server = *harness.server;
    ASSERT_TRUE(server.listening());
    std::thread run([&] { EXPECT_EQ(server.run(), 0); });

    std::string batch = "dse id=big net=alexnet " +
                        std::string(4096, 'x') + "\n" +
                        std::string(kCheap) + "\n";
    util::ScopedFd fd(util::connectUnix(options.unixPath));
    ASSERT_TRUE(fd.valid());
    std::vector<std::string> lines =
        splitLines(batchOverFd(fd.get(), batch));
    fd.reset();
    run.join();

    ASSERT_EQ(lines.size(), 2u);
    EXPECT_EQ(lines[0], "err id=big msg=line-too-long");
    EXPECT_EQ(lines[1], coldReference(kCheap));
    EXPECT_EQ(server.stats().shedOversize.load(), 1u);
}

SERVER_TEST(TornLineAtCloseIsStillAnswered)
{
    // A final line without its newline has always been answered by
    // the batch protocol; through the event loop it must still be.
    service::Server::Options options;
    options.unixPath = socketPath("torn");
    options.acceptLimit = 1;
    Harness harness = make(options, 1);
    service::Server &server = *harness.server;
    ASSERT_TRUE(server.listening());
    std::thread run([&] { EXPECT_EQ(server.run(), 0); });

    util::ScopedFd fd(util::connectUnix(options.unixPath));
    ASSERT_TRUE(fd.valid());
    std::vector<std::string> lines = splitLines(batchOverFd(fd.get(), std::string(kCheap)));
    fd.reset();
    run.join();

    ASSERT_EQ(lines.size(), 1u);
    EXPECT_EQ(lines[0], coldReference(kCheap));
}

SERVER_TEST(SlowLorisTripsReadTimeoutWithoutHurtingOthers)
{
    service::Server::Options options;
    options.unixPath = socketPath("loris");
    options.acceptLimit = 2;
    options.readTimeoutMs = 80;
    Harness harness = make(options, 1);
    service::Server &server = *harness.server;
    ASSERT_TRUE(server.listening());
    std::thread run([&] { EXPECT_EQ(server.run(), 0); });

    // The attacker drips a never-finished line one byte at a time;
    // the deadline anchors at the line's first byte, so the drip
    // cannot keep itself alive.
    util::ScopedFd loris(util::connectUnix(options.unixPath));
    ASSERT_TRUE(loris.valid());
    std::thread drip([&] {
        for (int i = 0; i < 40; ++i) {
            if (::send(loris.get(), "d", 1, MSG_NOSIGNAL) != 1)
                return;  // server already dropped us
            ::usleep(10 * 1000);
        }
    });

    // A well-behaved client on the same server is unaffected.
    util::ScopedFd good(util::connectUnix(options.unixPath));
    ASSERT_TRUE(good.valid());
    std::vector<std::string> lines = splitLines(batchOverFd(good.get(), std::string(kCheap) + "\n"));
    ASSERT_EQ(lines.size(), 1u);
    EXPECT_EQ(lines[0], coldReference(kCheap));

    drip.join();
    // The attacker's socket reads EOF: the server hung up on it.
    std::string leftovers;
    EXPECT_TRUE(util::readAll(loris.get(), &leftovers));
    EXPECT_TRUE(leftovers.empty());
    loris.reset();
    good.reset();
    run.join();
    EXPECT_GE(server.stats().timeouts.load(), 1u);
}

SERVER_TEST(IdleConnectionsAreReapedByTheIdleTimeout)
{
    service::Server::Options options;
    options.unixPath = socketPath("idle");
    options.acceptLimit = 1;
    options.idleTimeoutMs = 50;
    Harness harness = make(options, 1);
    service::Server &server = *harness.server;
    ASSERT_TRUE(server.listening());
    std::thread run([&] { EXPECT_EQ(server.run(), 0); });

    util::ScopedFd fd(util::connectUnix(options.unixPath));
    ASSERT_TRUE(fd.valid());
    std::string nothing;
    // Blocking read returns EOF once the server reaps the idler.
    EXPECT_TRUE(util::readAll(fd.get(), &nothing));
    EXPECT_TRUE(nothing.empty());
    fd.reset();
    run.join();
    EXPECT_EQ(server.stats().timeouts.load(), 1u);
}

SERVER_TEST(DrainWhileInFlightFinishesWorkThenExitsZero)
{
    service::Server::Options options;
    options.unixPath = socketPath("drain");
    Harness harness = make(options, 1);  // no accept limit
    service::Server &server = *harness.server;
    ASSERT_TRUE(server.listening());
    std::thread run([&] { EXPECT_EQ(server.run(), 0); });

    // The shutdown verb rides *behind* real work on an open
    // connection: the admitted request must finish and flush before
    // the server exits.
    util::ScopedFd fd(util::connectUnix(options.unixPath));
    ASSERT_TRUE(fd.valid());
    std::string batch = std::string(kCheap) + "\nshutdown\n";
    ASSERT_TRUE(util::writeAll(fd.get(), batch.data(), batch.size()));
    std::string first, second, eof_probe;
    ASSERT_TRUE(readLine(fd.get(), &first));
    ASSERT_TRUE(readLine(fd.get(), &second));
    EXPECT_EQ(first, coldReference(kCheap));
    EXPECT_EQ(second, "ok shutdown");
    // Then the server hangs up (we never half-closed) and run()
    // returns 0: graceful drain, not abandonment.
    EXPECT_FALSE(readLine(fd.get(), &eof_probe));
    fd.reset();
    run.join();
}

SERVER_TEST(RequestDrainStopsAnAcceptUnlimitedServer)
{
    service::Server::Options options;
    options.unixPath = socketPath("reqdrain");
    Harness harness = make(options, 1);
    service::Server &server = *harness.server;
    ASSERT_TRUE(server.listening());
    std::thread run([&] { EXPECT_EQ(server.run(), 0); });
    server.requestDrain();
    run.join();
}

SERVER_TEST(TcpLoopbackServesWithByteParity)
{
    service::Server::Options options;
    options.tcpPort = 0;  // ephemeral
    options.acceptLimit = 1;
    Harness harness = make(options, 1);
    service::Server &server = *harness.server;
    ASSERT_TRUE(server.listening());
    ASSERT_GT(server.tcpPort(), 0);
    std::thread run([&] { EXPECT_EQ(server.run(), 0); });

    util::ScopedFd fd(util::connectTcp(server.tcpPort()));
    ASSERT_TRUE(fd.valid());
    std::string batch = std::string(kCheap) + "\n" +
                        "dse id=t2 net=alexnet budgets=500\n";
    std::vector<std::string> lines =
        splitLines(batchOverFd(fd.get(), batch));
    fd.reset();
    run.join();

    ASSERT_EQ(lines.size(), 2u);
    EXPECT_EQ(lines[0], coldReference(kCheap));
    EXPECT_EQ(lines[1],
              coldReference("dse id=t2 net=alexnet budgets=500"));
}

// Lone only: a front's `stats` line is the shard aggregate, which
// Front.StatsAggregateAcrossShardsWithBreakdown pins.
TEST(Server, StatsVerbReportsTransportCountersWhileAttached)
{
    service::Server::Options options;
    options.unixPath = socketPath("stats");
    options.acceptLimit = 1;
    Harness harness = loneServer(options, 1);
    service::Server &server = *harness.server;
    ASSERT_TRUE(server.listening());
    std::thread run([&] { EXPECT_EQ(server.run(), 0); });

    util::ScopedFd fd(util::connectUnix(options.unixPath));
    ASSERT_TRUE(fd.valid());
    std::string batch = std::string(kCheap) + "\nstats\n";
    std::vector<std::string> lines =
        splitLines(batchOverFd(fd.get(), batch));
    fd.reset();
    run.join();

    ASSERT_EQ(lines.size(), 2u);
    EXPECT_TRUE(util::startsWith(lines[1], "ok stats sessions=1 "))
        << lines[1];
    EXPECT_NE(lines[1].find(" session_rates=mini:0:1"),
              std::string::npos)
        << lines[1];
    EXPECT_NE(lines[1].find(" conns_accepted=1 conns_open=1 "),
              std::string::npos)
        << lines[1];
    EXPECT_NE(lines[1].find(" shed_busy=0 shed_oversize=0 timeouts=0"),
              std::string::npos)
        << lines[1];
}

SERVER_TEST(MidResponseDisconnectCostsOnlyThatConnection)
{
    service::Server::Options options;
    options.unixPath = socketPath("vanish");
    options.acceptLimit = 2;
    Harness harness = make(options, 1);
    service::Server &server = *harness.server;
    ASSERT_TRUE(server.listening());
    std::thread run([&] { EXPECT_EQ(server.run(), 0); });

    // First client requests a big ladder response, then vanishes
    // without reading a byte of it: the server's write path sees
    // EPIPE/ECONNRESET (never SIGPIPE) and treats it as a
    // per-connection failure.
    {
        util::ScopedFd fd(util::connectUnix(options.unixPath));
        ASSERT_TRUE(fd.valid());
        std::string heavy = "dse id=v net=squeezenet device=690t "
                            "budgets=500,1000,1500,2000,2500,2880\n";
        ASSERT_TRUE(util::writeAll(fd.get(), heavy.data(),
                                   heavy.size()));
        ::shutdown(fd.get(), SHUT_WR);
        fd.reset();  // gone before the response is written
    }

    // The server is still alive and still correct.
    util::ScopedFd fd(util::connectUnix(options.unixPath));
    ASSERT_TRUE(fd.valid());
    std::vector<std::string> lines = splitLines(batchOverFd(fd.get(), std::string(kCheap) + "\n"));
    fd.reset();
    run.join();
    ASSERT_EQ(lines.size(), 1u);
    EXPECT_EQ(lines[0], coldReference(kCheap));
}

SERVER_TEST(TwoClientsPipeliningOneNetworkAreNeverShedBusy)
{
    // 40 lines per connection and 80 in flight fit the default caps
    // (64 and 256), so nothing may shed. Through a front, all 80 ride
    // one worker's trunk: the worker must not re-apply a
    // per-connection cap to lines the front already admitted.
    service::Server::Options options;
    options.unixPath = socketPath("twoclients");
    options.acceptLimit = 2;
    Harness harness = make(options, 1);
    service::Server &server = *harness.server;
    ASSERT_TRUE(server.listening());
    std::thread run([&] { EXPECT_EQ(server.run(), 0); });

    constexpr int kLines = 40;
    auto request = [](int client, int i) {
        return util::strprintf("dse id=c%di%d net=mini "
                               "layers=conv1:3:16:14:14:3:1 budgets=200",
                               client, i);
    };
    std::vector<std::string> replies(2);
    std::vector<std::thread> clients;
    for (int c = 0; c < 2; ++c) {
        clients.emplace_back([&, c] {
            std::string batch;
            for (int i = 0; i < kLines; ++i)
                batch += request(c, i) + "\n";
            util::ScopedFd fd(util::connectUnix(options.unixPath));
            ASSERT_TRUE(fd.valid());
            replies[c] = batchOverFd(fd.get(), batch);
        });
    }
    for (std::thread &client : clients)
        client.join();
    run.join();

    for (int c = 0; c < 2; ++c) {
        std::vector<std::string> lines = splitLines(replies[c]);
        ASSERT_EQ(lines.size(), static_cast<size_t>(kLines));
        for (int i = 0; i < kLines; ++i)
            EXPECT_EQ(lines[i], coldReference(request(c, i)));
    }
    EXPECT_EQ(server.stats().shedBusy.load(), 0u);
}

/**
 * A real mclp-serve (or @p binary) child with one resource limited to
 * @p limit, set between fork and exec, and @p env ("NAME=value")
 * added to its environment. Its stdin and stdout are pipes and its
 * stderr goes to @p stderr_path; only those three descriptors cross
 * the exec, so an fd limit counts the server's own. A test that stops
 * early kills the child.
 */
class ServeChild
{
  public:
    ServeChild(std::vector<std::string> flags, int resource, rlim_t limit,
               const std::string &stderr_path,
               const std::string &binary = "mclp-serve",
               std::vector<std::string> env = {})
    {
        flags.insert(flags.begin(),
                     std::string(MCLP_TEST_BINARY_DIR) + "/" + binary);
        std::vector<char *> argv;
        for (std::string &flag : flags)
            argv.push_back(flag.data());
        argv.push_back(nullptr);
        std::vector<char *> envp;
        for (std::string &var : env)
            envp.push_back(var.data());
        for (char **var = environ; *var; ++var)
            envp.push_back(*var);
        envp.push_back(nullptr);
        int in[2] = {-1, -1}, out[2] = {-1, -1};
        EXPECT_EQ(::pipe(in), 0);
        EXPECT_EQ(::pipe(out), 0);
        int err = ::open(stderr_path.c_str(),
                         O_WRONLY | O_CREAT | O_TRUNC, 0600);
        EXPECT_GE(err, 0);
        pid_ = ::fork();
        if (pid_ == 0) {
            ::dup2(in[0], 0);
            ::dup2(out[1], 1);
            ::dup2(err, 2);
            for (int fd = 3; fd < 1024; ++fd)
                ::close(fd);
            struct rlimit rl = {limit, limit};
            if (::setrlimit(resource, &rl) != 0)
                _exit(126);
            ::execve(argv[0], argv.data(), envp.data());
            _exit(127);
        }
        EXPECT_GT(pid_, 0);
        ::close(in[0]);
        ::close(out[1]);
        ::close(err);
        in_.reset(in[1]);
        out_.reset(out[0]);
    }

    ~ServeChild()
    {
        if (pid_ > 0) {
            ::kill(pid_, SIGKILL);
            ::waitpid(pid_, nullptr, 0);
        }
    }

    ServeChild(const ServeChild &) = delete;
    ServeChild &operator=(const ServeChild &) = delete;

    pid_t pid() const { return pid_; }
    util::ScopedFd &in() { return in_; }    ///< the child's stdin
    util::ScopedFd &out() { return out_; }  ///< the child's stdout

    /** Close both pipes, send @p signal (0 = none) and reap the
     * child; its raw wait status. */
    int
    reap(int signal = 0)
    {
        in_.reset();
        out_.reset();
        if (signal != 0)
            ::kill(pid_, signal);
        int status = 0;
        pid_t got;
        do {
            got = ::waitpid(pid_, &status, 0);
        } while (got < 0 && errno == EINTR);
        EXPECT_EQ(got, pid_);
        pid_ = -1;
        return status;
    }

  private:
    pid_t pid_ = -1;
    util::ScopedFd in_;
    util::ScopedFd out_;
};

std::string
fileText(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

/** Make reads on @p fd fail after 30 s instead of blocking forever. */
void
boundReads(const util::ScopedFd &fd)
{
    timeval limit{30, 0};
    ::setsockopt(fd.get(), SOL_SOCKET, SO_RCVTIMEO, &limit, sizeof limit);
}

/** User plus system CPU seconds @p pid has used so far. */
double
cpuSeconds(pid_t pid)
{
    std::string stat = fileText("/proc/" + std::to_string(pid) + "/stat");
    // Fields after the parenthesized command name: state is field 3,
    // utime and stime are fields 14 and 15.
    std::istringstream fields(stat.substr(stat.rfind(')') + 2));
    std::string field;
    double ticks = 0.0;
    for (int i = 3; i <= 15 && fields >> field; ++i)
        if (i >= 14)
            ticks += std::stod(field);
    return ticks / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

/**
 * Run @p binary on a socket with @p fds descriptors and flood it with
 * @p clients connections: it accepts what fits, the rest wait in the
 * listen backlog, so the listener stays readable. It must sit idle,
 * warn about the episode once under its own name, keep answering a
 * connection it accepted before, and accept again once clients leave.
 */
void
expectFdExhaustionPausesAccepts(const std::string &binary,
                                std::vector<std::string> flags,
                                rlim_t fds, int clients)
{
    std::string sock = socketPath("nofile");
    std::string err_path = sock + ".stderr";
    ::unlink(sock.c_str());
    flags.insert(flags.begin(), {"--socket", sock});
    ServeChild child(flags, RLIMIT_NOFILE, fds, err_path, binary);
    ASSERT_GT(child.pid(), 0);
    util::ScopedFd first;
    for (int64_t deadline = util::monotonicMs() + 30000;
         !first.valid(); ::usleep(20 * 1000)) {
        ASSERT_LT(util::monotonicMs(), deadline)
            << "mclp-serve never started listening";
        first.reset(util::connectUnix(sock));
    }
    boundReads(first);
    std::string line = std::string(kCheap) + "\n";
    std::string reply;
    ASSERT_TRUE(util::writeAll(first.get(), line.data(), line.size()));
    ASSERT_TRUE(readLine(first.get(), &reply));
    EXPECT_EQ(reply, coldReference(kCheap));

    std::vector<util::ScopedFd> flood;
    for (int i = 0; i < clients; ++i) {
        flood.emplace_back(util::connectUnix(sock));
        ASSERT_TRUE(flood.back().valid()) << "client " << i;
    }
    for (int64_t deadline = util::monotonicMs() + 30000;
         fileText(err_path).find("Too many open files") ==
         std::string::npos;
         ::usleep(20 * 1000))
        ASSERT_LT(util::monotonicMs(), deadline)
            << "the server never ran out of descriptors";

    double cpu_before = cpuSeconds(child.pid());
    std::this_thread::sleep_for(std::chrono::seconds(1));
    double idle_cpu = cpuSeconds(child.pid()) - cpu_before;
    EXPECT_LT(idle_cpu, 0.25) << "the idle server spins";

    std::string again = "dse id=again net=alexnet budgets=500";
    line = again + "\n";
    ASSERT_TRUE(util::writeAll(first.get(), line.data(), line.size()));
    ASSERT_TRUE(readLine(first.get(), &reply));
    EXPECT_EQ(reply, coldReference(again));

    std::string errors = fileText(err_path);
    EXPECT_LT(std::count(errors.begin(), errors.end(), '\n'), 10)
        << errors.substr(0, 400);
    EXPECT_NE(errors.find(binary + ": accept(): Too many open files"),
              std::string::npos)
        << errors.substr(0, 400);

    // Once the clients leave, accepting resumes: a newcomer queued
    // behind every waiting connection is accepted and answered. Only
    // then does the drain start, with descriptors to spare.
    flood.clear();
    first.reset();
    util::ScopedFd late(util::connectUnix(sock));
    ASSERT_TRUE(late.valid());
    boundReads(late);
    line = std::string(kCheap) + "\n";
    ASSERT_TRUE(util::writeAll(late.get(), line.data(), line.size()));
    ASSERT_TRUE(readLine(late.get(), &reply));
    EXPECT_EQ(reply, coldReference(kCheap));
    late.reset();
    int status = child.reap(SIGTERM);
    EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
        << "wait status " << status << ": " << fileText(err_path);
    ::unlink(err_path.c_str());
    ::unlink(sock.c_str());
}

TEST(ServeProcess, FdExhaustionPausesAcceptsInsteadOfSpinning)
{
    // With 24 descriptors mclp-serve accepts about 18 clients of 40.
    expectFdExhaustionPausesAccepts("mclp-serve", {"--threads", "1"}, 24,
                                    40);
}

TEST(ServeProcess, FrontFdExhaustionPausesAcceptsAndSaysItIsTheFront)
{
    // mclp-front runs the same loop; its warnings name mclp-front, so
    // its own transport faults read apart from its workers'.
    expectFdExhaustionPausesAccepts("mclp-front", {"--workers", "1"}, 40,
                                    60);
}

TEST(ServeProcess, FileSizeLimitFailsThePublishNotTheProcess)
{
    // The drain's flush would write an 80 KiB image under a 16 KiB
    // file-size limit. SIGXFSZ is ignored, so the publish fails with
    // EFBIG instead of killing the server: it exits 0 with cold
    // answers, the tmp file is gone and the previous image is kept.
    std::string dir = socketPath("fsize") + ".cache";
    std::string err_path = dir + ".stderr";
    std::filesystem::remove_all(dir);
    auto serve = [&](const std::vector<std::string> &requests,
                     rlim_t limit) {
        ServeChild child({"--cache-dir", dir}, RLIMIT_FSIZE, limit,
                         err_path);
        std::string batch;
        for (const std::string &request : requests)
            batch += request + "\n";
        EXPECT_TRUE(
            util::writeAll(child.in().get(), batch.data(), batch.size()));
        child.in().reset();
        std::string replies;
        EXPECT_TRUE(util::readAll(child.out().get(), &replies));
        int status = child.reap();
        EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
            << "wait status " << status << ": " << fileText(err_path);
        std::vector<std::string> lines = splitLines(replies);
        EXPECT_EQ(lines.size(), requests.size());
        for (size_t i = 0; i < lines.size() && i < requests.size(); ++i)
            EXPECT_EQ(lines[i], coldReference(requests[i]));
    };

    serve({kCheap}, RLIM_INFINITY);
    std::string segment = dir + "/" + core::kFrontierSegmentFileName;
    std::string published = fileText(segment);
    ASSERT_FALSE(published.empty());

    serve({kCheap, "dse id=a net=alexnet device=690t budgets=1000"},
          16 * 1024);
    EXPECT_EQ(fileText(segment), published) << "previous image kept";
    for (const auto &entry : std::filesystem::directory_iterator(dir))
        EXPECT_NE(entry.path().extension(), ".tmp") << entry.path();
    EXPECT_NE(fileText(err_path).find("previous image kept"),
              std::string::npos);
    std::filesystem::remove_all(dir);
    ::unlink(err_path.c_str());
}

/** Address space @p pid has mapped at its peak so far (VmPeak). */
size_t
peakMappedBytes(pid_t pid)
{
    std::istringstream status(
        fileText("/proc/" + std::to_string(pid) + "/status"));
    std::string line;
    while (std::getline(status, line))
        if (line.rfind("VmPeak:", 0) == 0)
            return std::stoul(line.substr(7)) * 1024;
    return 0;
}

TEST(ServeProcess, AddressSpaceLimitStillPublishesTheCache)
{
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    GTEST_SKIP() << "sanitizer shadow memory needs the address space";
#endif
    // Fifteen zoo sessions leave a segment of more than 30 MiB. An
    // unlimited run measures the address space serving them maps
    // (VmPeak before the drain) and the segment's size; a second run
    // gets that peak plus half the segment as its address-space limit,
    // so serving fits and a whole image held in memory does not. Its
    // drain must still publish, and a fresh server must answer every
    // request warm from that segment with cold bytes. Both runs use
    // one malloc arena: a thread arena reserves 64 MiB at a time, and
    // reserved room would hide what the drain allocates.
    std::vector<std::string> requests;
    const char *zoo[] = {"alexnet",  "vggnet-e",     "squeezenet",
                         "googlenet", "resnet50",    "mobilenet-v1",
                         "resnext-tiny"};
    for (size_t n = 0; n < std::size(zoo); ++n) {
        for (size_t fixed = 0; fixed < 2; ++fixed) {
            bool large = (n + fixed) % 2 == 1;
            requests.push_back(util::strprintf(
                "dse id=z%zu net=%s device=%s type=%s budgets=%s",
                requests.size(), zoo[n], large ? "690t" : "485t",
                fixed ? "fixed" : "float",
                large ? "1800,2880" : "1500,2240"));
        }
    }
    std::vector<std::string> cold;
    for (const std::string &request : requests)
        cold.push_back(coldReference(request));

    std::string sock = socketPath("as");
    std::string dir = sock + ".cache";
    std::string err_path = sock + ".stderr";
    std::string segment = dir + "/" + core::kFrontierSegmentFileName;
    // Answer every request over the socket under @p limit, note the
    // serving peak, then drain; the child's wait status.
    auto serve = [&](rlim_t limit, size_t *serving_peak) {
        std::filesystem::remove_all(dir);
        ::unlink(sock.c_str());
        ServeChild child({"--socket", sock, "--cache-dir", dir, "--threads",
                          "1"},
                         RLIMIT_AS, limit, err_path, "mclp-serve",
                         {"MALLOC_ARENA_MAX=1"});
        util::ScopedFd fd;
        for (int64_t deadline = util::monotonicMs() + 30000; !fd.valid();
             ::usleep(20 * 1000)) {
            if (util::monotonicMs() > deadline)
                return -1;
            fd.reset(util::connectUnix(sock));
        }
        boundReads(fd);
        std::string batch;
        for (const std::string &request : requests)
            batch += request + "\n";
        EXPECT_TRUE(util::writeAll(fd.get(), batch.data(), batch.size()));
        for (size_t i = 0; i < requests.size(); ++i) {
            std::string reply;
            EXPECT_TRUE(readLine(fd.get(), &reply));
            EXPECT_EQ(reply, cold[i]);
        }
        *serving_peak = peakMappedBytes(child.pid());
        fd.reset();
        return child.reap(SIGTERM);
    };

    size_t serving_peak = 0;
    int status = serve(RLIM_INFINITY, &serving_peak);
    ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
        << "wait status " << status << ": " << fileText(err_path);
    size_t image_bytes = std::filesystem::file_size(segment);
    ASSERT_GE(image_bytes, size_t{30} << 20);
    ASSERT_GT(serving_peak, 0u);

    size_t limited_peak = 0;
    status = serve(serving_peak + image_bytes / 2, &limited_peak);
    EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
        << "wait status " << status << ": " << fileText(err_path);
    ASSERT_TRUE(std::filesystem::exists(segment));

    ServeChild warm({"--cache-dir", dir}, RLIMIT_AS, RLIM_INFINITY,
                    err_path);
    std::string batch;
    for (const std::string &request : requests)
        batch += request + "\n";
    batch += "cache-stats\n";
    EXPECT_TRUE(util::writeAll(warm.in().get(), batch.data(), batch.size()));
    warm.in().reset();
    std::string replies;
    EXPECT_TRUE(util::readAll(warm.out().get(), &replies));
    std::vector<std::string> lines = splitLines(replies);
    ASSERT_EQ(lines.size(), requests.size() + 1);
    for (size_t i = 0; i < requests.size(); ++i)
        EXPECT_EQ(lines[i], cold[i]);
    EXPECT_NE(lines.back().find(" tier_cold=0 "), std::string::npos)
        << lines.back();
    EXPECT_NE(lines.back().find(" clean=1"), std::string::npos)
        << lines.back();
    status = warm.reap();
    EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
    std::filesystem::remove_all(dir);
    ::unlink(err_path.c_str());
    ::unlink(sock.c_str());
}

} // namespace
} // namespace mclp
