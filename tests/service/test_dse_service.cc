/**
 * @file
 * The batch DSE service must be invisible in results: responses are
 * bit-identical to cold MultiClpOptimizer runs of the same requests,
 * regardless of batch composition, concurrency, registry warmth, or
 * transport (in-process, stream, or Unix socket). Ordering is pinned
 * too — responses[i] always answers lines[i], with malformed lines
 * answered in place by err lines.
 */

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/optimizer.h"
#include "core/schedule.h"
#include "model/metrics.h"
#include "nn/zoo.h"
#include "service/dse_codec.h"
#include "service/dse_service.h"
#include "util/string_utils.h"

namespace mclp {
namespace {

/** The reference answer: independent cold runs, wire-encoded. */
std::string
coldReference(const std::string &request_line)
{
    core::DseRequest request = service::decodeRequest(request_line);
    return service::encodeResponse(
        service::answerRequest(request, nullptr));
}

std::vector<std::string>
mixedBatch()
{
    return {
        "dse id=a1 net=alexnet device=690t",
        "dse id=s1 net=squeezenet device=690t type=fixed mhz=170 "
        "budgets=1000,2880",
        "dse id=a2 net=alexnet device=485t mode=single",
        "dse id=l1 net=alexnet budgets=500,2880 mode=latency",
        "dse id=c1 net=mini "
        "layers=conv1:3:16:14:14:3:1;conv2:16:24:7:7:3:1 budgets=200",
    };
}

TEST(DseService, MixedBatchMatchesColdRunsInOrder)
{
    service::ServiceOptions options;
    options.threads = 1;
    service::DseService dse(options);
    std::vector<std::string> lines = mixedBatch();
    std::vector<std::string> responses = dse.handleBatch(lines);
    ASSERT_EQ(responses.size(), lines.size());
    for (size_t i = 0; i < lines.size(); ++i) {
        EXPECT_EQ(responses[i], coldReference(lines[i]))
            << "request " << lines[i];
    }
}

TEST(DseService, ConcurrencyAndWarmthNeverChangeResponses)
{
    service::ServiceOptions serial;
    serial.threads = 1;
    service::DseService cold_service(serial);

    service::ServiceOptions parallel;
    parallel.threads = 4;
    service::DseService warm_service(parallel);

    std::vector<std::string> lines = mixedBatch();
    std::vector<std::string> first = cold_service.handleBatch(lines);
    std::vector<std::string> threaded = warm_service.handleBatch(lines);
    EXPECT_EQ(first, threaded);

    // A warm second batch (every session already resident) must be
    // byte-identical to the first.
    std::vector<std::string> second = warm_service.handleBatch(lines);
    EXPECT_EQ(first, second);

    core::SessionRegistry::Stats stats =
        warm_service.registry().stats();
    EXPECT_GE(stats.hits, lines.size() - 1)
        << "second batch should reuse resident sessions";
}

TEST(DseService, MalformedLinesAnswerInPlace)
{
    service::DseService dse{service::ServiceOptions{}};
    std::vector<std::string> lines{
        "dse id=ok1 net=alexnet budgets=500",
        "dse id=bad1 net=no-such-network device=690t",
        "not a request at all",
        "",
        "# comment",
        "dse id=ok2 net=alexnet budgets=500",
    };
    std::vector<std::string> responses = dse.handleBatch(lines);
    ASSERT_EQ(responses.size(), lines.size());
    EXPECT_TRUE(util::startsWith(responses[0], "ok id=ok1 "));
    EXPECT_TRUE(util::startsWith(responses[1], "err id=bad1 "));
    EXPECT_TRUE(util::startsWith(responses[2], "err id=- "));
    EXPECT_EQ(responses[3], "");
    EXPECT_EQ(responses[4], "");
    EXPECT_TRUE(util::startsWith(responses[5], "ok id=ok2 "));
    // The two well-formed requests got identical answers.
    EXPECT_EQ(responses[0].substr(9), responses[5].substr(9));
}

TEST(DseService, WireThreadCountIsServerPolicyNotClientChoice)
{
    // A hostile threads= value must not be able to exhaust the host:
    // the dispatcher overrides it with its own session policy, and
    // the answer matches the plain request bit for bit (thread count
    // never changes results anyway).
    service::DseService dse{service::ServiceOptions{}};
    std::string greedy = dse.handleLine(
        "dse id=t net=alexnet budgets=500 threads=500000");
    EXPECT_TRUE(util::startsWith(greedy, "ok id=t "));
    std::string plain =
        dse.handleLine("dse id=t net=alexnet budgets=500");
    EXPECT_EQ(greedy, plain);
}

TEST(DseService, StreamModeAnswersEveryRequestLine)
{
    service::DseService dse{service::ServiceOptions{}};
    std::istringstream in("dse id=x net=alexnet budgets=400\n"
                          "# comment\n"
                          "stats\n");
    std::ostringstream out;
    dse.serveStream(in, out);
    std::vector<std::string> lines =
        util::split(out.str(), '\n');
    ASSERT_GE(lines.size(), 2u);
    EXPECT_TRUE(util::startsWith(lines[0], "ok id=x "));
    EXPECT_TRUE(util::startsWith(lines[1], "ok stats sessions=1 "));
}

TEST(DseService, ResponsesDecodeToDesignsThatReproduceMetrics)
{
    service::DseService dse{service::ServiceOptions{}};
    std::string line = "dse id=q net=squeezenet device=485t "
                       "type=fixed budgets=800";
    core::DseResponse response =
        service::decodeResponse(dse.handleLine(line));
    ASSERT_TRUE(response.ok);
    ASSERT_EQ(response.points.size(), 1u);
    const core::DsePoint &point = response.points[0];

    // Rebuild the network and re-evaluate the decoded design: the
    // response's metrics must be reproducible from its own design.
    core::DseRequest request = service::decodeRequest(line);
    nn::Network network = core::resolveNetwork(request);
    auto metrics =
        model::evaluateDesign(point.design, network, point.budget);
    EXPECT_EQ(metrics.epochCycles, point.epochCycles);
}

TEST(DseService, UnixSocketServesABatch)
{
    std::string path = util::strprintf("/tmp/mclp_test_%d.sock",
                                       static_cast<int>(::getpid()));
    service::DseService dse{service::ServiceOptions{}};
    std::thread server(
        [&] { EXPECT_EQ(dse.serveSocket(path, 1), 0); });

    // Wait for the listener, then run one batch over the socket.
    int fd = -1;
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(),
                 sizeof(addr.sun_path) - 1);
    for (int attempt = 0; attempt < 200; ++attempt) {
        fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
        ASSERT_GE(fd, 0);
        if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                      sizeof(addr)) == 0)
            break;
        ::close(fd);
        fd = -1;
        ::usleep(10000);
    }
    ASSERT_GE(fd, 0) << "could not connect to " << path;

    std::string batch = "dse id=u1 net=alexnet budgets=500\n"
                        "dse id=u2 net=alexnet budgets=500 "
                        "mode=single\n";
    ASSERT_EQ(::write(fd, batch.data(), batch.size()),
              static_cast<ssize_t>(batch.size()));
    ::shutdown(fd, SHUT_WR);

    std::string reply;
    char buffer[4096];
    ssize_t got;
    while ((got = ::read(fd, buffer, sizeof(buffer))) > 0)
        reply.append(buffer, static_cast<size_t>(got));
    ::close(fd);
    server.join();

    std::vector<std::string> lines = util::split(reply, '\n');
    ASSERT_GE(lines.size(), 2u);
    EXPECT_EQ(lines[0],
              coldReference("dse id=u1 net=alexnet budgets=500"));
    EXPECT_EQ(lines[1], coldReference("dse id=u2 net=alexnet "
                                      "budgets=500 mode=single"));
}

TEST(DseService, ClientDroppingMidResponseDoesNotKillTheServer)
{
    std::string path = util::strprintf("/tmp/mclp_test_drop_%d.sock",
                                       static_cast<int>(::getpid()));
    service::DseService dse{service::ServiceOptions{}};
    std::thread server(
        [&] { EXPECT_EQ(dse.serveSocket(path, 2), 0); });

    auto connect_to = [&]() -> int {
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        std::strncpy(addr.sun_path, path.c_str(),
                     sizeof(addr.sun_path) - 1);
        for (int attempt = 0; attempt < 200; ++attempt) {
            int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
            if (fd < 0)
                return -1;
            if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                          sizeof(addr)) == 0)
                return fd;
            ::close(fd);
            ::usleep(10000);
        }
        return -1;
    };

    // First client: send a ladder big enough that its response fills
    // socket buffers, then vanish without reading a byte. The write
    // path must see EPIPE/ECONNRESET (never SIGPIPE) and treat it as
    // a per-connection failure.
    int fd = connect_to();
    ASSERT_GE(fd, 0) << "could not connect to " << path;
    std::string batch =
        "dse id=d1 net=squeezenet device=690t "
        "budgets=500,1000,1500,2000,2500,2880\n";
    ASSERT_EQ(::write(fd, batch.data(), batch.size()),
              static_cast<ssize_t>(batch.size()));
    ::shutdown(fd, SHUT_WR);
    ::close(fd);  // gone before the response is written

    // Second client: the server must still be alive and correct.
    fd = connect_to();
    ASSERT_GE(fd, 0) << "server died after the dropped client";
    std::string ok_batch = "dse id=d2 net=alexnet budgets=500\n";
    ASSERT_EQ(::write(fd, ok_batch.data(), ok_batch.size()),
              static_cast<ssize_t>(ok_batch.size()));
    ::shutdown(fd, SHUT_WR);
    std::string reply;
    char buffer[4096];
    ssize_t got;
    while ((got = ::read(fd, buffer, sizeof(buffer))) > 0)
        reply.append(buffer, static_cast<size_t>(got));
    ::close(fd);
    server.join();

    std::vector<std::string> lines = util::split(reply, '\n');
    ASSERT_GE(lines.size(), 1u);
    EXPECT_EQ(lines[0],
              coldReference("dse id=d2 net=alexnet budgets=500"));
}

/** Drop the joint-only attribution field for byte comparisons. */
std::string
stripSubnets(const std::string &line)
{
    std::string out = line;
    size_t pos = out.find(" subnets=");
    if (pos == std::string::npos)
        return out;
    size_t end = out.find(' ', pos + 1);
    out.erase(pos, end == std::string::npos ? std::string::npos
                                            : end - pos);
    return out;
}

TEST(DseService, JointRequestMatchesHandConcatenatedNetwork)
{
    // Section 4.3 cold parity: a joint request must be byte-identical
    // to optimizing the hand-concatenated network — same designs,
    // same metrics, same wire bytes — modulo the attribution field
    // only joint responses carry.
    service::DseService dse{service::ServiceOptions{}};
    std::string joint = dse.handleLine(
        "dse id=j nets=alexnet,squeezenet device=690t budgets=1000");
    ASSERT_TRUE(util::startsWith(joint, "ok id=j ")) << joint;

    nn::Network concat = nn::concatenateNetworks(
        {nn::networkByName("alexnet"), nn::networkByName("squeezenet")},
        "alexnet+squeezenet");
    core::DseRequest hand;
    hand.id = "j";
    hand.network = concat.name();
    hand.layers = concat.layers();
    hand.device = "690t";
    hand.dspBudgets = {1000};
    std::string hand_response = service::encodeResponse(
        service::answerRequest(hand, nullptr));
    EXPECT_EQ(stripSubnets(joint), hand_response);

    // The attribution spans partition the concatenation in order.
    core::DseResponse decoded = service::decodeResponse(joint);
    ASSERT_EQ(decoded.subnets.size(), 2u);
    EXPECT_EQ(decoded.subnets[0].name, "alexnet");
    EXPECT_EQ(decoded.subnets[0].firstLayer, 0u);
    EXPECT_EQ(decoded.subnets[0].numLayers,
              nn::networkByName("alexnet").numLayers());
    EXPECT_EQ(decoded.subnets[1].name, "squeezenet");
    EXPECT_EQ(decoded.subnets[1].firstLayer,
              decoded.subnets[0].numLayers);
    EXPECT_EQ(decoded.subnets[0].numLayers +
                  decoded.subnets[1].numLayers,
              concat.numLayers());
}

TEST(DseService, WeightedJointMatchesHandExpandedConcatenation)
{
    // weight=2 means two copies of the sub-network in the
    // concatenation (two images of it per joint epoch); the hand
    // expansion spells the copies out.
    service::DseService dse{service::ServiceOptions{}};
    std::string joint = dse.handleLine(
        "dse id=w nets=x:#2,y:#1 weights=2,1 budgets=200 "
        "layers=c1:3:16:14:14:3:1;c2:16:24:7:7:3:1;d1:8:8:10:10:3:1");
    ASSERT_TRUE(util::startsWith(joint, "ok id=w ")) << joint;

    std::vector<nn::ConvLayer> x_layers{
        nn::makeConvLayer("c1", 3, 16, 14, 14, 3, 1),
        nn::makeConvLayer("c2", 16, 24, 7, 7, 3, 1)};
    std::vector<nn::ConvLayer> y_layers{
        nn::makeConvLayer("d1", 8, 8, 10, 10, 3, 1)};
    nn::Network concat = nn::concatenateNetworks(
        {nn::Network("x.0", x_layers), nn::Network("x.1", x_layers),
         nn::Network("y", y_layers)},
        "x+y");
    core::DseRequest hand;
    hand.id = "w";
    hand.network = concat.name();
    hand.layers = concat.layers();
    hand.dspBudgets = {200};
    EXPECT_EQ(stripSubnets(joint),
              service::encodeResponse(
                  service::answerRequest(hand, nullptr)));

    core::DseResponse decoded = service::decodeResponse(joint);
    ASSERT_EQ(decoded.subnets.size(), 3u);
    EXPECT_EQ(decoded.subnets[0].name, "x.0");
    EXPECT_EQ(decoded.subnets[1].name, "x.1");
    EXPECT_EQ(decoded.subnets[1].firstLayer, 2u);
    EXPECT_EQ(decoded.subnets[2].name, "y");
    EXPECT_EQ(decoded.subnets[2].firstLayer, 4u);
}

TEST(DseService, JointErrorPathsAnswerErrLinesNotFatal)
{
    // Malformed joint requests are user errors: the batch answers
    // them in place with err lines and keeps serving.
    service::DseService dse{service::ServiceOptions{}};
    std::vector<std::string> responses = dse.handleBatch({
        "dse id=dup nets=a:alexnet,a:squeezenet budgets=100",
        "dse id=none nets= budgets=100",
        "dse id=wmis nets=alexnet,squeezenet weights=2 budgets=100",
        "dse id=ok nets=alexnet,squeezenet budgets=300",
    });
    ASSERT_EQ(responses.size(), 4u);
    EXPECT_TRUE(util::startsWith(responses[0], "err id=dup "))
        << responses[0];
    EXPECT_NE(responses[0].find("duplicate sub-network"),
              std::string::npos)
        << responses[0];
    EXPECT_TRUE(util::startsWith(responses[1], "err id=none "))
        << responses[1];
    EXPECT_TRUE(util::startsWith(responses[2], "err id=wmis "))
        << responses[2];
    EXPECT_NE(responses[2].find("weights="), std::string::npos)
        << responses[2];
    EXPECT_TRUE(util::startsWith(responses[3], "ok id=ok "))
        << responses[3];
}

TEST(DseService, CacheStatsVerbReportsDisabledWithoutCacheDir)
{
    service::DseService dse{service::ServiceOptions{}};
    EXPECT_EQ(dse.handleLine("cache-stats"),
              "ok cache-stats enabled=0");
}

TEST(DseService, GroupedRequestsMatchColdRunsWarmOrNot)
{
    // Depthwise/grouped layers ride the same wire, registry, and
    // optimizer paths as plain ones; a repeated request (warm
    // session) must still answer byte-identically to a cold run.
    std::vector<std::string> lines = {
        "dse id=dw net=gmini "
        "layers=dw:8:8:7:7:3:1:8;pw:8:16:7:7:1:1 budgets=200",
        "dse id=mb net=mobilenet-v1 budgets=500",
        "dse id=mb2 net=mobilenet-v1 budgets=500",
    };
    service::DseService dse{service::ServiceOptions{}};
    std::vector<std::string> responses = dse.handleBatch(lines);
    ASSERT_EQ(responses.size(), lines.size());
    for (size_t i = 0; i < lines.size(); ++i)
        EXPECT_EQ(responses[i], coldReference(lines[i])) << lines[i];
}

TEST(DseService, MidLifeFlushHandsWarmSegmentToANewService)
{
    // What mclp-serve --cache-flush-interval-ms buys: flushCache() on
    // a live service publishes the record file and segment, so a
    // service opened afterwards (a new shard, a second host process)
    // starts mmap-warm without waiting for the first one to exit —
    // and still answers byte-identically.
    char tmpl[] = "/tmp/mclp-flush-test-XXXXXX";
    ASSERT_NE(mkdtemp(tmpl), nullptr);
    std::string dir = tmpl;
    std::string line = "dse id=f net=alexnet device=690t budgets=1500";
    std::string cold = coldReference(line);

    service::ServiceOptions options;
    options.cacheDir = dir;
    service::DseService first(options);
    EXPECT_EQ(first.handleLine(line), cold);
    first.flushCache();  // mid-life: `first` keeps serving below

    {
        service::DseService second(options);
        std::string stats = second.handleLine("cache-stats");
        EXPECT_NE(stats.find(" segment_mapped=1"), std::string::npos)
            << stats;
        EXPECT_EQ(second.handleLine(line), cold);
    }

    // The flushed service is still live: same answers, flushable
    // again (the periodic flusher fires many times per lifetime).
    EXPECT_EQ(first.handleLine(line), cold);
    first.flushCache();
    std::filesystem::remove_all(dir);
}

/** Every file in @p dir, name -> exact bytes (the cache dir is flat). */
std::map<std::string, std::string>
dirBytes(const std::string &dir)
{
    std::map<std::string, std::string> files;
    for (const auto &entry :
         std::filesystem::directory_iterator(dir)) {
        std::ifstream in(entry.path(), std::ios::binary);
        std::ostringstream bytes;
        bytes << in.rdbuf();
        files[entry.path().filename().string()] = bytes.str();
    }
    return files;
}

TEST(DseService, TimerFlushRacingDrainNeverTearsTheCache)
{
    // --cache-flush-interval-ms puts a background flush on a timer
    // that can fire at any moment during SIGTERM drain: the timer
    // thread and the shutdown flush may both be in flushCache() at
    // once. FrontierCache::flush() makes that safe by construction
    // (state snapshot under its mutex, merge under the advisory file
    // lock, atomic rename) — this pins it end to end: a service
    // hammered by a 1 ms timer through its whole life, including
    // destruction, leaves a cache a fresh service loads clean and
    // answers from byte-identically, and a second lifetime that
    // learns nothing new leaves every cache file byte-untouched (no
    // double-flush, no torn segment, no gratuitous generation bump).
    char tmpl[] = "/tmp/mclp-flushrace-test-XXXXXX";
    ASSERT_NE(mkdtemp(tmpl), nullptr);
    std::string dir = tmpl;
    std::vector<std::string> lines = {
        "dse id=r1 net=alexnet device=690t budgets=500,1500",
        "dse id=r2 net=mini layers=conv1:3:16:14:14:3:1 budgets=200",
    };

    service::ServiceOptions options;
    options.cacheDir = dir;
    options.cacheFlushIntervalMs = 1;
    {
        service::DseService racy(options);
        for (const std::string &line : lines)
            EXPECT_EQ(racy.handleLine(line), coldReference(line));
        // Let the timer fire many times over live state, then
        // destroy with it still armed: the drain flush races the
        // last timer flush right here.
        std::this_thread::sleep_for(std::chrono::milliseconds(25));
    }

    // The segment is the cache's only artifact: the drain leaves it
    // and the flush lock, nothing else.
    std::map<std::string, std::string> after_drain = dirBytes(dir);
    ASSERT_EQ(after_drain.size(), 2u);
    ASSERT_TRUE(after_drain.count("frontier_cache.seg"));
    ASSERT_TRUE(after_drain.count("frontier_cache.lock"));

    {
        service::DseService second(options);
        std::string stats = second.handleLine("cache-stats");
        EXPECT_NE(stats.find(" segment_mapped=1"), std::string::npos)
            << stats;
        EXPECT_NE(stats.find(" clean=1"), std::string::npos) << stats;
        for (const std::string &line : lines)
            EXPECT_EQ(second.handleLine(line), coldReference(line));
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }

    // The second lifetime replayed the same requests from the cache:
    // nothing new to persist, so its timer flushes and its shutdown
    // flush must all no-op — byte-identical files, same generation.
    EXPECT_EQ(dirBytes(dir), after_drain);
    std::filesystem::remove_all(dir);
}

TEST(DseService, OversizedRequestAnswersWithErrLineNotACrash)
{
    // Admission control surfaces as a per-request err line: a
    // network whose estimated warm state exceeds the registry's
    // whole byte budget is rejected, and the batch keeps going.
    service::ServiceOptions options;
    options.maxBytes = 64 * 1024;
    service::DseService dse(options);
    std::vector<std::string> responses = dse.handleBatch({
        "dse id=g net=googlenet device=690t budgets=2880",
        "dse id=a net=alexnet budgets=300",
    });
    ASSERT_EQ(responses.size(), 2u);
    EXPECT_TRUE(util::startsWith(responses[0], "err id=g "));
    EXPECT_TRUE(responses[0].find("registry budget") !=
                std::string::npos)
        << responses[0];
    EXPECT_EQ(responses[1],
              coldReference("dse id=a net=alexnet budgets=300"));
}

} // namespace
} // namespace mclp
