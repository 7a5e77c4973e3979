/**
 * @file
 * Concurrent serving benchmark: requests/s and latency percentiles
 * through the real event loop (service/server.h) over a Unix socket.
 *
 * One Server instance (so the session registry stays warm across
 * client counts) serves N ∈ {1, 4, 16} closed-loop clients, each
 * sending the same cheap warm request back-to-back and timing every
 * round trip. The request is deliberately tiny — the point is the
 * serving loop's overhead (poll wakeups, reorder buffer, worker
 * handoff, socket round trip), not optimizer time, which
 * service_batch and perf_optimizer already measure. Every response
 * is byte-compared to the cold in-process answer; any mismatch
 * fails the run (exit 1).
 *
 * Numbers land in the "serving" section of BENCH_optimizer.json.
 */

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "service/dse_codec.h"
#include "service/dse_service.h"
#include "service/server.h"
#include "util/net.h"
#include "util/string_utils.h"
#include "util/table.h"

namespace {

using namespace mclp;

constexpr int kRequestsPerClient = 200;

const char *kRequest = "dse id=bench net=mini "
                       "layers=conv1:3:16:14:14:3:1 budgets=200";

std::string
socketPath()
{
    return util::strprintf("/tmp/mclp_bench_serve_%d.sock",
                           static_cast<int>(::getpid()));
}

/** One closed-loop client: send, await the full response, repeat.
 * Latencies (µs) land in @p latencies_us; a parity or transport
 * failure sets @p failed. */
void
clientLoop(const std::string &path, const std::string &expected,
           std::vector<double> *latencies_us, bool *failed)
{
    util::ScopedFd fd(util::connectUnix(path));
    if (!fd.valid()) {
        *failed = true;
        return;
    }
    std::string line = std::string(kRequest) + "\n";
    std::string reply;
    for (int i = 0; i < kRequestsPerClient; ++i) {
        auto start = std::chrono::steady_clock::now();
        if (!util::writeAll(fd.get(), line.data(), line.size())) {
            *failed = true;
            return;
        }
        reply.clear();
        char ch;
        while (::read(fd.get(), &ch, 1) == 1 && ch != '\n')
            reply.push_back(ch);
        latencies_us->push_back(bench::msSince(start) * 1000.0);
        if (reply != expected) {
            *failed = true;
            return;
        }
    }
}

double
percentile(std::vector<double> sorted, double p)
{
    if (sorted.empty())
        return 0.0;
    size_t idx = static_cast<size_t>(p * (sorted.size() - 1));
    return sorted[idx];
}

} // namespace

int
main()
{
    bench::printBenchHeader(
        "Concurrent serving: closed-loop clients through the event "
        "loop",
        "Section 4.3 (service harness)");

    service::ServiceOptions service_opts;
    service_opts.threads = 1;
    if (const char *env = std::getenv("MCLP_BENCH_THREADS"))
        service_opts.threads = std::atoi(env);
    service::DseService service(service_opts);

    std::string expected = service::encodeResponse(
        service::answerRequest(service::decodeRequest(kRequest),
                               nullptr));

    service::Server::Options server_opts;
    server_opts.unixPath = socketPath();
    service::Server server(service, server_opts);
    if (!server.listening()) {
        std::fprintf(stderr, "serve_concurrent: bind failed\n");
        return 1;
    }
    std::thread server_thread([&server] { server.run(); });

    // Warm the session once so every timed request measures the
    // serving loop, not a one-off frontier build.
    {
        std::vector<double> warmup;
        bool failed = false;
        clientLoop(server_opts.unixPath, expected, &warmup, &failed);
        if (failed) {
            std::fprintf(stderr, "serve_concurrent: warmup failed\n");
            server.requestDrain();
            server_thread.join();
            return 1;
        }
    }

    util::TextTable table({"clients", "requests", "wallclock (ms)",
                           "requests/s", "p50 (us)", "p99 (us)"});
    bool any_failed = false;
    for (int clients : {1, 4, 16}) {
        std::vector<std::vector<double>> latencies(clients);
        // One char per client, not vector<bool>: that packs the flags
        // into shared words, so the clients' writes would race.
        std::vector<char> failed(clients, 0);
        std::vector<std::thread> threads;
        auto start = std::chrono::steady_clock::now();
        for (int c = 0; c < clients; ++c) {
            threads.emplace_back([&, c] {
                bool client_failed = false;
                clientLoop(server_opts.unixPath, expected,
                           &latencies[c], &client_failed);
                failed[c] = client_failed;
            });
        }
        for (std::thread &t : threads)
            t.join();
        double wall_ms = bench::msSince(start);

        std::vector<double> all;
        for (const auto &per_client : latencies)
            all.insert(all.end(), per_client.begin(),
                       per_client.end());
        std::sort(all.begin(), all.end());
        for (char f : failed)
            any_failed = any_failed || f;

        size_t total = all.size();
        table.addRow({util::strprintf("%d", clients),
                      util::strprintf("%zu", total),
                      util::strprintf("%.1f", wall_ms),
                      util::strprintf("%.0f",
                                      1000.0 * total / wall_ms),
                      util::strprintf("%.0f", percentile(all, 0.50)),
                      util::strprintf("%.0f", percentile(all, 0.99))});
    }
    std::printf("%s\n", table.render().c_str());

    server.requestDrain();
    server_thread.join();
    ::unlink(server_opts.unixPath.c_str());

    if (any_failed) {
        std::printf("\nFAIL: a client saw a transport error or a "
                    "response that differed from the cold answer\n");
        return 1;
    }
    std::printf("\nAll responses byte-identical to the cold "
                "in-process answer.\n");
    return 0;
}
