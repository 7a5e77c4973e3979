/**
 * @file
 * Optimizer runtime microbenchmarks (google-benchmark). Section 4.3
 * claims the C++ optimizer completes GoogLeNet in "several minutes"
 * and Section 6.1 reports "less than a minute to less than an hour"
 * overall; these benchmarks verify our implementation is comfortably
 * inside that envelope.
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "core/optimizer.h"
#include "fpga/device.h"
#include "nn/zoo.h"
#include "util/flags.h"
#include "util/logging.h"
#include "util/prof.h"
#include "util/thread_pool.h"

namespace {

using namespace mclp;

/**
 * The engine-comparison pairs below feed BENCH_optimizer.json: the
 * Reference engine re-runs the seed's Listing-3 loop (linear target
 * scan, full shape enumeration) while the Frontier engine (the
 * default used by every other benchmark here) answers from Pareto
 * frontiers with a bisection search. Both produce identical designs.
 */
core::OptimizationResult
runMulti(const nn::Network &net, fpga::DataType type,
         const fpga::ResourceBudget &budget, core::OptimizerEngine engine,
         util::ThreadPool *pool = nullptr)
{
    core::OptimizerOptions options;
    options.engine = engine;
    options.pool = pool;
    return core::MultiClpOptimizer(net, type, budget, options).run();
}

void
BM_SingleClpAlexNetFloat485(benchmark::State &state)
{
    nn::Network net = nn::makeAlexNet();
    auto budget = fpga::standardBudget(fpga::virtex7_485t(), 100.0);
    for (auto _ : state) {
        auto result =
            core::optimizeSingleClp(net, fpga::DataType::Float32, budget);
        benchmark::DoNotOptimize(result.metrics.epochCycles);
    }
}
BENCHMARK(BM_SingleClpAlexNetFloat485)->Unit(benchmark::kMillisecond);

void
BM_MultiClpAlexNetFloat690(benchmark::State &state)
{
    nn::Network net = nn::makeAlexNet();
    auto budget = fpga::standardBudget(fpga::virtex7_690t(), 100.0);
    for (auto _ : state) {
        auto result = core::optimizeMultiClp(net, fpga::DataType::Float32,
                                             budget);
        benchmark::DoNotOptimize(result.metrics.epochCycles);
    }
}
BENCHMARK(BM_MultiClpAlexNetFloat690)->Unit(benchmark::kMillisecond);

void
BM_MultiClpAlexNetFloat690Reference(benchmark::State &state)
{
    nn::Network net = nn::makeAlexNet();
    auto budget = fpga::standardBudget(fpga::virtex7_690t(), 100.0);
    for (auto _ : state) {
        auto result = runMulti(net, fpga::DataType::Float32, budget,
                               core::OptimizerEngine::Reference);
        benchmark::DoNotOptimize(result.metrics.epochCycles);
    }
}
BENCHMARK(BM_MultiClpAlexNetFloat690Reference)
    ->Unit(benchmark::kMillisecond);

void
BM_MultiClpAlexNetFloat690AllThreads(benchmark::State &state)
{
    nn::Network net = nn::makeAlexNet();
    auto budget = fpga::standardBudget(fpga::virtex7_690t(), 100.0);
    util::ThreadPool pool(0);  // all cores, built once like a front end's
    for (auto _ : state) {
        auto result = runMulti(net, fpga::DataType::Float32, budget,
                               core::OptimizerEngine::Frontier, &pool);
        benchmark::DoNotOptimize(result.metrics.epochCycles);
    }
}
BENCHMARK(BM_MultiClpAlexNetFloat690AllThreads)
    ->Unit(benchmark::kMillisecond);

void
BM_MultiClpSqueezeNetFixed690Reference(benchmark::State &state)
{
    nn::Network net = nn::makeSqueezeNet();
    auto budget = fpga::standardBudget(fpga::virtex7_690t(), 170.0);
    for (auto _ : state) {
        auto result = runMulti(net, fpga::DataType::Fixed16, budget,
                               core::OptimizerEngine::Reference);
        benchmark::DoNotOptimize(result.metrics.epochCycles);
    }
}
BENCHMARK(BM_MultiClpSqueezeNetFixed690Reference)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

void
BM_MultiClpSqueezeNetFixed690(benchmark::State &state)
{
    nn::Network net = nn::makeSqueezeNet();
    auto budget = fpga::standardBudget(fpga::virtex7_690t(), 170.0);
    for (auto _ : state) {
        auto result = core::optimizeMultiClp(net, fpga::DataType::Fixed16,
                                             budget, 6);
        benchmark::DoNotOptimize(result.metrics.epochCycles);
    }
}
BENCHMARK(BM_MultiClpSqueezeNetFixed690)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

void
BM_MultiClpGoogLeNetFloat690(benchmark::State &state)
{
    // The paper's runtime anchor: GoogLeNet completes in minutes.
    nn::Network net = nn::makeGoogLeNet();
    auto budget = fpga::standardBudget(fpga::virtex7_690t(), 100.0);
    for (auto _ : state) {
        auto result = core::optimizeMultiClp(net, fpga::DataType::Float32,
                                             budget, 6);
        benchmark::DoNotOptimize(result.metrics.epochCycles);
    }
}
BENCHMARK(BM_MultiClpGoogLeNetFloat690)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

void
printUsage()
{
    std::printf(
        "perf_optimizer: optimizer runtime microbenchmarks\n\n"
        "usage: perf_optimizer [options] [--benchmark_* flags]\n"
        "  --threads LIST   scaling sweep instead of the benchmark\n"
        "                   suite: for each comma-separated count run\n"
        "                   the cold GoogLeNet/690T/float optimization\n"
        "                   with that many worker threads and print\n"
        "                   CSV rows (min of 3 reps; the machine core\n"
        "                   count is printed alongside — see\n"
        "                   bench/README.md for the recording\n"
        "                   methodology)\n"
        "  --profile        enable the phase profiler and print the\n"
        "                   self-time breakdown (frontier build/query,\n"
        "                   tiling enum, memory walk) after the run\n"
        "  --help           this text (google-benchmark flags such as\n"
        "                   --benchmark_filter pass through unchanged)\n");
}

/**
 * --threads sweep: cold GoogLeNet runs per thread count, each count's
 * reps lent one pool of that size (built outside the timed runs).
 * Each rep constructs its own optimizer, so nothing is warm between
 * reps; the min of the reps is the row's figure (1-core CI containers
 * jitter 20%+, and min is the standard way to strip scheduler noise).
 */
int
runThreadSweep(const std::string &list, bool profile)
{
    std::vector<int> counts;
    size_t pos = 0;
    while (pos <= list.size()) {
        size_t comma = list.find(',', pos);
        if (comma == std::string::npos)
            comma = list.size();
        int value;
        try {
            value = static_cast<int>(util::parseIntFlag(
                "--threads", list.substr(pos, comma - pos), 0, 4096));
        } catch (const util::FatalError &err) {
            std::fprintf(stderr, "perf_optimizer: %s\n", err.what());
            return 1;
        }
        counts.push_back(value);
        pos = comma + 1;
    }
    if (counts.empty()) {
        std::fprintf(stderr, "perf_optimizer: --threads needs a "
                             "comma-separated list\n");
        return 1;
    }

    nn::Network net = nn::makeGoogLeNet();
    auto budget = fpga::standardBudget(fpga::virtex7_690t(), 100.0);
    constexpr int kReps = 3;

    std::printf("# cold GoogLeNet float 690T, max_clps 6, min of %d "
                "reps; hardware_concurrency=%u\n",
                kReps, std::thread::hardware_concurrency());
    std::printf("threads,cold_ms,speedup_vs_first\n");
    double first_ms = 0.0;
    for (size_t i = 0; i < counts.size(); ++i) {
        util::ThreadPool pool(counts[i]);
        double best_ms = 0.0;
        for (int rep = 0; rep < kReps; ++rep) {
            auto start = std::chrono::steady_clock::now();
            auto result = runMulti(net, fpga::DataType::Float32, budget,
                                   core::OptimizerEngine::Frontier,
                                   &pool);
            benchmark::DoNotOptimize(result.metrics.epochCycles);
            double ms = std::chrono::duration<double, std::milli>(
                            std::chrono::steady_clock::now() - start)
                            .count();
            best_ms = rep == 0 ? ms : std::min(best_ms, ms);
        }
        if (i == 0)
            first_ms = best_ms;
        std::printf("%d,%.1f,%.2f\n", counts[i], best_ms,
                    first_ms / best_ms);
    }
    if (profile)
        std::printf("phase breakdown (self time, all sweep reps):\n%s",
                    util::prof::report().c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    bool profile = false;
    std::string threads_list;
    bool sweep = false;
    std::vector<char *> passthrough;
    passthrough.push_back(argv[0]);
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--help") == 0) {
            printUsage();
            return 0;
        } else if (std::strcmp(argv[i], "--profile") == 0) {
            profile = true;
        } else if (std::strcmp(argv[i], "--threads") == 0) {
            if (i + 1 >= argc) {
                std::fprintf(stderr,
                             "perf_optimizer: --threads needs a "
                             "comma-separated list\n");
                return 1;
            }
            threads_list = argv[++i];
            sweep = true;
        } else {
            passthrough.push_back(argv[i]);
        }
    }

    if (profile)
        util::prof::setEnabled(true);
    if (sweep)
        return runThreadSweep(threads_list, profile);

    int bench_argc = static_cast<int>(passthrough.size());
    benchmark::Initialize(&bench_argc, passthrough.data());
    if (benchmark::ReportUnrecognizedArguments(bench_argc,
                                               passthrough.data()))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    if (profile)
        std::printf("phase breakdown (self time, all iterations):\n%s",
                    util::prof::report().c_str());
    return 0;
}
