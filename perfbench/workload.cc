#include "workload.h"

#include <algorithm>
#include <iterator>
#include <cstdio>
#include <set>
#include <thread>

#include "common.h"
#include "core/dse_request.h"
#include "service/dse_codec.h"
#include "service/dse_service.h"
#include "util/thread_pool.h"

namespace perfbench {

namespace {

struct Plan
{
    /** The timed sequence; one cycle on restart-warm, every round in
     * order on cold-novel. */
    std::vector<std::string> timed;
    /** Server lifetimes: cold-novel rounds, restart-warm cycles. */
    int cycles = 1;
};

/** splitmix64: tiny, fully specified, identical on every platform
 * (std:: distributions are implementation-defined, so not used). */
class Rng
{
  public:
    explicit Rng(uint64_t seed) : state_(seed) {}

    uint64_t
    next()
    {
        uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        return z ^ (z >> 31);
    }

    /** Uniform in [0, n). */
    int64_t
    below(int64_t n)
    {
        return static_cast<int64_t>(next() % static_cast<uint64_t>(n));
    }

    /** Uniform in [lo, hi]. */
    int64_t range(int64_t lo, int64_t hi) { return lo + below(hi - lo + 1); }

  private:
    uint64_t state_;
};

/** An independent stream per (seed, workload, item): regenerating
 * one item never shifts the others. */
uint64_t
streamSeed(uint64_t seed, uint64_t salt, uint64_t index)
{
    return Rng(Rng(seed).next() ^ (salt * 0xd1b54a32d192ed03ULL) ^
               (index * 0xa0761d6478bd642fULL))
        .next();
}

constexpr uint64_t kColdSalt = 1;
constexpr uint64_t kRestartSalt = 3;

/** Throughput of the generated work per second of --seconds, sized
 * so a run's timed phases take about that long on a 4-vCPU host. */
constexpr int kColdRoundSize = 100;  ///< networks per server lifetime
constexpr int kColdSecondsPerRound = 2;
constexpr int kRestartCyclesPerSecond = 2;

struct DeviceLadder
{
    const char *name;
    std::vector<int64_t> rungs;  ///< DSP budgets, the last is 80%
};

const std::vector<DeviceLadder> &
ladders()
{
    static const std::vector<DeviceLadder> all = {
        {"485t", {1000, 1500, 2000, 2240}},
        {"690t", {1200, 1800, 2400, 2880}},
    };
    return all;
}

/**
 * @p count rungs of the device ladder, ascending. The top rung (the
 * device's standard 80% budget) is always present, so how big a
 * session's frontier grows never depends on the seed; the lower
 * rungs are seeded.
 */
std::string
budgetsField(Rng &rng, const DeviceLadder &device, int64_t count)
{
    std::vector<int64_t> rungs(device.rungs.begin(), device.rungs.end() - 1);
    for (int64_t i = 0; i + 1 < count; ++i)
        std::swap(rungs[i], rungs[i + rng.below(rungs.size() - i)]);
    rungs.resize(count - 1);
    std::sort(rungs.begin(), rungs.end());
    rungs.push_back(device.rungs.back());
    std::string field;
    for (int64_t rung : rungs) {
        if (!field.empty())
            field += ',';
        field += std::to_string(rung);
    }
    return field;
}

template <class T>
void
shuffle(std::vector<T> &items, Rng &rng)
{
    for (size_t i = items.size(); i > 1; --i)
        std::swap(items[i - 1], items[rng.below(i)]);
}

/**
 * Network @p index of a cold-novel run: never seen, zoo-like dims.
 * Layer count, device, type and rung count cycle with the index, so
 * every run holds the same mix of them; channels, kernels, where the
 * network downsamples and the lower rungs are seeded.
 */
std::string
novelLine(uint64_t seed, int index, int attempt)
{
    static const int64_t kChannels[] = {16,  32,  48,  64,  96,
                                        128, 192, 256, 384, 512};
    constexpr int64_t kLevels = 10;
    Rng rng(streamSeed(seed, kColdSalt, index * 64 + attempt));
    const DeviceLadder &device = ladders()[index % 2];
    std::string type = (index / 2) % 2 ? "fixed" : "float";
    std::string budgets = budgetsField(rng, device, 1 + (index / 4) % 3);

    int64_t layers = 12 + index % 21;
    int64_t spatial = rng.below(2) ? 56 : 28;
    int64_t level = rng.range(0, 3);
    int64_t n = kChannels[rng.range(0, 2)];
    std::string spec;
    for (int64_t l = 0; l < layers; ++l) {
        int64_t stride = 1;
        // About three downsampling stages per network, as in the zoo.
        if (l > 0 && spatial > 7 && rng.below(layers) < 3) {
            spatial /= 2;
            stride = 2;
            level = std::min(level + 1, kLevels - 1);
        }
        level = std::clamp(level + rng.range(-1, 1), int64_t{0},
                           kLevels - 1);
        int64_t m = kChannels[level];
        int64_t pick = rng.below(20);
        int64_t k = pick < 7 ? 1 : pick < 18 ? 3 : 5;
        char layer[96];
        std::snprintf(layer, sizeof(layer),
                      "%sc%lld:%lld:%lld:%lld:%lld:%lld:%lld",
                      l == 0 ? "" : ";", static_cast<long long>(l),
                      static_cast<long long>(n), static_cast<long long>(m),
                      static_cast<long long>(spatial),
                      static_cast<long long>(spatial),
                      static_cast<long long>(k),
                      static_cast<long long>(stride));
        spec += layer;
        n = m;
    }
    return "dse id=n" + std::to_string(index) + " net=novel" +
           std::to_string(index) + " device=" + device.name +
           " type=" + type + " budgets=" + budgets + " layers=" + spec;
}

std::string
signatureOf(const std::string &line)
{
    return mclp::core::networkSignature(
        mclp::core::resolveNetwork(mclp::service::decodeRequest(line)));
}

/** cold-novel: `cycles` rounds of kColdRoundSize networks, each round
 * answered by a fresh server; no signature repeats within the run. */
Plan
coldNovelPlan(uint64_t seed, int seconds)
{
    Plan plan;
    plan.cycles = std::max(1, seconds / kColdSecondsPerRound);
    std::set<std::string> seen;
    for (int round = 0; round < plan.cycles; ++round) {
        std::vector<std::string> lines;
        for (int i = round * kColdRoundSize; i < (round + 1) * kColdRoundSize;
             ++i) {
            for (int attempt = 0;; ++attempt) {
                std::string line = novelLine(seed, i, attempt);
                if (seen.insert(signatureOf(line)).second) {
                    lines.push_back(line);
                    break;
                }
            }
        }
        Rng order(streamSeed(seed, kColdSalt, ~uint64_t{0} - round));
        shuffle(lines, order);
        plan.timed.insert(plan.timed.end(), lines.begin(), lines.end());
    }
    return plan;
}

/**
 * restart-warm: every zoo network in float on one device and fixed
 * on the other (alternating by network), plus AlexNet in float on
 * its second device, two rungs each; the seed picks the lower rungs.
 * Fifteen sessions, an odd count, so p50 is the median of one
 * session's first touches rather than a point between two sessions'
 * latencies. The cycle's order is fixed: a first touch costs more
 * the more sessions the server already holds, so a seeded order
 * would move each request's latency, and p50, with the seed.
 */
Plan
restartWarmPlan(uint64_t seed, int seconds)
{
    static const char *kZoo[] = {"alexnet",    "vggnet-e",     "squeezenet",
                                 "googlenet",  "resnet50",     "mobilenet-v1",
                                 "resnext-tiny"};
    Rng rng(streamSeed(seed, kRestartSalt, 0));
    Plan plan;
    auto add = [&](const char *net, const DeviceLadder &device,
                   const char *type) {
        plan.timed.push_back("dse id=r" + std::to_string(plan.timed.size()) +
                             " net=" + net + " device=" + device.name +
                             " type=" + type +
                             " budgets=" + budgetsField(rng, device, 2));
    };
    for (size_t n = 0; n < std::size(kZoo); ++n) {
        add(kZoo[n], ladders()[n % 2], "float");
        add(kZoo[n], ladders()[(n + 1) % 2], "fixed");
    }
    add(kZoo[0], ladders()[1], "float");
    plan.cycles = std::max(1, kRestartCyclesPerSecond * seconds);
    return plan;
}

/** The repo's oracle: the cold in-process answer, as a server's
 * handleLine would encode it (sessions run single-threaded). */
std::string
coldAnswer(const std::string &line)
{
    mclp::core::DseRequest request = mclp::service::decodeRequest(line);
    request.threads = 1;
    return mclp::service::encodeResponse(
        mclp::service::answerRequest(request, nullptr));
}

Plan
makePlan(Workload workload, uint64_t seed, int seconds)
{
    switch (workload) {
    case Workload::ColdNovel: return coldNovelPlan(seed, seconds);
    case Workload::RestartWarm: return restartWarmPlan(seed, seconds);
    }
    die("unreachable workload");
}

/** FNV-1a digest of every line of the plan, in order: printed on every
 * run, so two runs can be shown to have sent the same requests. */
uint64_t
planDigest(const Plan &plan)
{
    uint64_t hash = 1469598103934665603ULL;
    for (const std::string &line : plan.timed) {
        for (char ch : line + "\n") {
            hash ^= static_cast<unsigned char>(ch);
            hash *= 1099511628211ULL;
        }
    }
    return hash ^ static_cast<uint64_t>(plan.cycles);
}

} // namespace

Workload
workloadByName(const std::string &name)
{
    if (name == "cold-novel")
        return Workload::ColdNovel;
    if (name == "restart-warm")
        return Workload::RestartWarm;
    die("unknown workload '%s' (cold-novel, restart-warm)",
        name.c_str());
}

int
runPrepare(const std::vector<std::string> &raw)
{
    Args args(raw);
    Workload workload = workloadByName(args.text("workload", ""));
    uint64_t seed = static_cast<uint64_t>(args.number("seed", 0));
    int seconds = static_cast<int>(args.number("seconds", 10));
    if (seconds < 1)
        die("--seconds must be at least 1");

    Plan plan = makePlan(workload, seed, seconds);
    writeLines("timed.txt", plan.timed);

    std::vector<std::string> distinct = plan.timed;
    std::sort(distinct.begin(), distinct.end());
    distinct.erase(std::unique(distinct.begin(), distinct.end()),
                   distinct.end());
    std::set<std::string> signatures;
    for (const std::string &line : plan.timed)
        signatures.insert(signatureOf(line));

    // The oracle runs outside any timed phase; a few threads keep it
    // short without crowding the host.
    Clock::time_point start = Clock::now();
    std::vector<std::string> answers(distinct.size());
    mclp::util::ThreadPool pool(
        static_cast<int>(std::clamp(std::thread::hardware_concurrency(), 1u, 4u)));
    pool.parallelFor(distinct.size(), [&](size_t i) {
        answers[i] = coldAnswer(distinct[i]);
    });
    std::vector<std::string> pairs;
    for (size_t i = 0; i < distinct.size(); ++i) {
        // Workloads are built so that every request succeeds.
        if (answers[i].rfind("ok ", 0) != 0)
            die("the oracle rejects a generated request: %s -> %s",
                distinct[i].c_str(), answers[i].c_str());
        pairs.push_back(distinct[i]);
        pairs.push_back(answers[i]);
    }
    writeLines("expected.txt", pairs);

    char digest[32];
    std::snprintf(digest, sizeof(digest), "%016llx",
                  static_cast<unsigned long long>(planDigest(plan)));
    JsonObject json;
    json.add("digest", std::string(digest));
    json.add("timed", static_cast<int64_t>(plan.timed.size()));
    json.add("cycles", static_cast<int64_t>(plan.cycles));
    json.add("distinct", static_cast<int64_t>(distinct.size()));
    json.add("signatures", static_cast<int64_t>(signatures.size()));
    json.add("oracle_s", secondsBetween(start, Clock::now()));
    std::printf("%s\n", json.str().c_str());
    return 0;
}

} // namespace perfbench
