#include "trace.h"

#include <array>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>

#include "common.h"
#include "core/dse_request.h"
#include "core/frontier_cache.h"
#include "core/frontier_cache_segment.h"
#include "core/schedule.h"
#include "core/session_registry.h"
#include "model/bram_model.h"
#include "model/dsp_model.h"
#include "serving.h"
#include "service/dse_codec.h"
#include "service/dse_service.h"
#include "util/logging.h"
#include "util/prof.h"
#include "workload.h"

namespace perfbench {

namespace {

using namespace mclp;

/** mclp-serve's default --max-sessions (cold-novel, restart-warm). */
constexpr size_t kServeSessions = 8;
/** Requests timed three ways for the hop metrics, and the
 * --max-sessions of their servers: room for every restart-warm
 * session, so the sample is all registry hits. */
constexpr size_t kHopSample = 1000;
constexpr size_t kHopSessions = 16;

/** Span names; the four util::prof phases are self-time shares of
 * the sweep span, recorded as children that start with it. */
enum Name : int
{
    kRequest,
    kDecode,
    kResolve,
    kBudgets,
    kOptions,
    kAcquire,
    kSweep,
    kBuild,
    kQuery,
    kTiling,
    kWalk,
    kCanonicalize,
    kDesignDsp,
    kDesignBram,
    kAnalyze,
    kEncode,
    kCacheOpen,
    kCacheFlush,
    kNameCount,
};

struct NameInfo
{
    const char *name;
    int parent;  ///< -1: a root span
};

const NameInfo kNames[kNameCount] = {
    {"request", -1},
    {"dse_codec.decodeRequest", kRequest},
    {"dse_request.resolveNetwork", kRequest},
    {"dse_request.requestBudgets", kRequest},
    {"dse_request.requestOptions", kRequest},
    {"session_registry.session", kRequest},
    {"dse_session.sweep", kRequest},
    {"shape_frontier.frontier_build", kSweep},
    {"compute_optimizer.frontier_query", kSweep},
    {"memory_optimizer.tiling_enum", kSweep},
    {"memory_optimizer.memory_walk", kSweep},
    {"schedule.canonicalizeSchedule", kRequest},
    {"model.designDsp", kRequest},
    {"model.designBram", kRequest},
    {"schedule.analyzeSchedule", kRequest},
    {"dse_codec.encodeResponse", kRequest},
    {"frontier_cache.open", -1},
    {"frontier_cache.flush", -1},
};

/** In-memory spans, written out once the run ends. */
class Tracer
{
  public:
    int64_t
    now() const
    {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   Clock::now() - origin_)
            .count();
    }

    void
    record(int32_t request, int name, int64_t start, int64_t end)
    {
        spans_.push_back({request, name, start, end});
        totalNs_[name] += end - start;
    }

    template <class Fn>
    auto
    span(int32_t request, int name, Fn &&fn)
    {
        int64_t start = now();
        auto result = fn();
        record(request, name, start, now());
        return result;
    }

    double totalSeconds(int name) const { return totalNs_[name] / 1e9; }

    /**
     * Mean duration (seconds) of the spans named @p name whose request
     * sits in quarter @p quarter (0-3) of its round or cycle of
     * @p period requests: shows how a layer's cost grows as a server
     * lifetime goes on.
     */
    double
    quarterMean(int name, int32_t period, int32_t quarter) const
    {
        double sum = 0.0;
        int64_t count = 0;
        for (const Span &span : spans_) {
            if (span.name == name && span.request >= 0 &&
                span.request % period * 4 / period == quarter) {
                sum += (span.endNs - span.startNs) / 1e9;
                ++count;
            }
        }
        return count ? sum / static_cast<double>(count) : 0.0;
    }

    void
    write(const std::string &path) const
    {
        std::ofstream out(path);
        for (const Span &span : spans_) {
            int parent = kNames[span.name].parent;
            out << "{\"request\": " << span.request << ", \"span\": \""
                << kNames[span.name].name << "\", \"parent\": ";
            if (parent < 0)
                out << "null";
            else
                out << '"' << kNames[parent].name << '"';
            out << ", \"start_ns\": " << span.startNs
                << ", \"dur_ns\": " << span.endNs - span.startNs << "}\n";
        }
        if (!out.flush())
            die("cannot write %s", path.c_str());
    }

  private:
    struct Span
    {
        int32_t request;
        int name;
        int64_t startNs;
        int64_t endNs;
    };

    Clock::time_point origin_ = Clock::now();
    std::vector<Span> spans_;
    std::array<int64_t, kNameCount> totalNs_{};
};

/** service::answerRequest's steps (and handleLine's codec calls),
 * each under a span; the bytes are the same as the untraced path's. */
std::string
tracedAnswer(const std::string &line, int32_t id,
             core::SessionRegistry &registry, Tracer &t)
{
    int64_t begin = t.now();
    core::DseRequest request =
        t.span(id, kDecode, [&] { return service::decodeRequest(line); });
    request.threads = 1;
    core::DseResponse response;
    response.id = request.id.empty() ? "-" : request.id;
    try {
        nn::Network network = t.span(id, kResolve, [&] {
            request.validate();
            return core::resolveNetwork(request, &response.subnets);
        });
        response.network = network.name();
        std::vector<fpga::ResourceBudget> budgets = t.span(
            id, kBudgets, [&] { return core::requestBudgets(request); });
        core::OptimizerOptions options = t.span(
            id, kOptions, [&] { return core::requestOptions(request); });
        int64_t max_dsp = 0;
        for (const fpga::ResourceBudget &budget : budgets)
            max_dsp = std::max(max_dsp, budget.dspSlices);
        std::shared_ptr<core::DseSession> session =
            t.span(id, kAcquire, [&] {
                return registry.session(network, request.device,
                                        request.type, max_dsp);
            });

        auto before = util::prof::snapshot();
        int64_t sweep_start = t.now();
        std::vector<core::OptimizationResult> results =
            session->sweep(budgets, options);
        t.record(id, kSweep, sweep_start, t.now());
        auto after = util::prof::snapshot();
        for (size_t p = 0; p < util::prof::kPhaseCount; ++p) {
            int64_t self = static_cast<int64_t>(after[p].ns - before[p].ns);
            t.record(id, kBuild + static_cast<int>(p), sweep_start,
                     sweep_start + self);
        }

        const nn::Network &owned = session->network();
        for (size_t i = 0; i < results.size(); ++i) {
            core::DsePoint point;
            point.budget = budgets[i];
            point.design = t.span(id, kCanonicalize, [&] {
                return core::canonicalizeSchedule(results[i].design, owned);
            });
            point.epochCycles = results[i].metrics.epochCycles;
            point.dspUsed = t.span(
                id, kDesignDsp, [&] { return model::designDsp(point.design); });
            point.bramUsed = t.span(id, kDesignBram, [&] {
                return model::designBram(point.design, owned);
            });
            point.schedule = t.span(id, kAnalyze, [&] {
                return core::analyzeSchedule(point.design, owned);
            });
            response.points.push_back(std::move(point));
        }
        response.ok = true;
    } catch (const util::FatalError &err) {
        response.ok = false;
        response.points.clear();
        response.subnets.clear();
        response.error = err.what();
    }
    std::string encoded = t.span(
        id, kEncode, [&] { return service::encodeResponse(response); });
    t.record(id, kRequest, begin, t.now());
    return encoded;
}

std::string
untracedAnswer(const std::string &line, core::SessionRegistry &registry)
{
    core::DseRequest request = service::decodeRequest(line);
    request.threads = 1;
    return service::encodeResponse(
        service::answerRequest(request, &registry));
}

/** Answer @p lines in order, check each answer; wall seconds. */
double
replay(const std::vector<std::string> &lines, core::SessionRegistry &registry,
       const Oracle &oracle, Tally *tally, Tracer *tracer, int32_t first_id)
{
    Clock::time_point start = Clock::now();
    for (size_t i = 0; i < lines.size(); ++i) {
        std::string answer =
            tracer ? tracedAnswer(lines[i], first_id + static_cast<int32_t>(i),
                                  registry, *tracer)
                   : untracedAnswer(lines[i], registry);
        tally->check(lines[i], answer, oracle);
    }
    return secondsBetween(start, Clock::now());
}

/** Layer counters read at one boundary. */
struct Counts
{
    core::SessionRegistry::Stats registry;
    core::FrontierRowStore::Stats rows;
    std::array<util::prof::Counter, util::prof::kPhaseCount> prof;
};

Counts
countsOf(core::SessionRegistry &registry)
{
    return {registry.stats(), registry.rowStore()->stats(),
            util::prof::snapshot()};
}

/** What the traced passes measured, summed over passes/cycles. */
struct Layers
{
    int64_t requests = 0;
    int64_t registryHits = 0;
    int64_t registryMisses = 0;
    int64_t evictions = 0;
    int64_t rowHits = 0;
    int64_t rowMisses = 0;
    int64_t mmapHits = 0;
    int64_t diskHits = 0;
    int64_t buildCalls = 0;
    double residentBytes = 0.0;  ///< at the end of the last pass
    int64_t rows = 0;            ///< at the end of the last pass
    std::vector<double> openSeconds;
    std::vector<double> flushSeconds;
    int64_t pendingRows = 0;
    int64_t fileBytes = 0;
    int64_t segmentBytes = 0;
    double tracedSeconds = 0.0;
    double untracedSeconds = 0.0;

    void
    add(const Counts &before, const Counts &after, size_t requests_run)
    {
        requests += static_cast<int64_t>(requests_run);
        registryHits += after.registry.hits - before.registry.hits;
        registryMisses += after.registry.misses - before.registry.misses;
        evictions += after.registry.evictions - before.registry.evictions;
        rowHits += after.rows.hits - before.rows.hits;
        rowMisses += after.rows.misses - before.rows.misses;
        mmapHits += after.rows.mmapHits - before.rows.mmapHits;
        diskHits += after.rows.diskHits - before.rows.diskHits;
        size_t build = static_cast<size_t>(util::prof::Phase::FrontierBuild);
        buildCalls += after.prof[build].calls - before.prof[build].calls;
        residentBytes = static_cast<double>(after.registry.bytes);
        rows = static_cast<int64_t>(after.rows.rows);
    }
};

/** Open a cache the way mclp-serve --cache-dir does, under a span. */
std::shared_ptr<core::FrontierCache>
openCache(const std::string &dir, Tracer &t, Layers &layers)
{
    int64_t start = t.now();
    auto cache = std::make_shared<core::FrontierCache>(dir);
    int64_t end = t.now();
    t.record(-1, kCacheOpen, start, end);
    layers.openSeconds.push_back((end - start) / 1e9);
    return cache;
}

/** The drain path's flush, under a span, after noting what waits. */
void
flushCache(core::FrontierCache &cache, Tracer &t, Layers &layers)
{
    layers.pendingRows += static_cast<int64_t>(cache.stats().rowsPending);
    int64_t start = t.now();
    cache.flush();
    int64_t end = t.now();
    t.record(-1, kCacheFlush, start, end);
    layers.flushSeconds.push_back((end - start) / 1e9);
    auto bytes = [&](const char *name) {
        std::error_code ec;
        auto size = std::filesystem::file_size(cache.dir() + "/" + name, ec);
        return ec ? int64_t{0} : static_cast<int64_t>(size);
    };
    layers.fileBytes = bytes(core::kFrontierCacheFileName);
    layers.segmentBytes = bytes(core::kFrontierSegmentFileName);
}

/**
 * Run @p traced and @p untraced passes over the same work in an order
 * that alternates with @p index, so host drift does not bias the
 * overhead estimate in one direction.
 */
template <class Traced, class Untraced>
void
bothPasses(size_t index, Traced &&traced, Untraced &&untraced)
{
    if (index % 2) {
        traced();
        untraced();
    } else {
        untraced();
        traced();
    }
}

/** cold-novel, round by round as the end-to-end run does: an
 * untraced pass and a traced pass, each on its own empty cache. */
void
traceColdNovel(const std::vector<std::string> &timed, const Oracle &oracle,
               int rounds, Tally *tally, Tracer &t, Layers &layers)
{
    size_t per_round = timed.size() / static_cast<size_t>(rounds);
    for (int r = 0; r < rounds; ++r) {
        std::vector<std::string> lines(timed.begin() + r * per_round,
                                       timed.begin() + (r + 1) * per_round);
        auto untraced = [&] {
            std::filesystem::create_directory("untraced-cache");
            {
                auto cache =
                    std::make_shared<core::FrontierCache>("untraced-cache");
                core::SessionRegistry registry(kServeSessions, 0, 1, cache);
                layers.untracedSeconds +=
                    replay(lines, registry, oracle, tally, nullptr, 0);
            }
            std::filesystem::remove_all("untraced-cache");
        };
        auto traced = [&] {
            std::filesystem::create_directory("cache");
            {
                std::shared_ptr<core::FrontierCache> cache =
                    openCache("cache", t, layers);
                core::SessionRegistry registry(kServeSessions, 0, 1, cache);
                Counts before = countsOf(registry);
                layers.tracedSeconds +=
                    replay(lines, registry, oracle, tally, &t,
                           r * static_cast<int32_t>(per_round));
                layers.add(before, countsOf(registry), lines.size());
                flushCache(*cache, t, layers);
            }
            std::filesystem::remove_all("cache");
        };
        bothPasses(static_cast<size_t>(r), traced, untraced);
    }
}

void
traceRestartWarm(const std::vector<std::string> &cycle, const Oracle &oracle,
                 int cycles, Tally *tally, Tracer &t, Layers &layers)
{
    std::filesystem::create_directory("cache");
    {
        auto cache = std::make_shared<core::FrontierCache>("cache");
        core::SessionRegistry registry(kServeSessions, 0, 1, cache);
        replay(cycle, registry, oracle, tally, nullptr, 0);
    }
    for (int c = 0; c < cycles; ++c) {
        bothPasses(
            static_cast<size_t>(c),
            [&] {
                std::shared_ptr<core::FrontierCache> cache =
                    openCache("cache", t, layers);
                core::SessionRegistry registry(kServeSessions, 0, 1, cache);
                Counts before = countsOf(registry);
                layers.tracedSeconds +=
                    replay(cycle, registry, oracle, tally, &t,
                           c * static_cast<int32_t>(cycle.size()));
                layers.add(before, countsOf(registry), cycle.size());
                flushCache(*cache, t, layers);
            },
            [&] {
                auto cache = std::make_shared<core::FrontierCache>("cache");
                core::SessionRegistry registry(kServeSessions, 0, 1, cache);
                layers.untracedSeconds +=
                    replay(cycle, registry, oracle, tally, nullptr, 0);
            });
    }
}

/** The serving hops, from timing one request three ways in turn.
 * The front has one worker holding every session, as the direct
 * server does, so front minus direct is the front's decode, routing
 * and extra socket hop, not a working-set difference. */
struct Hops
{
    double inProcessUs = 0.0;  ///< DseService::handleLine (median)
    double serverUs = 0.0;     ///< a direct mclp-serve socket (median)
    double frontUs = 0.0;      ///< through a 1-worker mclp-front (median)
    /** Medians of per-request differences, direct minus in-process
     * and front minus direct: pairing each request with itself keeps
     * the spread of request costs out of the hop. */
    double serverHopUs = 0.0;
    double frontHopUs = 0.0;
    double frontCpuUs = 0.0;   ///< front process CPU per request
    int64_t sheds = 0;         ///< the direct server's busy/oversize
    int64_t samples = 0;
};

int64_t
statsField(const std::string &stats, const std::string &key)
{
    size_t at = stats.find(" " + key + "=");
    if (at == std::string::npos)
        die("stats answer lacks %s: %s", key.c_str(), stats.c_str());
    return std::stoll(stats.substr(at + key.size() + 2));
}

/** Time kHopSample warm answers of @p cycle's lines, in turn, in
 * process, through a direct mclp-serve and through mclp-front, after
 * each of the three answered every line once. */
Hops
measureHops(const std::string &bin_dir, const std::vector<std::string> &cycle,
            const Oracle &oracle, Tally *tally)
{
    std::string sessions = std::to_string(kHopSessions);
    service::ServiceOptions options;
    options.maxSessions = kHopSessions;
    service::DseService local(options);
    ServerProcess direct({bin_dir + "/mclp-serve", "--socket", "direct.sock",
                          "--max-sessions", sessions},
                         "direct.sock");
    ServerProcess front({bin_dir + "/mclp-front", "--socket", "front.sock",
                         "--workers", "1", "--max-sessions", sessions,
                         "--serve-bin", bin_dir + "/mclp-serve"},
                        "front.sock");
    LineClient direct_client, front_client;
    direct.waitReady(&direct_client);
    front.waitReady(&front_client);
    for (const std::string &line : cycle) {
        tally->check(line, local.handleLine(line), oracle);
        direct_client.drive({line}, oracle, tally, nullptr);
        front_client.drive({line}, oracle, tally, nullptr);
    }

    std::vector<double> in_process, server, via_front;
    std::vector<std::string> sample;
    for (size_t i = 0; i < kHopSample; ++i)
        sample.push_back(cycle[i % cycle.size()]);
    double front_cpu = threadsCpuSeconds(front.pid());
    for (const std::string &line : sample) {
        Clock::time_point start = Clock::now();
        std::string answer = local.handleLine(line);
        in_process.push_back(secondsBetween(start, Clock::now()));
        tally->check(line, answer, oracle);
        direct_client.drive({line}, oracle, tally, &server);
        front_client.drive({line}, oracle, tally, &via_front);
    }
    front_cpu = threadsCpuSeconds(front.pid()) - front_cpu;

    Hops hops;
    std::string stats;
    if (!direct_client.roundTrip("stats", &stats))
        die("the direct server did not answer stats");
    hops.sheds =
        statsField(stats, "shed_busy") + statsField(stats, "shed_oversize");
    direct.shutdown(direct_client);
    front.shutdown(front_client);
    if (server.size() != sample.size() || via_front.size() != sample.size())
        die("a hop sample request went unanswered");
    hops.samples = static_cast<int64_t>(sample.size());
    hops.inProcessUs = median(in_process) * 1e6;
    hops.serverUs = median(server) * 1e6;
    hops.frontUs = median(via_front) * 1e6;
    std::vector<double> server_hop, front_hop;
    for (size_t i = 0; i < sample.size(); ++i) {
        server_hop.push_back(server[i] - in_process[i]);
        front_hop.push_back(via_front[i] - server[i]);
    }
    hops.serverHopUs = median(server_hop) * 1e6;
    hops.frontHopUs = median(front_hop) * 1e6;
    hops.frontCpuUs = front_cpu * 1e6 / static_cast<double>(sample.size());
    return hops;
}

double
ratio(int64_t part, int64_t whole)
{
    return whole > 0 ? static_cast<double>(part) / static_cast<double>(whole)
                     : 0.0;
}

} // namespace

int
runTrace(const std::vector<std::string> &raw)
{
    Args args(raw);
    Workload workload = workloadByName(args.text("workload", ""));
    std::string bin_dir = args.text("bin-dir", "");
    std::string spans_path = args.text("spans", "spans.jsonl");
    int cycles = static_cast<int>(args.number("cycles", 1));
    Oracle oracle = loadOracle("expected.txt");
    std::vector<std::string> timed = readLines("timed.txt");

    util::prof::setEnabled(true);
    Tally tally;
    Tracer t;
    Layers layers;
    Hops hops;
    switch (workload) {
    case Workload::ColdNovel:
        traceColdNovel(timed, oracle, cycles, &tally, t, layers);
        break;
    case Workload::RestartWarm:
        traceRestartWarm(timed, oracle, cycles, &tally, t, layers);
        if (bin_dir.empty())
            die("restart-warm traces need --bin-dir for the hop timings");
        hops = measureHops(bin_dir, timed, oracle, &tally);
        break;
    }
    t.write(spans_path);

    double n = static_cast<double>(layers.requests);
    auto per_request = [&](std::initializer_list<int> names, double scale) {
        double seconds = 0.0;
        for (int name : names)
            seconds += t.totalSeconds(name);
        return seconds * scale / n;
    };
    JsonObject m;
    m.add("mclp_front.hop_us", hops.frontHopUs);
    m.add("mclp_front.cpu_us_per_req", hops.frontCpuUs);
    m.add("server.hop_us", hops.serverHopUs);
    m.add("server.sheds", hops.sheds);
    m.add("dse_codec.decode_us", per_request({kDecode}, 1e6));
    m.add("dse_codec.encode_us", per_request({kEncode}, 1e6));
    m.add("dse_request.resolve_us",
          per_request({kResolve, kBudgets, kOptions}, 1e6));
    m.add("session_registry.acquire_us", per_request({kAcquire}, 1e6));
    m.add("session_registry.hit_ratio",
          ratio(layers.registryHits,
                layers.registryHits + layers.registryMisses));
    m.add("session_registry.evictions", layers.evictions);
    m.add("session_registry.resident_mb", layers.residentBytes / kMiB);
    m.add("dse_session.sweep_ms", per_request({kSweep}, 1e3));
    m.add("shape_frontier.build_ms", per_request({kBuild}, 1e3));
    m.add("shape_frontier.build_calls", layers.buildCalls);
    // Share of row acquisitions that did not build a row; 1 when the
    // sessions never had to acquire one.
    m.add("shape_frontier.row_hit_ratio",
          1.0 - ratio(layers.rowMisses, layers.rowHits + layers.rowMisses));
    m.add("shape_frontier.rows", layers.rows);
    m.add("compute_optimizer.query_ms", per_request({kQuery}, 1e3));
    m.add("memory_optimizer.tiling_ms", per_request({kTiling}, 1e3));
    m.add("memory_optimizer.walk_ms", per_request({kWalk}, 1e3));
    m.add("schedule.assemble_us",
          per_request({kCanonicalize, kDesignDsp, kDesignBram, kAnalyze},
                      1e6));
    m.add("frontier_cache.open_ms", median(layers.openSeconds) * 1e3);
    m.add("frontier_cache.flush_ms", median(layers.flushSeconds) * 1e3);
    m.add("frontier_cache.file_mb",
          static_cast<double>(layers.fileBytes) / kMiB);
    m.add("frontier_cache.segment_mb",
          static_cast<double>(layers.segmentBytes) / kMiB);
    m.add("frontier_cache.pending_rows", layers.pendingRows);
    m.add("frontier_cache.tier_mmap", layers.mmapHits);
    m.add("frontier_cache.tier_disk", layers.diskHits);
    m.add("frontier_cache.tier_cold", layers.rowMisses);
    m.add("trace.overhead_pct",
          (layers.tracedSeconds - layers.untracedSeconds) * 100.0 /
              layers.untracedSeconds);

    // Context for reading the metrics, not metrics themselves.
    int32_t period = static_cast<int32_t>(
        workload == Workload::ColdNovel ? timed.size() / cycles : timed.size());
    JsonObject extra;
    extra.add("traced_requests", layers.requests);
    extra.add("acquire_first_quarter_us", t.quarterMean(kAcquire, period, 0) * 1e6);
    extra.add("acquire_last_quarter_us", t.quarterMean(kAcquire, period, 3) * 1e6);
    extra.add("sweep_build_share",
              ratio(static_cast<int64_t>(t.totalSeconds(kBuild) * 1e9),
                    static_cast<int64_t>(t.totalSeconds(kSweep) * 1e9)));
    extra.add("hop_in_process_us", hops.inProcessUs);
    extra.add("hop_server_us", hops.serverUs);
    extra.add("hop_front_us", hops.frontUs);
    extra.add("hop_samples", hops.samples);
    extra.add("traced_s", layers.tracedSeconds);
    extra.add("untraced_s", layers.untracedSeconds);

    JsonObject json;
    tally.addTo(json);
    json.addRaw("layers", m.str());
    json.addRaw("extra", extra.str());
    std::printf("%s\n", json.str().c_str());
    return 0;
}

} // namespace perfbench
