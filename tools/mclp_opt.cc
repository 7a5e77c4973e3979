/**
 * @file
 * mclp-opt — the command-line front end to the Multi-CLP optimizer.
 *
 * A thin client of the DSE plan layer: flags build a core::DseRequest,
 * service::answerRequest() executes it (through a local one-session
 * registry, so budget ladders stay warm) over the process's one
 * thread pool, and this file only renders.
 * mclp-serve runs the same answerRequest() on the same requests, which
 * is why --response output (independent cold runs, wire-encoded) can
 * be diffed byte for byte against server responses.
 *
 * Examples:
 *   mclp-opt --network alexnet --device 690t
 *   mclp-opt --network squeezenet --type fixed --mhz 170 \
 *            --bandwidth-gbps 21.3 --max-clps 6 --sim
 *   mclp-opt --layers mynet.txt --device 485t --single
 *   mclp-opt --network alexnet --device 485t --hls-out out_dir
 *   mclp-opt --network alexnet --device 690t --request-id a1 --response
 *   mclp-opt --joint alexnet,squeezenet --device 690t
 *   mclp-opt --joint alexnet,squeezenet --dump-layers
 */

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <string>

#include "core/dse_request.h"
#include "core/dse_session.h"
#include "core/frontier_cache.h"
#include "core/schedule.h"
#include "hlsgen/codegen.h"
#include "model/bram_model.h"
#include "model/dsp_model.h"
#include "model/metrics.h"
#include "nn/parser.h"
#include "nn/zoo.h"
#include "service/dse_codec.h"
#include "service/dse_service.h"
#include "sim/system.h"
#include "util/flags.h"
#include "util/prof.h"
#include "util/string_utils.h"
#include "util/table.h"
#include "util/thread_pool.h"

using namespace mclp;

namespace {

void
printUsage()
{
    std::printf(
        "mclp-opt: optimize a Multi-CLP CNN accelerator "
        "(Shen/Ferdman/Milder, ISCA 2017)\n\n"
        "usage: mclp-opt [options]\n"
        "  --network NAME       zoo network: alexnet, vggnet-e,\n"
        "                       squeezenet, googlenet, resnet50,\n"
        "                       mobilenet-v1, resnext-tiny\n"
        "  --layers FILE        custom network file (name N M R C K S\n"
        "                       [G] per line; G>1 = grouped/depthwise)\n"
        "  --joint LIST         joint multi-network optimization\n"
        "                       (Section 4.3): comma-separated\n"
        "                       [NAME:]REF entries; a REF with '/' or\n"
        "                       '.' is a network file, otherwise a zoo\n"
        "                       network. One design partitions the\n"
        "                       FPGA across the concatenated layers,\n"
        "                       and each epoch advances one image of\n"
        "                       every network\n"
        "  --joint-weights LIST images per epoch for each --joint\n"
        "                       entry (e.g. 2,1; default all 1)\n"
        "  --dump-layers        print the resolved network (joint\n"
        "                       concatenation included) in the --layers\n"
        "                       file format and exit\n"
        "  --device NAME        485t | 690t | vu9p | vu11p | vu13p |\n"
        "                       u280 (default 690t)\n"
        "  --type T             float | fixed (default float)\n"
        "  --mhz F              clock frequency (default 100)\n"
        "  --bandwidth-gbps X   off-chip bandwidth cap (default: "
        "unconstrained)\n"
        "  --max-clps N         CLP limit (default 6)\n"
        "  --threads N          threads of the process's one pool,\n"
        "                       lent to every run: each budget fans\n"
        "                       its heuristics and frontier rows out\n"
        "                       over it, and ladder rungs run in\n"
        "                       order (0 = all cores; default 0)\n"
        "  --engine E           frontier | reference (default\n"
        "                       frontier; both give identical designs)\n"
        "  --single             Single-CLP baseline mode\n"
        "  --budgets A,B,C      optimize a ladder of DSP budgets\n"
        "                       through one warm session (device\n"
        "                       BRAM/bandwidth kept; designs identical\n"
        "                       to per-budget runs)\n"
        "  --sweep LO:HI:STEP   like --budgets, arithmetic ladder\n"
        "  --adjacent           adjacent-layers (low-latency) "
        "schedule\n"
        "  --cache-dir DIR      persistent frontier cache: load shape\n"
        "                       frontiers and memory-walk traces from\n"
        "                       DIR and flush new ones on exit (warm\n"
        "                       starts across processes; results are\n"
        "                       bit-identical to uncached runs)\n"
        "  --request-id ID      id echoed in --response output\n"
        "  --response           print the wire-encoded DseResponse of\n"
        "                       independent cold runs (the mclp-serve\n"
        "                       parity reference) instead of tables;\n"
        "                       with --cache-dir the same request runs\n"
        "                       through a cache-backed session instead\n"
        "                       (byte-identical either way)\n"
        "  --sim                run the cycle-level epoch simulation\n"
        "  --hls-out DIR        emit HLS template sources into DIR\n"
        "  --profile            print the optimizer phase breakdown\n"
        "                       (frontier build/query, tiling enum,\n"
        "                       memory walk) to stderr on exit; stdout\n"
        "                       is unchanged, so --response parity\n"
        "                       diffs still hold\n"
        "  --help               this text\n");
}

struct Options
{
    core::DseRequest request;
    std::optional<std::string> layersFile;
    std::optional<std::string> cacheDir;
    int threads = 0;  ///< the process pool's size (0 = all cores)
    bool response = false;
    bool sim = false;
    bool dumpLayers = false;
    bool profile = false;
    std::optional<std::string> hlsOut;
};

std::optional<Options>
parseArgs(int argc, char **argv)
{
    Options opts;
    core::DseRequest &request = opts.request;
    request.device = "690t";
    auto need_value = [&](int &i, const char *flag) -> const char * {
        if (i + 1 >= argc)
            util::fatal("%s needs a value", flag);
        return argv[++i];
    };
    bool single = false;
    bool adjacent = false;
    bool network_given = false;
    std::optional<std::string> joint_spec;
    std::optional<std::string> joint_weights;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            printUsage();
            return std::nullopt;
        } else if (arg == "--network") {
            request.network = need_value(i, "--network");
            network_given = true;
        } else if (arg == "--layers") {
            opts.layersFile = need_value(i, "--layers");
        } else if (arg == "--joint") {
            joint_spec = need_value(i, "--joint");
        } else if (arg == "--joint-weights") {
            joint_weights = need_value(i, "--joint-weights");
        } else if (arg == "--dump-layers") {
            opts.dumpLayers = true;
        } else if (arg == "--device") {
            request.device = need_value(i, "--device");
        } else if (arg == "--type") {
            request.type =
                fpga::dataTypeByName(need_value(i, "--type"));
        } else if (arg == "--mhz") {
            request.mhz = util::parseDoubleFlag(
                "--mhz", need_value(i, "--mhz"), 1e-3, 1e6);
        } else if (arg == "--bandwidth-gbps") {
            request.bandwidthGbps = util::parseDoubleFlag(
                "--bandwidth-gbps", need_value(i, "--bandwidth-gbps"),
                1e-6, 1e9);
        } else if (arg == "--max-clps") {
            request.maxClps = static_cast<int>(util::parseIntFlag(
                "--max-clps", need_value(i, "--max-clps"), 1, 1 << 20));
        } else if (arg == "--threads") {
            opts.threads = static_cast<int>(util::parseIntFlag(
                "--threads", need_value(i, "--threads"), 0, 4096));
        } else if (arg == "--engine") {
            std::string engine = need_value(i, "--engine");
            if (engine == "reference")
                request.referenceEngine = true;
            else if (engine != "frontier")
                util::fatal("unknown engine '%s' (frontier | "
                            "reference)", engine.c_str());
        } else if (arg == "--budgets" || arg == "--sweep") {
            // Last flag wins, like every other option.
            request.dspBudgets =
                core::parseDspLadderSpec(need_value(i, arg.c_str()));
        } else if (arg == "--single") {
            single = true;
        } else if (arg == "--adjacent") {
            adjacent = true;
        } else if (arg == "--cache-dir") {
            opts.cacheDir = need_value(i, "--cache-dir");
        } else if (arg == "--request-id") {
            request.id = need_value(i, "--request-id");
        } else if (arg == "--response") {
            opts.response = true;
        } else if (arg == "--sim") {
            opts.sim = true;
        } else if (arg == "--profile") {
            opts.profile = true;
        } else if (arg == "--hls-out") {
            opts.hlsOut = need_value(i, "--hls-out");
        } else {
            util::fatal("unknown option '%s' (try --help)",
                        arg.c_str());
        }
    }
    if (single && adjacent)
        util::fatal("--single and --adjacent are mutually exclusive: "
                    "the adjacent-layers study (Section 4.1) concerns "
                    "Multi-CLP schedules");
    if (single)
        request.mode = core::DseMode::SingleClp;
    else if (adjacent)
        request.mode = core::DseMode::Latency;
    if (opts.layersFile) {
        nn::Network parsed = nn::parseNetworkFile(*opts.layersFile);
        request.network = parsed.name();
        request.layers = parsed.layers();
    }
    if (joint_spec) {
        if (network_given || opts.layersFile)
            util::fatal("--joint names the networks; drop --network/"
                        "--layers");
        request.subnets = core::parseJointSpec(*joint_spec);
        if (joint_weights)
            core::applyJointWeights(request.subnets, *joint_weights);
        // The resolved joint name comes from the sub-network names.
        request.network.clear();
    } else if (joint_weights) {
        util::fatal("--joint-weights needs --joint");
    }
    return opts;
}

/** Render the resolved network in the --layers file format. The G
 * column appears only on grouped layers, so plain-network dumps stay
 * byte-identical to the pre-groups format (CI round-trips the dump
 * back through --layers). */
void
dumpLayers(const nn::Network &network)
{
    std::printf("network %s\n", network.name().c_str());
    for (const nn::ConvLayer &layer : network.layers()) {
        std::printf("%s %lld %lld %lld %lld %lld %lld",
                    layer.name.c_str(),
                    static_cast<long long>(layer.n),
                    static_cast<long long>(layer.m),
                    static_cast<long long>(layer.r),
                    static_cast<long long>(layer.c),
                    static_cast<long long>(layer.k),
                    static_cast<long long>(layer.s));
        if (layer.g != 1)
            std::printf(" %lld", static_cast<long long>(layer.g));
        std::printf("\n");
    }
}

/**
 * "name[lo..hi]" segments of one CLP's layer assignment, grouped by
 * the sub-network spans (local layer indices within each span).
 */
std::string
clpSubnetSegments(const model::ClpConfig &clp,
                  const std::vector<core::DseSubNetSpan> &spans)
{
    std::vector<std::string> segments;
    for (const core::DseSubNetSpan &span : spans) {
        size_t lo = 0, hi = 0, count = 0;
        for (const model::LayerBinding &binding : clp.layers) {
            if (binding.layerIdx < span.firstLayer ||
                binding.layerIdx >= span.firstLayer + span.numLayers)
                continue;
            size_t local = binding.layerIdx - span.firstLayer;
            lo = count == 0 ? local : std::min(lo, local);
            hi = count == 0 ? local : std::max(hi, local);
            ++count;
        }
        if (count == 0)
            continue;
        segments.push_back(
            lo == hi
                ? util::strprintf("%s[%zu]", span.name.c_str(), lo)
                : util::strprintf("%s[%zu..%zu]", span.name.c_str(),
                                  lo, hi));
    }
    return util::join(segments, ", ");
}

/** Joint requests: per-CLP attribution back to the sub-networks. */
void
printJointAttribution(const core::DseResponse &response,
                      const core::DsePoint &point)
{
    util::TextTable table({"CLP", "shape", "layers", "serves"});
    table.setTitle(util::strprintf(
        "sub-network attribution at %lld DSP slices (one epoch = one "
        "image of each sub-network copy)",
        static_cast<long long>(point.budget.dspSlices)));
    for (size_t ci = 0; ci < point.design.clps.size(); ++ci) {
        const model::ClpConfig &clp = point.design.clps[ci];
        table.addRow({std::to_string(ci),
                      util::strprintf(
                          "%lldx%lld",
                          static_cast<long long>(clp.shape.tn),
                          static_cast<long long>(clp.shape.tm)),
                      std::to_string(clp.layers.size()),
                      clpSubnetSegments(clp, response.subnets)});
    }
    std::printf("%s\n", table.render().c_str());
}

int
runTool(const Options &opts)
{
    const core::DseRequest &request = opts.request;
    nn::Network network = core::resolveNetwork(request);
    fpga::Device device = fpga::deviceByName(request.device);

    if (opts.dumpLayers) {
        // The hand-concatenation escape hatch: what --joint optimizes
        // is exactly this layer list, so feeding the dump back through
        // --layers must reproduce the joint designs byte for byte
        // (the CI smoke diffs the two).
        dumpLayers(network);
        return 0;
    }

    // The process's one pool, lent to every run below (results never
    // depend on its size).
    util::ThreadPool pool(opts.threads);

    // One shared persistent cache per invocation (results never
    // change; only how warm this process starts). The registry dtor
    // flushes new rows/traces back to the directory.
    std::shared_ptr<core::FrontierCache> cache;
    if (opts.cacheDir)
        cache = std::make_shared<core::FrontierCache>(*opts.cacheDir);

    if (opts.response) {
        // The parity reference: independent cold runs, wire form —
        // or, with --cache-dir, the same request through a
        // cache-backed session (bit-identical by the project
        // invariant, which CI diffs byte for byte).
        std::optional<core::SessionRegistry> registry;
        if (cache)
            registry.emplace(1, 0, 1, cache);
        core::DseResponse response = service::answerRequest(
            request, registry ? &*registry : nullptr, &pool);
        registry.reset();  // flush the cache before printing
        std::printf("%s\n", service::encodeResponse(response).c_str());
        return response.ok ? 0 : 1;
    }

    std::vector<fpga::ResourceBudget> budgets =
        core::requestBudgets(request);
    std::printf("network: %s (%zu conv layers, %.2f GFlop/image)\n",
                network.name().c_str(), network.numLayers(),
                static_cast<double>(network.totalFlops()) / 1e9);
    std::printf("target:  %s, %s, %.0f MHz, %lld DSP / %lld BRAM-18K "
                "budget%s\n\n",
                device.name.c_str(),
                fpga::dataTypeName(request.type).c_str(), request.mhz,
                static_cast<long long>(budgets.back().dspSlices),
                static_cast<long long>(budgets.back().bram18k),
                budgets.back().bandwidthLimited()
                    ? util::strprintf(", %.1f GB/s",
                                      budgets.back().bandwidthGbps())
                          .c_str()
                    : "");

    if (!request.dspBudgets.empty() && (opts.sim || opts.hlsOut))
        util::fatal("--sim/--hls-out need a single design; drop "
                    "--budgets/--sweep or run the chosen budget "
                    "alone");

    // One-session registry: single runs behave like a cold optimizer,
    // ladders reuse one frontier build across every rung.
    core::SessionRegistry registry(1, 0, 1, cache);
    core::DseResponse response =
        service::answerRequest(request, &registry, &pool);
    if (!response.ok) {
        std::fprintf(stderr, "mclp-opt: %s\n", response.error.c_str());
        return 1;
    }

    if (!request.dspBudgets.empty()) {
        // Ladder mode: one row per rung.
        util::TextTable table({"DSP budget", "CLPs", "epoch (kcyc)",
                               "img/s", "DSP used", "BRAM used"});
        table.setTitle(util::strprintf(
            "%s on %s BRAM/bandwidth context, warm session sweep",
            network.name().c_str(), device.name.c_str()));
        for (const core::DsePoint &point : response.points) {
            table.addRow(
                {util::withCommas(point.budget.dspSlices),
                 std::to_string(point.design.clps.size()),
                 util::withCommas((point.epochCycles + 500) / 1000),
                 util::strprintf("%.1f",
                                 request.mhz * 1e6 /
                                     static_cast<double>(
                                         point.epochCycles)),
                 util::withCommas(point.dspUsed),
                 util::withCommas(point.bramUsed)});
        }
        std::printf("%s\n", table.render().c_str());
        if (!response.subnets.empty())
            printJointAttribution(response, response.points.back());
        return 0;
    }

    const core::DsePoint &point = response.points.front();
    const model::MultiClpDesign &design = point.design;
    auto metrics =
        model::evaluateDesign(design, network, point.budget);

    std::printf("%s\n", design.toString(network).c_str());
    std::printf("epoch:        %s cycles (%.2f img/s)\n",
                util::withCommas(metrics.epochCycles).c_str(),
                metrics.imagesPerSec(request.mhz));
    std::printf("utilization:  %s\n",
                util::percent(metrics.utilization).c_str());
    std::printf("DSP slices:   %s of %s\n",
                util::withCommas(point.dspUsed).c_str(),
                util::withCommas(point.budget.dspSlices).c_str());
    std::printf("BRAM-18K:     %s of %s\n",
                util::withCommas(point.bramUsed).c_str(),
                util::withCommas(point.budget.bram18k).c_str());
    std::printf("schedule:     %s; latency %lld epochs (%.1f ms), "
                "%lld images in flight\n",
                point.schedule.adjacentLayers ? "adjacent-layers"
                                              : "pipelined",
                static_cast<long long>(point.schedule.latencyEpochs),
                1e3 * point.schedule.latencySeconds(
                          metrics.epochCycles, request.mhz),
                static_cast<long long>(point.schedule.imagesInFlight));

    if (!response.subnets.empty()) {
        std::printf("\n");
        printJointAttribution(response, point);
    }

    if (opts.sim) {
        sim::MultiClpSystem system(design, network, point.budget);
        auto sim_result = system.simulateEpoch();
        std::printf("\ncycle-level simulation: epoch %s cycles, "
                    "utilization %s, avg bandwidth %.2f GB/s\n",
                    util::withCommas(static_cast<int64_t>(
                                         sim_result.epochCycles))
                        .c_str(),
                    util::percent(sim_result.utilization).c_str(),
                    sim_result.avgBandwidthBytesPerCycle() *
                        request.mhz * 1e6 / 1e9);
        for (size_t ci = 0; ci < sim_result.clps.size(); ++ci) {
            std::printf("  CLP%zu: finish %s, stalls %s cycles\n", ci,
                        util::withCommas(static_cast<int64_t>(
                                             sim_result.clps[ci]
                                                 .finishCycle))
                            .c_str(),
                        util::withCommas(static_cast<int64_t>(
                                             sim_result.clps[ci]
                                                 .stallCycles))
                            .c_str());
        }
    }

    if (opts.hlsOut) {
        auto files = hlsgen::generateAccelerator(design, network);
        std::filesystem::create_directories(*opts.hlsOut);
        for (const auto &file : files) {
            std::ofstream ofs(std::filesystem::path(*opts.hlsOut) /
                              file.filename);
            ofs << file.contents;
        }
        std::printf("\nwrote %zu HLS files to %s/\n", files.size(),
                    opts.hlsOut->c_str());
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    // A file-size limit fails the --cache-dir publish (EFBIG) instead
    // of killing the process before it prints its answer.
    std::signal(SIGXFSZ, SIG_IGN);
    try {
        auto opts = parseArgs(argc, argv);
        if (!opts)
            return 0;
        if (opts->profile)
            util::prof::setEnabled(true);
        int rc = runTool(*opts);
        if (opts->profile) {
            // stderr, so --response stdout parity diffs still hold.
            std::fprintf(stderr, "phase breakdown (self time):\n%s",
                         util::prof::report().c_str());
        }
        return rc;
    } catch (const util::FatalError &err) {
        std::fprintf(stderr, "mclp-opt: %s\n", err.what());
        return 1;
    }
}
