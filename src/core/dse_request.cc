#include "core/dse_request.h"

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <set>

#include "core/dse_session.h"
#include "nn/parser.h"
#include "nn/zoo.h"
#include "util/hash.h"
#include "util/logging.h"
#include "util/string_utils.h"

namespace mclp {
namespace core {

std::string
dseModeName(DseMode mode)
{
    switch (mode) {
      case DseMode::Throughput:
        return "throughput";
      case DseMode::Latency:
        return "latency";
      case DseMode::SingleClp:
        return "single";
    }
    util::panic("dseModeName: bad mode %d", static_cast<int>(mode));
}

DseMode
dseModeByName(const std::string &name)
{
    std::string lower = name;
    std::transform(lower.begin(), lower.end(), lower.begin(),
                   [](unsigned char c) { return std::tolower(c); });
    if (lower == "throughput")
        return DseMode::Throughput;
    if (lower == "latency" || lower == "adjacent")
        return DseMode::Latency;
    if (lower == "single" || lower == "single-clp")
        return DseMode::SingleClp;
    util::fatal("unknown DSE mode '%s' (throughput | latency | single)",
                name.c_str());
}

namespace {

/** The sub-network copy name: "a" at weight 1, "a.0", "a.1", ...
 * ('.', not '#': copy names end up inside layer names, and '#' is
 * the --layers file comment character, which would break the
 * --dump-layers hand-concatenation round trip). */
std::string
subnetCopyName(const DseSubNet &sub, int64_t copy)
{
    if (sub.weight == 1)
        return sub.name;
    return sub.name + "." + std::to_string(copy);
}

} // namespace

void
DseRequest::validate() const
{
    if (!subnets.empty()) {
        // A joint request (Section 4.3): its layers live inside the
        // subnets, never in the single-network fields.
        if (!layers.empty())
            util::fatal("DseRequest: joint requests carry layers "
                        "inside their subnets, not in 'layers'");
        std::set<std::string> names;
        for (const DseSubNet &sub : subnets) {
            if (sub.name.empty())
                util::fatal("DseRequest: every joint sub-network "
                            "needs a name");
            if (!names.insert(sub.name).second)
                util::fatal("DseRequest: duplicate sub-network name "
                            "'%s'", sub.name.c_str());
            if (sub.network.empty() && sub.layers.empty())
                util::fatal("DseRequest: sub-network '%s' needs a zoo "
                            "network or inline layers",
                            sub.name.c_str());
            if (!sub.network.empty() && !sub.layers.empty())
                util::fatal("DseRequest: sub-network '%s' has both a "
                            "zoo network and inline layers",
                            sub.name.c_str());
            if (sub.weight < 1)
                util::fatal("DseRequest: sub-network '%s' weight must "
                            "be >= 1, got %lld", sub.name.c_str(),
                            static_cast<long long>(sub.weight));
        }
        // Weight expansion renames copies NAME.0, NAME.1, ...; a
        // literal sub-network named like a copy of another would make
        // two attribution spans share a name, silently mis-mapping
        // layers to networks for any client that keys on span names.
        std::set<std::string> copy_names;
        for (const DseSubNet &sub : subnets) {
            for (int64_t copy = 0; copy < sub.weight; ++copy) {
                std::string name = subnetCopyName(sub, copy);
                if (!copy_names.insert(name).second)
                    util::fatal("DseRequest: sub-network copy name "
                                "'%s' collides after weight expansion "
                                "(copies are named NAME.0, NAME.1, "
                                "...)", name.c_str());
            }
        }
    } else if (network.empty() && layers.empty()) {
        util::fatal("DseRequest: a network name or inline layers are "
                    "required");
    }
    if (device.empty() && dspBudgets.empty())
        util::fatal("DseRequest: without a device, an explicit DSP "
                    "ladder is required (the BRAM = DSP/1.3 rule needs "
                    "a DSP count)");
    if (mhz <= 0.0)
        util::fatal("DseRequest: clock must be positive, got %g", mhz);
    if (maxClps < 1)
        util::fatal("DseRequest: maxClps must be >= 1, got %d", maxClps);
    if (threads < 0)
        util::fatal("DseRequest: threads must be >= 0, got %d",
                    threads);
    for (int64_t dsp : dspBudgets) {
        if (dsp <= 0)
            util::fatal("DseRequest: DSP budgets must be positive, got "
                        "%lld", static_cast<long long>(dsp));
    }
}

namespace {

/** One nn::Network per sub-network copy, in request order. */
std::vector<nn::Network>
expandSubnets(const DseRequest &request)
{
    std::vector<nn::Network> parts;
    for (const DseSubNet &sub : request.subnets) {
        nn::Network base = sub.network.empty()
                               ? nn::Network(sub.name, sub.layers)
                               : nn::networkByName(sub.network);
        for (int64_t copy = 0; copy < sub.weight; ++copy)
            parts.emplace_back(subnetCopyName(sub, copy),
                               base.layers());
    }
    return parts;
}

} // namespace

nn::Network
resolveNetwork(const DseRequest &request,
               std::vector<DseSubNetSpan> *spans)
{
    if (spans)
        spans->clear();
    if (!request.subnets.empty()) {
        request.validate();
        std::vector<nn::Network> parts = expandSubnets(request);
        if (spans) {
            size_t next = 0;
            for (const nn::Network &part : parts) {
                spans->push_back(
                    {part.name(), next, part.numLayers()});
                next += part.numLayers();
            }
        }
        std::vector<std::string> names;
        names.reserve(request.subnets.size());
        for (const DseSubNet &sub : request.subnets)
            names.push_back(sub.name);
        return nn::concatenateNetworks(parts,
                                       util::join(names, "+"));
    }
    if (!request.layers.empty()) {
        return nn::Network(request.network.empty() ? "custom"
                                                   : request.network,
                           request.layers);
    }
    return nn::networkByName(request.network);
}

std::vector<DseSubNet>
parseJointSpec(const std::string &spec)
{
    std::vector<DseSubNet> subnets;
    for (const std::string &entry : util::split(spec, ',')) {
        if (entry.empty())
            util::fatal("--joint: empty sub-network entry in '%s'",
                        spec.c_str());
        DseSubNet sub;
        std::string ref = entry;
        size_t colon = entry.find(':');
        if (colon != std::string::npos) {
            sub.name = entry.substr(0, colon);
            ref = entry.substr(colon + 1);
            if (sub.name.empty() || ref.empty())
                util::fatal("--joint: entry '%s' wants NAME:REF",
                            entry.c_str());
        }
        // Deterministic dispatch: path-looking refs ('/' or '.') are
        // network files, everything else is a zoo name — so a stray
        // file in the working directory can never shadow a zoo
        // network, and the same command means the same workload in
        // every directory. A file without either character is
        // reachable as "./file".
        if (ref.find('/') != std::string::npos ||
            ref.find('.') != std::string::npos) {
            nn::Network parsed = nn::parseNetworkFile(ref);
            if (sub.name.empty())
                sub.name = parsed.name();
            sub.layers = parsed.layers();
        } else {
            sub.network = ref;
            if (sub.name.empty())
                sub.name = ref;
        }
        subnets.push_back(std::move(sub));
    }
    return subnets;
}

void
applyJointWeights(std::vector<DseSubNet> &subnets,
                  const std::string &spec)
{
    std::vector<std::string> parts = util::split(spec, ',');
    if (parts.size() != subnets.size())
        util::fatal("--joint-weights: %zu weights for %zu "
                    "sub-networks", parts.size(), subnets.size());
    for (size_t i = 0; i < parts.size(); ++i) {
        char *end = nullptr;
        long long weight = std::strtoll(parts[i].c_str(), &end, 10);
        if (end == parts[i].c_str() || *end != '\0' || weight < 1)
            util::fatal("--joint-weights: bad weight '%s' (positive "
                        "integers)", parts[i].c_str());
        subnets[i].weight = weight;
    }
}

std::vector<fpga::ResourceBudget>
requestBudgets(const DseRequest &request)
{
    request.validate();
    std::vector<fpga::ResourceBudget> budgets;
    if (!request.device.empty()) {
        fpga::ResourceBudget base = fpga::standardBudget(
            fpga::deviceByName(request.device), request.mhz);
        if (request.dspBudgets.empty())
            budgets.push_back(base);
        else
            budgets = dspLadder(request.dspBudgets, request.mhz, 1.3,
                                &base);
    } else {
        budgets = dspLadder(request.dspBudgets, request.mhz, 1.3);
    }
    if (request.bandwidthGbps > 0.0) {
        for (fpga::ResourceBudget &budget : budgets)
            budget.setBandwidthGbps(request.bandwidthGbps);
    }
    return budgets;
}

OptimizerOptions
requestOptions(const DseRequest &request)
{
    OptimizerOptions options;
    options.maxClps = request.maxClps;
    options.singleClp = request.mode == DseMode::SingleClp;
    options.adjacentLayers = request.mode == DseMode::Latency;
    if (request.referenceEngine)
        options.engine = OptimizerEngine::Reference;
    return options;
}

std::string
networkSignature(const nn::Network &network)
{
    std::vector<int64_t> words;
    words.reserve(network.numLayers() * 7);
    for (const nn::ConvLayer &layer : network.layers()) {
        words.push_back(layer.n);
        words.push_back(layer.m);
        words.push_back(layer.r);
        words.push_back(layer.c);
        words.push_back(layer.k);
        words.push_back(layer.s);
        words.push_back(layer.g);
    }
    return util::strprintf(
        "%zuL:%016llx", network.numLayers(),
        static_cast<unsigned long long>(
            util::hashInt64Words(words.data(), words.size())));
}

} // namespace core
} // namespace mclp
