/**
 * @file
 * The DSE plan layer: one value type describing a whole optimization
 * request — which network, which device context, which data type,
 * which budget ladder, which schedule mode — and one describing the
 * complete answer. mclp-opt and mclp-serve both build a DseRequest
 * and hand it to service::answerRequest(), so the CLI and the batch
 * service execute the same code path and their outputs can be
 * diffed byte for byte (the wire forms live in
 * src/service/dse_codec.h).
 */

#ifndef MCLP_CORE_DSE_REQUEST_H
#define MCLP_CORE_DSE_REQUEST_H

#include <cstdint>
#include <string>
#include <vector>

#include "core/optimizer.h"
#include "core/schedule.h"
#include "fpga/data_type.h"
#include "fpga/device.h"
#include "nn/network.h"

namespace mclp {
namespace core {

/** Which schedule objective a request optimizes (Section 4.1). */
enum class DseMode
{
    /** Pipelined epochs: maximum throughput, latency = numLayers. */
    Throughput,
    /** Adjacent-layers schedule: latency drops to numClps epochs. */
    Latency,
    /** Conventional Single-CLP baseline (Zhang et al. [32]). */
    SingleClp,
};

/** Mode name for reports and the wire codec. */
std::string dseModeName(DseMode mode);

/** Inverse of dseModeName (case-insensitive); fatal() on unknown. */
DseMode dseModeByName(const std::string &name);

/**
 * One constituent of a joint multi-network request (Section 4.3).
 * Joint optimization concatenates the sub-networks into one workload
 * (nn::concatenateNetworks), so a single design partitions the FPGA's
 * DSP slices across all of them and one epoch advances @ref weight
 * images of every network.
 */
struct DseSubNet
{
    /** Unique display name; attribution spans refer back to it. */
    std::string name;

    /** Zoo network supplying the layers; empty means @ref layers. */
    std::string network;

    /** Inline layer list, used when @ref network is empty. */
    std::vector<nn::ConvLayer> layers;

    /**
     * Images of this network advanced per joint epoch, implemented as
     * @ref weight copies of the layer list in the concatenation
     * (copies are named "name.0", "name.1", ... when weight > 1 —
     * '.' because copy names must survive every surface that
     * round-trips layer names, and '#' is the network-file
     * comment character).
     * Must be >= 1.
     */
    int64_t weight = 1;
};

/**
 * One self-contained optimization request. Defaults mirror the CLI
 * defaults, so an empty request plus a network name is runnable.
 */
struct DseRequest
{
    /** Client-chosen tag echoed in the response (batch correlation). */
    std::string id;

    /**
     * Zoo network name, or the display name of @ref layers. Ignored
     * by joint requests (see @ref subnets), whose resolved name is
     * always the '+'-join of the sub-network names so two routes to
     * the same joint workload stay byte-identical on the wire.
     */
    std::string network = "alexnet";

    /** Inline layer list; when non-empty it overrides the zoo. */
    std::vector<nn::ConvLayer> layers;

    /**
     * Joint multi-network request (Section 4.3): when non-empty, the
     * request optimizes the concatenation of these sub-networks
     * instead of @ref network / @ref layers (which must then be
     * empty/defaulted — a joint request's layers live inside its
     * subnets). The response carries attribution spans mapping the
     * concatenated layer indices back to each sub-network.
     */
    std::vector<DseSubNet> subnets;

    /**
     * Device catalog short name supplying the BRAM/bandwidth context
     * for every rung; empty means the Figure-7 rule (BRAM = DSP/1.3),
     * which then requires an explicit ladder.
     */
    std::string device;

    fpga::DataType type = fpga::DataType::Float32;
    double mhz = 100.0;

    /** Off-chip bandwidth cap in GB/s; <= 0 means unconstrained. */
    double bandwidthGbps = 0.0;

    int maxClps = 6;
    DseMode mode = DseMode::Throughput;

    /**
     * DSP-slice ladder; empty means one run at the device's standard
     * 80% budget.
     */
    std::vector<int64_t> dspBudgets;

    /** Run the Listing-3 Reference engine (differential testing). */
    bool referenceEngine = false;

    /**
     * The wire's `threads=` key (0 = hardware concurrency), validated
     * >= 0 and round-tripped by the codec, which omits it at the
     * default. Nothing executes by it: a run's threads are the pool
     * its front end lends (service::answerRequest), so no client can
     * size a server's threads.
     */
    int threads = 1;

    /** fatal() unless the request is well-formed and resolvable. */
    void validate() const;
};

/** One optimized rung of a request's ladder. */
struct DsePoint
{
    fpga::ResourceBudget budget;
    model::MultiClpDesign design;  ///< canonicalized (schedule order)
    int64_t epochCycles = 0;
    int64_t dspUsed = 0;
    int64_t bramUsed = 0;
    ScheduleInfo schedule;
};

/**
 * Attribution span of a joint response: which contiguous run of
 * global layer indices (in the concatenated network) came from which
 * sub-network copy. A design's CLP layer assignments are expressed in
 * global indices, so spans are all a client needs to attribute every
 * CLP's layer ranges back to the originating sub-networks.
 */
struct DseSubNetSpan
{
    std::string name;       ///< sub-network copy name (a, a.1, ...)
    size_t firstLayer = 0;  ///< first global layer index of the span
    size_t numLayers = 0;   ///< span length
};

/** The complete answer to one DseRequest. */
struct DseResponse
{
    std::string id;       ///< echoed from the request
    bool ok = false;
    std::string error;    ///< set when !ok; points is then empty
    std::string network;  ///< resolved network name
    /** Joint requests only: one span per sub-network copy, covering
     * the concatenated network end to end in request order. */
    std::vector<DseSubNetSpan> subnets;
    std::vector<DsePoint> points;  ///< one per budget, ladder order
};

/**
 * Resolve the request's network: the concatenation of its subnets for
 * a joint request (weight-expanded, named by the '+'-join of subnet
 * names), inline layers or the zoo otherwise. When @p spans is given
 * it receives the joint attribution spans (cleared for single-network
 * requests) — computed during the one expansion, so callers needing
 * both never resolve twice.
 */
nn::Network resolveNetwork(const DseRequest &request,
                           std::vector<DseSubNetSpan> *spans = nullptr);

/**
 * Parse the CLI --joint spec: comma-separated "[NAME:]REF" entries.
 * A REF containing '/' or '.' is a network file path (parsed via
 * nn::parseNetworkFile, so hand-written concatenations and joint
 * requests meet in the same layer lists; use "./file" for a bare
 * filename); any other REF is a zoo network name — deterministic
 * regardless of what happens to exist in the working directory. NAME
 * defaults to REF for zoo entries and to the file's network name for
 * files. fatal() on malformed input.
 */
std::vector<DseSubNet> parseJointSpec(const std::string &spec);

/**
 * Apply a CLI --joint-weights spec ("2,1,...": one positive integer
 * per sub-network, in --joint order) to @p subnets; fatal() on a
 * count mismatch or a non-positive weight.
 */
void applyJointWeights(std::vector<DseSubNet> &subnets,
                       const std::string &spec);

/**
 * The request's budget ladder: the device's standard budget as the
 * base when a device is named (BRAM/bandwidth kept across rungs, as
 * mclp-opt --budgets does), the Figure-7 BRAM = DSP/1.3 rule
 * otherwise, with the request's bandwidth cap applied to every rung.
 * fatal() when neither a device nor a ladder is given.
 */
std::vector<fpga::ResourceBudget> requestBudgets(const DseRequest &request);

/** OptimizerOptions equivalent to the request's mode and knobs. The
 * pool stays null: the front end that runs the request lends one. */
OptimizerOptions requestOptions(const DseRequest &request);

/**
 * Identity-free digest of a network: a hash over the layer-dims
 * sequence, rendered as "<layers>L:<hex>". Two networks with the same
 * layer dimensions in the same order share a signature (and can share
 * a registry session) even when their names differ; any dimension
 * change separates them.
 */
std::string networkSignature(const nn::Network &network);

} // namespace core
} // namespace mclp

#endif // MCLP_CORE_DSE_REQUEST_H
