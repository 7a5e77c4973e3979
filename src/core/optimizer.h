/**
 * @file
 * The Multi-CLP design optimizer (Section 4.3, Listing 3).
 *
 * Iteratively lowers a performance target; at each step
 * OptimizeCompute proposes DSP partitions meeting the target and
 * OptimizeMemory tries to fit their buffers into the BRAM budget
 * (and, when bandwidth is constrained, verifies that the design still
 * meets the target with transfer-blocked CLPs). The first target with
 * a feasible design wins. Constraining the partitioner to one CLP
 * reproduces the state-of-the-art Single-CLP methodology.
 */

#ifndef MCLP_CORE_OPTIMIZER_H
#define MCLP_CORE_OPTIMIZER_H

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "core/compute_optimizer.h"
#include "core/layer_order.h"
#include "core/memory_optimizer.h"
#include "fpga/device.h"
#include "model/clp_config.h"
#include "model/metrics.h"
#include "nn/network.h"
#include "util/thread_pool.h"

namespace mclp {
namespace core {

class DseCaches;  // warm cross-run caches; see dse_session.h

/** Which end-to-end search implementation MultiClpOptimizer runs. */
enum class OptimizerEngine
{
    /**
     * Pareto-frontier shape cache, galloping + bisection over the
     * monotone target sequence, and (with OptimizerOptions::pool)
     * heuristic runs and frontier construction fanned out over one
     * borrowed pool. Produces the same designs as Reference. Default.
     */
    Frontier,
    /**
     * The paper's Listing-3 loop verbatim: linear target scan with
     * full shape re-enumeration per step. Kept as the seed-equivalent
     * baseline for benchmarking and differential testing.
     */
    Reference,
};

/** Knobs of the optimization procedure. */
struct OptimizerOptions
{
    /** Upper bound on CLPs (the paper limits SqueezeNet runs to 6). */
    int maxClps = 6;

    /** Search implementation; see OptimizerEngine. */
    OptimizerEngine engine = OptimizerEngine::Frontier;

    /**
     * Borrowed pool for the Frontier engine: heuristic runs and their
     * frontier rows (FrontierTable::prepare) fan out over it. Never
     * owned; the front end that made it keeps it alive across the
     * run. Null runs serially. The pool never changes results.
     */
    util::ThreadPool *pool = nullptr;

    /** Target decrement per iteration (Listing 3's `step`). */
    double targetStep = 0.005;

    /**
     * Layer ordering. When unset, both heuristics are tried and the
     * better final design is kept (compute-to-data for
     * bandwidth-limited budgets first, per the paper's guidance).
     */
    std::optional<OrderHeuristic> heuristic;

    /** Force a conventional Single-CLP design. */
    bool singleClp = false;

    /**
     * Constrain every CLP to a contiguous run of layers in the
     * network's own order (Section 4.1's latency optimization:
     * latency and in-flight images drop to the CLP count, possibly
     * costing throughput). Implemented by pinning the layer order to
     * the pipeline order, since OptimizeCompute only forms contiguous
     * groups of the order it is given.
     */
    bool adjacentLayers = false;

    /** Safety bound on target iterations. */
    int maxIterations = 2000;

    /**
     * Warm cross-run caches (frontier tables, tradeoff curves, tiling
     * options) shared by every run of a DSE session. Normally set by
     * DseSession, not by hand; must have been created for the same
     * network and data type. Caches are value-preserving: runs with
     * and without them produce bit-identical designs.
     */
    std::shared_ptr<DseCaches> caches;
};

/** The outcome of an optimization run. */
struct OptimizationResult
{
    model::MultiClpDesign design;
    model::DesignMetrics metrics;       ///< under the given budget
    ComputePartition partition;         ///< for tradeoff-curve studies
    OrderHeuristic usedHeuristic = OrderHeuristic::NmDistance;
    double achievedTarget = 0.0;        ///< final Listing-3 target value
    int iterations = 0;                 ///< target steps taken
};

/** Top-level optimizer; see file comment. */
class MultiClpOptimizer
{
  public:
    MultiClpOptimizer(const nn::Network &network, fpga::DataType type,
                      fpga::ResourceBudget budget,
                      OptimizerOptions options = {});

    /**
     * Run the Listing-3 loop. fatal() if no design exists within the
     * iteration bound (e.g. a hopeless resource budget).
     */
    OptimizationResult run() const;

  private:
    /**
     * One full search for a fixed layer order: Listing 3's linear scan
     * under the Reference engine, galloping + bisection over the same
     * target sequence under the Frontier engine. @p cache (optional)
     * shares tiling tables across concurrent heuristic runs.
     */
    std::optional<OptimizationResult> runWithOrder(
        OrderHeuristic heuristic, util::ThreadPool *pool,
        std::shared_ptr<TilingOptionCache> cache) const;

    /**
     * Evaluate one target step (Listing 3's loop body): propose
     * compute partitions, fit their buffers, keep the best feasible
     * design. nullopt when the step is infeasible.
     */
    std::optional<OptimizationResult> evaluateTarget(
        ComputeOptimizer &compute, const MemoryOptimizer &memory,
        OrderHeuristic heuristic, int64_t cycles_min, double target,
        int iter) const;

    const nn::Network &network_;
    fpga::DataType type_;
    fpga::ResourceBudget budget_;
    OptimizerOptions options_;
};

/**
 * Convenience wrapper: best Single-CLP design for a budget, i.e. the
 * state-of-the-art baseline of Zhang et al. [32].
 */
OptimizationResult optimizeSingleClp(const nn::Network &network,
                                     fpga::DataType type,
                                     const fpga::ResourceBudget &budget);

/** Convenience wrapper: best Multi-CLP design for a budget. */
OptimizationResult optimizeMultiClp(const nn::Network &network,
                                    fpga::DataType type,
                                    const fpga::ResourceBudget &budget,
                                    int max_clps = 6);

} // namespace core
} // namespace mclp

#endif // MCLP_CORE_OPTIMIZER_H
