/**
 * @file
 * OptimizeMemory (Section 4.3, second step): partition the BRAM budget.
 *
 * For every layer of a compute-partition candidate, choose tiling
 * factors (Tr, Tc) that minimize the CLP's peak off-chip bandwidth
 * subject to the total BRAM budget. Larger tiles enlarge the on-chip
 * buffers but reduce data re-transfer, so BRAM capacity and off-chip
 * bandwidth trade off directly (Figure 6).
 *
 * Implementation: per layer we build the Pareto frontier of
 * (input-bank BRAM cost, output-bank BRAM cost, peak bandwidth) over
 * all (Tr, Tc); a design starts with every layer at its
 * minimum-bandwidth point and a greedy walk repeatedly applies the
 * buffer-shrinking move with the best BRAM-saved-per-bandwidth-added
 * ratio until the budget is met. The walk's trace is the BRAM vs
 * bandwidth tradeoff curve.
 */

#ifndef MCLP_CORE_MEMORY_OPTIMIZER_H
#define MCLP_CORE_MEMORY_OPTIMIZER_H

#include <array>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "core/compute_optimizer.h"
#include "fpga/device.h"
#include "model/clp_config.h"
#include "nn/network.h"
#include "util/hash.h"

namespace mclp {
namespace core {

/** One feasible tiling of a layer, annotated with its costs. */
struct TilingOption
{
    model::Tiling tiling;
    int64_t inputBankBrams = 0;   ///< BRAMs per input bank at this tiling
    int64_t outputBankBrams = 0;  ///< BRAMs per output bank
    double peakWordsPerCycle = 0.0;
};

/**
 * Pareto-optimal tiling options for @p layer on a CLP of @p shape,
 * sorted by ascending peak bandwidth. Options dominated in all three
 * of (input cost, output cost, peak) are removed.
 */
std::vector<TilingOption> paretoTilingOptions(const nn::ConvLayer &layer,
                                              const model::ClpShape &shape);

// The memo tables' shared hash lives in util/hash.h so the frontier
// row store (shape_frontier.h) can key by the same flattened dims
// sequences; these aliases keep the historical core:: spellings.
using util::hashInt64Words;

/**
 * Memoizes paretoTilingOptions by (layer dimensions, shape). The
 * optimization loop re-derives tilings for the same layer-on-shape
 * pairing at every target step and across ordering heuristics, and
 * networks repeat layer dimensions (grouped convolutions, fire
 * modules); the table computes each distinct pairing once and hands
 * out shared immutable vectors (ascending peak, as
 * paretoTilingOptions returns them). Thread safe — concurrent
 * heuristic runs share one cache.
 */
class TilingOptionCache
{
  public:
    using Options = std::shared_ptr<const std::vector<TilingOption>>;

    /** Options for @p layer on @p shape. */
    Options get(const nn::ConvLayer &layer, const model::ClpShape &shape);

    /**
     * Rough resident-size estimate (keys + option vectors), for the
     * SessionRegistry's byte budget. Exactness is not needed there;
     * proportionality is.
     */
    size_t memoryBytes();

  private:
    /**
     * (R, C, K, S, Tn, Tm, ceil(N/Tn), pad) — everything the options
     * depend on (see get() for why N enters only through its ceiling
     * and M not at all).
     */
    using Key = std::array<int64_t, 8>;

    struct KeyHash
    {
        size_t
        operator()(const Key &key) const
        {
            return hashInt64Words(key.data(), key.size());
        }
    };

    std::mutex mutex_;
    std::unordered_map<Key, Options, KeyHash> table_;
};

/** One point on the BRAM vs bandwidth tradeoff curve (Figure 6). */
struct TradeoffPoint
{
    int64_t totalBram = 0;
    double peakBytesPerCycle = 0.0;
    model::MultiClpDesign design;
};

using util::Int64VectorHash;

/**
 * One buffer-shrinking move of the greedy memory walk: lower a CLP's
 * input- or output-bank BRAM cost cap to the next achievable level.
 */
struct BufferMove
{
    bool input = false;      ///< shrink input (else output) banks
    int64_t newCap = 0;      ///< new per-bank BRAM cost cap
    int64_t bramAfter = 0;   ///< CLP BRAM use after the move
    double peakAfter = 0.0;  ///< CLP peak bandwidth after (words/cycle)
};

/**
 * Cross-run memo of per-CLP-group tradeoff curves. The greedy walk's
 * probes are pure functions of (data type, CLP shape, layer
 * dimensions, current buffer caps): nothing about the surrounding
 * partition, BRAM budget, or cycle target enters them. A group's walk
 * therefore traverses a fixed state graph — the group's BRAM vs
 * bandwidth tradeoff curve — and this cache memoizes that graph keyed
 * by (range dims, shape, data type), so tradeoffCurve() and
 * budget-capped optimize() calls stop re-walking identical curves
 * across candidates, across targets, and across budgets of a sweep.
 * Values are exact, never heuristic: cached and recomputed walks are
 * bit-identical. Thread safe; a DseSession shares one instance across
 * every run of the session.
 */
class FrontierCache;

class TradeoffCurveCache
{
  public:
    /** Probe results at one cap state, indexed [input, output]. */
    using ProbePair = std::array<std::optional<BufferMove>, 2>;

    /**
     * @param cache optional persistent cache (core/frontier_cache.h),
     * fixed for the memo's life: newly created partition traces are
     * seeded from disk when their key is there, and live traces are
     * noted for write-back at the cache's next flush. Seeded and cold
     * traces are interchangeable — the walk resumes from wherever the
     * stored prefix ends, and a prefix deeper than a query needs is
     * answered by the same binary search the process-warm path
     * already uses.
     */
    explicit TradeoffCurveCache(
        std::shared_ptr<FrontierCache> cache = nullptr);

    /** Frees the walk lookups of every trace the disk cache still
     * tracks: it writes only their walks. */
    ~TradeoffCurveCache();

    /** One group's memoized walk states: (inCap, outCap) -> probes. */
    class GroupCurve
    {
      public:
        /** Cached probes at a cap state, or null when not yet seen. */
        const ProbePair *find(int64_t in_cap, int64_t out_cap) const;

        /** Record probes for a state; the first insert wins. */
        const ProbePair &insert(int64_t in_cap, int64_t out_cap,
                                ProbePair probes);

        /** Rough resident-size estimate of the memoized states. */
        size_t memoryBytes() const;

      private:
        mutable std::mutex mutex_;
        std::map<std::pair<int64_t, int64_t>, ProbePair> states_;
    };

    /**
     * The curve memo for @p shape over @p layers (network indices).
     * Groups with identical dims share one curve even across
     * different layer indices and different partitions.
     */
    std::shared_ptr<GroupCurve> curve(fpga::DataType type,
                                      const model::ClpShape &shape,
                                      const nn::Network &network,
                                      const std::vector<size_t> &layers);

    /**
     * One applied move of a partition's greedy walk. The recorded
     * caps are the mover's buffer-cost caps after the move (post
     * tightening), which — by the idempotence of the cap/re-pick
     * cycle — are all that is needed to reconstruct the mover's exact
     * tilings at that point of the walk.
     */
    struct PartitionStep
    {
        uint32_t clp = 0;         ///< which CLP moved
        int64_t inCap = 0;        ///< mover's input cap after the move
        int64_t outCap = 0;       ///< mover's output cap after
        int64_t totalBram = 0;    ///< partition BRAM after the move
        double totalPeak = 0.0;   ///< partition peak bytes/cycle after
    };

    /**
     * A partition's walk trace: the deterministic move sequence of
     * the greedy frontier walk, which does not depend on the BRAM
     * budget or cycle target. Total BRAM strictly decreases along the
     * steps, so any budget's stopping point is a binary search, and
     * the design there is rebuilt from the recorded caps — no
     * re-walking. Extended lazily (a cold run stops exactly where the
     * uncached walk would have) and resumed when a later query needs
     * to go deeper. Guarded by its mutex; managed by MemoryOptimizer.
     */
    struct PartitionTrace
    {
        std::mutex mutex;
        bool initialized = false;
        int64_t initialBram = 0;
        double initialPeak = 0.0;
        std::vector<PartitionStep> steps;
        bool complete = false;  ///< walked to the bottom of the curve
        /** Per-group per-layer options, fetched once for every
         * state reconstruction against this trace. */
        std::vector<std::vector<TilingOptionCache::Options>>
            groupOptions;
        /** Per-group probe memos, resolved once per trace. */
        std::vector<std::shared_ptr<GroupCurve>> groupCurves;
    };

    /**
     * The walk-trace memo for a whole partition, keyed by (data type,
     * per-group shape and layer dims). Partitions with identical
     * signatures share one trace even when their layer indices differ.
     */
    std::shared_ptr<PartitionTrace>
    partitionTrace(fpga::DataType type, const nn::Network &network,
                   const ComputePartition &partition);

    /** Rough resident-size estimate (see TilingOptionCache). */
    size_t memoryBytes();

  private:
    std::mutex mutex_;
    const std::shared_ptr<FrontierCache> cache_;  ///< optional disk layer
    std::unordered_map<std::vector<int64_t>, std::shared_ptr<GroupCurve>,
                       Int64VectorHash>
        curves_;
    std::unordered_map<std::vector<int64_t>,
                       std::shared_ptr<PartitionTrace>, Int64VectorHash>
        traces_;
};

/** Memory-partitioning search over a compute-partition candidate. */
class MemoryOptimizer
{
  public:
    /**
     * @param cache optional shared tiling memo; when null the
     * optimizer creates a private one, so repeated optimize() calls
     * still reuse tables within this instance.
     * @param curves optional shared tradeoff-curve memo; when null a
     * private one is created (probes still dedup across candidates
     * and targets within this instance). A DseSession passes its warm
     * cache here to reuse curves across budgets.
     */
    MemoryOptimizer(const nn::Network &network, fpga::DataType type,
                    std::shared_ptr<TilingOptionCache> cache = nullptr,
                    std::shared_ptr<TradeoffCurveCache> curves = nullptr);

    /**
     * Assign (Tr, Tc) to every layer of @p partition such that total
     * BRAM fits the budget, minimizing peak bandwidth. When the budget
     * carries a bandwidth cap, the finished design must additionally
     * meet @p cycle_target under shared-bandwidth evaluation (possibly
     * with transfer-blocked CLPs). Returns nullopt when infeasible.
     */
    std::optional<model::MultiClpDesign> optimize(
        const ComputePartition &partition,
        const fpga::ResourceBudget &budget, int64_t cycle_target) const;

    /**
     * The full BRAM/bandwidth frontier for a candidate: from the
     * minimum-bandwidth design down to the minimum-BRAM design.
     * Points are ordered by decreasing BRAM.
     */
    std::vector<TradeoffPoint> tradeoffCurve(
        const ComputePartition &partition) const;

  private:
    class ClpState;

    /**
     * Fresh maximum-buffer states, one per partition group, sharing
     * the trace's pre-fetched tiling options (filled on first use).
     */
    std::vector<ClpState> makeStates(
        const ComputePartition &partition,
        TradeoffCurveCache::PartitionTrace &trace) const;

    /**
     * Run the greedy frontier walk from wherever @p trace currently
     * ends, appending one PartitionStep per move, until total BRAM is
     * within @p bram_budget (walking the whole curve when
     * bram_budget < 0). A cold first call stops exactly where the
     * never-cached walk would have stopped; later calls resume. The
     * caller holds the trace mutex.
     */
    void extendTrace(const ComputePartition &partition,
                     TradeoffCurveCache::PartitionTrace &trace,
                     int64_t bram_budget) const;

    /**
     * Reconstruct every CLP's exact state at step @p idx of the trace
     * (-1 = the initial maximum-buffer point) from the recorded caps.
     */
    std::vector<ClpState> statesAt(
        const ComputePartition &partition,
        TradeoffCurveCache::PartitionTrace &trace,
        ptrdiff_t idx) const;

    model::MultiClpDesign buildDesign(
        const ComputePartition &partition,
        const std::vector<ClpState> &states) const;

    const nn::Network &network_;
    fpga::DataType type_;
    std::shared_ptr<TilingOptionCache> cache_;
    std::shared_ptr<TradeoffCurveCache> curves_;

    /**
     * Memo for optimize(): the loosening-target loop re-proposes the
     * same compute partitions at step after step, and the greedy walk
     * is deterministic, so each (partition, budget, effective target)
     * is solved once. The key serializes exactly the inputs the
     * result depends on.
     */
    mutable std::mutex memoMutex_;
    mutable std::unordered_map<std::vector<int64_t>,
                               std::optional<model::MultiClpDesign>,
                               Int64VectorHash>
        memo_;
};

/**
 * Re-run OptimizeMemory on an existing design, keeping its CLP shapes
 * and layer assignment but re-deriving every (Tr, Tc) for the given
 * budget. Used to complete published configurations whose tilings the
 * paper does not report (Table 4). Returns nullopt when the BRAM
 * budget cannot be met.
 */
std::optional<model::MultiClpDesign> retileDesign(
    const model::MultiClpDesign &design, const nn::Network &network,
    const fpga::ResourceBudget &budget);

/** Convert a design back into a compute-partition description. */
ComputePartition partitionFromDesign(const model::MultiClpDesign &design,
                                     const nn::Network &network);

} // namespace core
} // namespace mclp

#endif // MCLP_CORE_MEMORY_OPTIMIZER_H
