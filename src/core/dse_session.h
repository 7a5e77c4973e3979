/**
 * @file
 * Warm design-space-exploration sessions (the cross-run reuse layer).
 *
 * The paper's headline studies re-run the Listing-3 optimization for a
 * ladder of resource budgets over one network (Figure 7 sweeps DSP
 * slices from 100 to 10,000). Almost everything the optimizer builds
 * is budget-independent: shape frontiers answer any DSP budget by
 * prefix truncation (shape_frontier.h), tiling options depend only on
 * layer and shape (TilingOptionCache), and the memory walk's tradeoff
 * curves depend only on group and caps (TradeoffCurveCache). A
 * DseSession keeps all three warm across optimize() calls, so one
 * frontier build answers the whole sweep; per-budget results stay
 * bit-identical to cold MultiClpOptimizer runs, which
 * tests/core/test_dse_session.cc pins.
 *
 * Sessions own no threads. sweep() runs its rungs in order, and each
 * rung fans its heuristics and frontier rows out over the pool its
 * OptimizerOptions lend (the front end's one pool). Sessions are
 * thread safe, and the shared caches are value-preserving, so neither
 * the pool nor concurrent requests ever change results.
 */

#ifndef MCLP_CORE_DSE_SESSION_H
#define MCLP_CORE_DSE_SESSION_H

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "core/optimizer.h"
#include "fpga/device.h"
#include "nn/network.h"

namespace mclp {
namespace core {

/**
 * The warm caches of one session: budget-free FrontierTables keyed by
 * (layer order, CLP limit), the tiling-option memo, and the
 * tradeoff-curve memo. Shared by every optimizer run of the session
 * through OptimizerOptions::caches. All state is exact (no
 * approximation crosses a cache boundary) and thread safe.
 */
class DseCaches
{
  public:
    /**
     * @param store optional cross-network frontier-row pool; when
     * given, the session's FrontierTables share built rows through it
     * (a SessionRegistry passes one store to every session it owns).
     * @param cache optional persistent frontier cache; when given,
     * the session's tradeoff-curve cache seeds walk traces from disk
     * and notes fresh ones for write-back (frontier rows go through
     * @p store, which its owner attaches to the same cache).
     */
    DseCaches(const nn::Network &network, fpga::DataType type,
              std::shared_ptr<FrontierRowStore> store = nullptr,
              std::shared_ptr<FrontierCache> cache = nullptr);

    const std::shared_ptr<TilingOptionCache> &tilings() const
    {
        return tilings_;
    }

    const std::shared_ptr<TradeoffCurveCache> &curves() const
    {
        return curves_;
    }

    /**
     * The session FrontierTable for @p order under @p max_clps,
     * created on first use with the reserved units cap applied.
     * @p network must be the session's network (tables hold
     * references into it).
     */
    FrontierTable &frontierTable(const nn::Network &network,
                                 fpga::DataType type,
                                 const std::vector<size_t> &order,
                                 int max_clps);

    /**
     * Announce that budgets up to @p dsp_budget are coming, so
     * frontier tables are built once at that cap instead of being
     * rebuilt when a sweep reaches its largest rung. DseSession calls
     * this before every run (with a whole ladder's maximum before a
     * sweep); queries at smaller budgets read a prefix of the same
     * tables, so the cap never changes results.
     */
    void reserveDspBudget(int64_t dsp_budget);

    /**
     * Rough resident bytes of the session's private caches (frontier
     * tables, tiling options, tradeoff curves). Rows shared through
     * an external FrontierRowStore are counted by the store, not
     * here, so a registry's total never double-counts them.
     */
    size_t memoryBytes();

  private:
    const nn::Network &network_;
    fpga::DataType type_;
    std::shared_ptr<FrontierRowStore> store_;
    std::shared_ptr<TilingOptionCache> tilings_;
    std::shared_ptr<TradeoffCurveCache> curves_;
    std::mutex mutex_;
    int64_t unitsCap_ = 0;  ///< grow-only, from reserveDspBudget()
    std::map<std::pair<std::vector<size_t>, int>,
             std::unique_ptr<FrontierTable>>
        frontiers_;
};

/**
 * A long-lived optimization session over one (network, data type)
 * pair: repeated optimize() calls and whole budget sweeps share the
 * warm caches, amortizing construction the way a single
 * MultiClpOptimizer run already amortizes it across targets. The
 * network must outlive the session.
 */
class DseSession
{
  public:
    /**
     * @param store optional cross-network frontier-row pool shared
     * with other sessions (see DseCaches).
     * @param cache optional persistent frontier cache shared with
     * other sessions (see DseCaches); never changes results, only
     * how warm a fresh process starts.
     */
    DseSession(const nn::Network &network, fpga::DataType type,
               std::shared_ptr<FrontierRowStore> store = nullptr,
               std::shared_ptr<FrontierCache> cache = nullptr);

    /**
     * One warm optimization run: MultiClpOptimizer under @p options
     * with the session caches attached. Bit-identical to a cold run
     * with the same options.
     */
    OptimizationResult optimize(const fpga::ResourceBudget &budget,
                                OptimizerOptions options = {}) const;

    /**
     * Optimize every budget of a ladder, reusing one frontier build
     * across all of them. Rungs run in order; within a rung the run
     * fans out over @p options.pool when one is lent. results[i]
     * corresponds to budgets[i] and is bit-identical to an
     * independent cold optimize of budgets[i].
     */
    std::vector<OptimizationResult>
    sweep(const std::vector<fpga::ResourceBudget> &budgets,
          OptimizerOptions options = {}) const;

    /**
     * BRAM vs bandwidth tradeoff curve of a compute partition using
     * the session's warm memory caches (Figure 6 companion to
     * MemoryOptimizer::tradeoffCurve).
     */
    std::vector<TradeoffPoint>
    tradeoffCurve(const ComputePartition &partition) const;

    const std::shared_ptr<DseCaches> &caches() const { return caches_; }

    const nn::Network &network() const { return network_; }
    fpga::DataType dataType() const { return type_; }

    /** Rough resident bytes of the session's private warm state. */
    size_t memoryBytes() const { return caches_->memoryBytes(); }

  private:
    const nn::Network &network_;
    fpga::DataType type_;
    std::shared_ptr<DseCaches> caches_;
};

/**
 * Budget ladder helper: one ResourceBudget per DSP-slice count, with
 * BRAM scaled as one BRAM-18K unit per @p dsp_per_bram DSP slices
 * (Figure 7 uses 1.3) and unconstrained bandwidth. When @p base is
 * given its BRAM/bandwidth are kept and only the DSP budget varies.
 */
std::vector<fpga::ResourceBudget> dspLadder(
    const std::vector<int64_t> &dsp_budgets, double frequency_mhz,
    double dsp_per_bram = 1.3,
    const fpga::ResourceBudget *base = nullptr);

/**
 * Parse a DSP ladder spec for the CLI front ends: either an explicit
 * list "a,b,c" or an arithmetic range "lo:hi:step" (inclusive ends).
 * fatal() on malformed input.
 */
std::vector<int64_t> parseDspLadderSpec(const std::string &spec);

} // namespace core
} // namespace mclp

#endif // MCLP_CORE_DSE_SESSION_H
