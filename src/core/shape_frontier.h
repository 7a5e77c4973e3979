/**
 * @file
 * Pareto-frontier shape cache for the OptimizeCompute search.
 *
 * For a fixed run of layers, the cost of a CLP shape (Tn, Tm) is two
 * monotone quantities: DSP (increasing in Tn*Tm) and compute cycles
 * (non-increasing in Tn and Tm). The Listing-3 loop re-evaluates the
 * same layer ranges for up to 2000 cycle targets, re-enumerating every
 * shape each time; but the answer it seeks — the minimum-DSP shape
 * meeting the target — always lies on the Pareto frontier of
 * (dsp, cycles) over all shapes, and that frontier does not depend on
 * the target at all. ShapeFrontier precomputes the frontier once per
 * range, reducing every subsequent target query to a binary search.
 *
 * Only shapes that can ever win are enumerated: Tn values where some
 * layer's ceil(N/Tn) changes (a larger Tn with identical ceilings
 * costs more DSP for the same cycles) crossed with, per Tn, the Tm
 * values where the range's cycle count steps. Per-dimension breakpoint
 * tables are shared network-wide through BreakpointCache, so frontier
 * construction skips redundant tile sizes in O(1).
 *
 * The frontier is sorted by strictly increasing DSP, so a DSP budget
 * never requires a rebuild either: the shapes affordable under any
 * budget are a prefix of the budget-free frontier, and a capped query
 * is an upper-bound binary search. FrontierTable exploits this by
 * building every range's frontier exactly once with no units cap and
 * answering (budget, target) pairs by prefix truncation — one build
 * serves an entire budget sweep (see core::DseSession).
 *
 * FrontierTable manages the frontiers of every range the partition DP
 * can use, building them lazily as loosening targets make longer
 * ranges relevant, optionally fanning construction out over a thread
 * pool. Queries reproduce the brute-force search bit-exactly
 * (tie-breaks included), which tests/core/test_shape_frontier.cc
 * asserts against randomized ranges.
 */

#ifndef MCLP_CORE_SHAPE_FRONTIER_H
#define MCLP_CORE_SHAPE_FRONTIER_H

#include <atomic>
#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "fpga/data_type.h"
#include "model/clp_config.h"
#include "nn/network.h"
#include "util/arena.h"
#include "util/hash.h"
#include "util/thread_pool.h"

namespace mclp {
namespace core {

/**
 * Shared per-dimension breakpoint tables. For a dimension size d, the
 * breakpoints are the tile sizes t (ascending, starting at 1) where
 * ceil(d/t) differs from ceil(d/(t-1)); all other tile sizes are
 * redundant. Each breakpoint carries its ceiling, so consumers never
 * divide. Tables are memoized by d, so every layer sharing a channel
 * count is computed once per network.
 */
class BreakpointCache
{
  public:
    struct Table
    {
        std::vector<int64_t> bps;    ///< ascending, starts at 1
        std::vector<int64_t> ceils;  ///< ceil(d / bps[k])
    };

    /** Breakpoints of ceil(d/t) for t in [1, d], with their values. */
    const Table &table(int64_t d);

    /** Convenience: just the breakpoints. */
    const std::vector<int64_t> &
    breakpoints(int64_t d)
    {
        return table(d).bps;
    }

  private:
    std::unordered_map<int64_t, Table> tables_;
};

/** "No constraint" sentinel for unit/DSP caps (never overflows). */
constexpr int64_t kUnboundedResources =
    std::numeric_limits<int64_t>::max() / 4;

/** One Pareto-optimal shape of a layer range. */
struct FrontierPoint
{
    model::ClpShape shape;
    int64_t dsp = 0;     ///< strictly increasing along the frontier
    int64_t cycles = 0;  ///< strictly decreasing along the frontier
};

/**
 * The (dsp, cycles) Pareto frontier over all CLP shapes for one run of
 * layers, under a fixed DSP budget.
 *
 * Storage is structure-of-arrays in one arena block sized exactly at
 * build time: dsp[] and cycles[] are contiguous int64 arrays (what the
 * binary searches and serialization read), tn[]/tm[] contiguous int32.
 * The frontier owns its arena — rows are shared through
 * FrontierRowStore and pinned by the persistent cache beyond any
 * FrontierTable's lifetime, so the storage must travel with the
 * object, not with the table that built it.
 */
class ShapeFrontier
{
  public:
    class Builder;

    /** Stored bytes per frontier point (two i64 + two i32 lanes). */
    static constexpr size_t kBytesPerPoint =
        2 * sizeof(int64_t) + 2 * sizeof(int32_t);

    /**
     * Rebuild a frontier from stored points — the decode path of the
     * persistent cache (core/frontier_cache.h). Validates the
     * staircase invariants (positive shapes, strictly increasing DSP,
     * strictly decreasing cycles) and returns nullopt on any
     * violation, so a corrupt-but-checksummed file can never
     * masquerade as a frontier.
     */
    static std::optional<ShapeFrontier>
    fromPoints(std::vector<FrontierPoint> points);

    /**
     * Enumerate shapes for @p layers (in range order) and keep the
     * frontier. @p units_budget caps Tn*Tm (the MAC budget implied by
     * the DSP budget); shapes beyond it can never fit and are not
     * stored. @p scratch supplies the breakpoint tables.
     */
    ShapeFrontier(const std::vector<const nn::ConvLayer *> &layers,
                  fpga::DataType type, int64_t units_budget,
                  BreakpointCache &scratch);

    /**
     * Minimum-DSP shape finishing the range within @p cycle_target,
     * breaking DSP ties toward fewer cycles, then smaller Tn — the
     * exact choice of the brute-force enumeration. nullopt when no
     * stored shape meets the target. @p max_dsp restricts the search
     * to the affordable prefix (DSP is strictly increasing along the
     * frontier), so a budget-free frontier answers any budget without
     * a rebuild.
     */
    std::optional<FrontierPoint>
    query(int64_t cycle_target,
          int64_t max_dsp = kUnboundedResources) const;

    /** True when not even the largest affordable shape can help. */
    bool empty() const { return size_ == 0; }

    size_t size() const { return size_; }

    /** Fewest cycles any affordable shape achieves on this range. */
    int64_t
    minCycles() const
    {
        return size_ == 0 ? 0 : cycles_[size_ - 1];
    }

    /**
     * Fewest cycles achievable with shapes costing at most @p max_dsp
     * slices; kUnboundedResources when no stored shape is affordable
     * (the range cannot meet any target under that budget).
     */
    int64_t minCycles(int64_t max_dsp) const;

    /** Materialize the @p i-th staircase point. */
    FrontierPoint
    point(size_t i) const
    {
        FrontierPoint p;
        p.shape = model::ClpShape{tn_[i], tm_[i]};
        p.dsp = dsp_[i];
        p.cycles = cycles_[i];
        return p;
    }

    /** Materialize every point (tests / debugging; hot paths use the
     * SoA accessors below). */
    std::vector<FrontierPoint> points() const;

    // Raw SoA lanes — contiguous, sorted by strictly increasing DSP /
    // strictly decreasing cycles. Serialization and the scan kernels
    // read these directly.
    const int32_t *tnData() const { return tn_; }
    const int32_t *tmData() const { return tm_; }
    const int64_t *dspData() const { return dsp_; }
    const int64_t *cyclesData() const { return cycles_; }

    /** Resident bytes of the stored staircase (arena block totals). */
    size_t
    memoryBytes() const
    {
        return sizeof(*this) + arena_.bytesReserved();
    }

    ShapeFrontier(ShapeFrontier &&other) noexcept { *this = std::move(other); }
    ShapeFrontier &
    operator=(ShapeFrontier &&other) noexcept
    {
        arena_ = std::move(other.arena_);
        size_ = other.size_;
        tn_ = other.tn_;
        tm_ = other.tm_;
        dsp_ = other.dsp_;
        cycles_ = other.cycles_;
        other.size_ = 0;
        other.tn_ = other.tm_ = nullptr;
        other.dsp_ = other.cycles_ = nullptr;
        return *this;
    }
    ShapeFrontier(const ShapeFrontier &other)
    {
        adopt(other.tn_, other.tm_, other.dsp_, other.cycles_,
              other.size_);
    }
    ShapeFrontier &
    operator=(const ShapeFrontier &other)
    {
        if (this != &other) {
            arena_.clear();
            adopt(other.tn_, other.tm_, other.dsp_, other.cycles_,
                  other.size_);
        }
        return *this;
    }

  private:
    friend class Builder;

    ShapeFrontier() = default;

    /** Copy the four lanes into one exact-size arena block. */
    void adopt(const int32_t *tn, const int32_t *tm, const int64_t *dsp,
               const int64_t *cycles, size_t count);

    util::Arena arena_{1};  ///< chunk floor 1: every block exact-fit
    size_t size_ = 0;
    int32_t *tn_ = nullptr;      ///< into arena_
    int32_t *tm_ = nullptr;      ///< into arena_
    int64_t *dsp_ = nullptr;     ///< into arena_, strictly increasing
    int64_t *cycles_ = nullptr;  ///< into arena_, strictly decreasing
};

/**
 * Reusable frontier constructor for one growing run of layers. A row
 * of the range table extends one layer at a time ([i..j] to [i..j+1]).
 *
 * Shape cost is additive over layers, so the builder keeps exact
 * cycle counts for every *live* cell of the (merged Tn breakpoints x
 * merged Tm breakpoints) grid — the cells with tn*tm under the units
 * cap — stored as one flat array in units-ascending order. Appending
 * a layer is one rank-1 update (cell += area[tn] * mceil[tm]) over
 * that array, and building a frontier is a single sequential
 * running-minimum pass over it — no per-extension re-enumeration at
 * all. When a layer introduces new breakpoints the array is remapped
 * by run-length copying (cycle counts are constant between
 * breakpoints); layers repeating already-seen channel counts (grouped
 * convolutions, inception modules) add no breakpoints and skip that
 * entirely.
 */
class ShapeFrontier::Builder
{
  public:
    /** Forget all layers (scratch capacity is kept; the units cap
     * resets to unbounded). */
    void reset();

    /**
     * Declare the largest units budget any build() of this run will
     * use. Cells with tn*tm above the cap can never be read — build()
     * bounds its sweep by the budget — so the rank-1 updates and grid
     * expansions skip them entirely; on a budget-capped grid that is
     * most of the area (the live region is hyperbolic). Set it after
     * reset() and before the first addLayer(); build() refuses larger
     * budgets. Default: unbounded (every cell maintained).
     */
    void setUnitsCap(int64_t cap);

    /**
     * Pre-merge the breakpoints of a dimension pair the run may reach,
     * before any layer is added. A caller that knows the run's maximal
     * extent (a table row extends toward the full suffix) seeds every
     * layer's dimensions up front, so the grid geometry is final from
     * the first addLayer() — no mid-run re-expansions or re-sorts.
     * Extra breakpoints never change a built frontier: a foreign
     * breakpoint's cycle count equals the breakpoint below it at
     * strictly fewer units, so it can never strictly improve the
     * staircase's running minimum. Seeding is optional; unseeded
     * dimensions merge lazily as layers arrive.
     */
    void seedDimensions(int64_t n, int64_t m, BreakpointCache &scratch);

    /** Append the next layer of the run. */
    void addLayer(const nn::ConvLayer &layer, BreakpointCache &scratch);

    /** Frontier over the layers added so far. */
    ShapeFrontier build(fpga::DataType type, int64_t units_budget);

    /** Resident bytes of the incremental scratch state. */
    size_t memoryBytes() const;

  private:
    /** Merge a table's breakpoints into a sorted union; true if new. */
    static bool mergeBps(std::vector<int64_t> &into,
                         const std::vector<int64_t> &from);

    /**
     * Remap live_ to the new geometry after the breakpoint lists
     * changed: scatter the old values out to a grid-shaped scratch,
     * then gather each new live cell's value from the largest old
     * breakpoint pair at or under it. Runs recomputeLiveGeometry()
     * itself, between the scatter (old geometry) and the gather (new).
     */
    void expandLive(const std::vector<int64_t> &old_tn,
                    const std::vector<int64_t> &old_tm);

    /**
     * Rebuild the live-cell geometry (liveW_, liveTi_, liveMi_) after
     * the breakpoint lists changed. Grid
     * geometry changes only when a layer brings new breakpoints, but
     * build() runs once per range extension — precomputing the
     * per-row live widths and the units-ascending order of the live
     * cells here moves every per-build binary search and bucket pass
     * out of the hot path.
     */
    void recomputeLiveGeometry();

    /**
     * Apply the deferred rank-1 update of the most recent layer to
     * live_. addLayer() only stages its update (per-row areas, per-
     * column ceilings): when the very next call is build() — the
     * common rhythm of a range extension — the update is fused into
     * the build walk, one pass over the live cells instead of two.
     * Anything else that needs the values complete (the next
     * addLayer, a remap) flushes first — which also means a staged
     * update never crosses a geometry change, so the staged arrays
     * are always indexed in the current geometry.
     */
    void flushPending();

    std::vector<const nn::ConvLayer *> layers_;
    std::vector<int64_t> seenN_;  ///< distinct N values so far
    std::vector<int64_t> seenM_;  ///< distinct M values so far
    int64_t maxN_ = 0;
    int64_t maxM_ = 0;
    int64_t unitsCap_ = kUnboundedResources;  ///< live-cell bound
    std::vector<int64_t> tnBps_;  ///< merged Tn breakpoints, ascending
    std::vector<int64_t> tmBps_;  ///< merged Tm breakpoints, ascending
    bool geomInit_ = false;  ///< live geometry exists (first layer seen)
    /** Cycle counts of the live cells, in the units-ascending order
     * of liveTi_/liveMi_ — the only persistent value storage.
     * Sequential in the build walk's own iteration order, so the hot
     * pass streams instead of gathering. */
    std::vector<int64_t> live_;
    /** Expansion scratch: old-geometry grid the old values scatter
     * into so the remap gather has random access (row-major,
     * old_t * old_w, dead cells never written or read). */
    std::vector<int64_t> grid_;
    std::vector<int64_t> scratch_;   ///< per-breakpoint M ceilings
    std::vector<size_t> mcolScratch_;  ///< old-column map for expansion
    std::vector<size_t> rowScratch_;   ///< old-row map for expansion
    /** Per-row count of live cells (tn*tm <= unitsCap_): rank-1
     * updates, remaps, and builds all stop there. */
    std::vector<size_t> liveW_;
    /** (row, column) of the live cells, units-ascending; within
     * equal units, discovery order (ti, then mi) — the staircase
     * walk's tie-break order. Rebuilt per geometry. The hot passes
     * are bandwidth-bound, so index lane width is a direct lever:
     * when both breakpoint lists fit 16 bits (any real geometry),
     * livePk_ packs (ti << 16 | mi) into one lane; otherwise the
     * int32 pair lanes hold the same order. */
    bool livePacked_ = true;
    std::vector<uint32_t> livePk_;
    std::vector<int32_t> liveTi_;
    std::vector<int32_t> liveMi_;

    /** Live-cell count of the current geometry (whichever index
     * encoding is active). */
    size_t
    liveCount() const
    {
        return livePacked_ ? livePk_.size() : liveTi_.size();
    }
    /** Staged rank-1 update of the most recent layer: per-row areas
     * (R*C*K^2 * ceil(N/tn)); the per-column ceilings are scratch_. */
    std::vector<int64_t> areas_;
    bool pending_ = false;
    std::vector<int32_t> countScratch_;  ///< counting-sort workspace
    /** (units, offset) pairs for the comparison sort of uncapped
     * geometries (counting sort needs a small units range). */
    std::vector<std::pair<int64_t, int32_t>> sortScratch_;
    // Output staircase lanes, reused across build() calls; build()
    // copies them into the frontier's exact-size arena block.
    std::vector<int32_t> outTn_;
    std::vector<int32_t> outTm_;
    std::vector<int64_t> outDsp_;
    std::vector<int64_t> outCycles_;
};

/**
 * Cross-table pool of built range frontiers, keyed by what a frontier
 * actually depends on — the layer-dims sequence of the range (per
 * layer: N, M, R*C*K^2), the data type, and the units cap it was
 * built under — never by network identity. Fire modules repeated
 * within SqueezeNet, inception twins within GoogLeNet, and identical
 * module stacks across network *variants* all hash to the same rows,
 * so a registry serving many networks builds each distinct range
 * exactly once (the same sharing TilingOptionCache already performs
 * for tiling signatures). Entries are immutable ShapeFrontiers, so a
 * hit is bit-identical to a private rebuild. Thread safe.
 */
class FrontierCache;

class FrontierRowStore
{
  public:
    struct Stats
    {
        size_t hits = 0;      ///< lookups answered by an existing row
        size_t misses = 0;    ///< lookups that forced a build
        size_t rows = 0;      ///< rows currently resident
        /** Always 0: the eager record-file tier it counted is gone.
         * Kept because the serving benchmark (perfbench/trace.cc)
         * still reads it and must keep compiling unchanged. */
        size_t diskHits = 0;
        size_t mmapHits = 0;  ///< hits decoded from the mmap'd segment
        /** Hits decoded from a sibling shard's published segment
         * (cross-shard sharing under a sharded front). */
        size_t siblingHits = 0;
    };

    /**
     * Attach a persistent cache: lookup() falls through to it on a
     * miss (a cache hit counts as a hit and avoids the build), and
     * insert() notes fresh rows for write-back. Attach before first
     * use; the store never flushes — its owner does. The cache pins
     * every row it mirrors for the process lifetime, so memoryBytes()
     * then reports only evictable overhead (see its definition).
     */
    void attachCache(std::shared_ptr<FrontierCache> cache);

    /** The stored frontier for @p key, or nullptr (counts hit/miss). */
    std::shared_ptr<const ShapeFrontier>
    lookup(const std::vector<int64_t> &key);

    /**
     * Add a freshly built frontier; returns the canonical entry (the
     * first insert wins, so concurrent builders converge on one row).
     */
    std::shared_ptr<const ShapeFrontier>
    insert(const std::vector<int64_t> &key, ShapeFrontier frontier);

    Stats stats() const;

    /** Rough resident bytes of all stored rows. */
    size_t memoryBytes() const;

    /**
     * Drop rows no table currently references (use count 1), e.g.
     * after the SessionRegistry evicts sessions. Returns rows freed.
     */
    size_t purgeUnshared();

  private:
    mutable std::mutex mutex_;
    std::shared_ptr<FrontierCache> cache_;  ///< optional disk layer
    std::unordered_map<std::vector<int64_t>,
                       std::shared_ptr<const ShapeFrontier>,
                       util::Int64VectorHash>
        rows_;
    size_t hits_ = 0;
    size_t misses_ = 0;
    size_t mmapHits_ = 0;
    size_t siblingHits_ = 0;
};

/**
 * Lazily built frontiers for every layer range the partition DP may
 * consult, i.e. ranges of a fixed heuristic order usable by some
 * partition into at most max_clps contiguous groups.
 *
 * Rows are built capped at the largest budget the table has ever been
 * asked about (the grow-only units cap): any query at or under a
 * row's build cap reads a prefix of the stored staircase, so answers
 * for every budget of a descending or repeated ladder come from one
 * build, and a budget increase rebuilds only the rows it touches,
 * lazily. A warm DseSession avoids even that by reserving the
 * ladder's maximum up front (reserveUnits()) before the first run.
 *
 * Locking is per row: every row carries its own mutex, prepare()
 * extends rows independently (optionally fanning over a pool), and
 * choose() self-heals — it extends the row on demand when a
 * concurrent rebuild or a larger budget left a gap — so concurrent
 * runs of a budget ladder never serialize on a whole-table lock and
 * still read bit-identical answers. When @p store is given, built
 * rows are shared through it across tables and networks.
 */
class FrontierTable
{
  public:
    FrontierTable(const nn::Network &network, fpga::DataType type,
                  std::vector<size_t> order, int max_clps,
                  std::shared_ptr<FrontierRowStore> store = nullptr);

    /**
     * Grow the units cap to at least @p units_cap. Rows built under a
     * smaller cap are rebuilt lazily the next time a query needs more
     * than they stored. A session calls this with the largest budget
     * of a sweep before the first run, so no mid-sweep rebuild ever
     * happens.
     */
    void reserveUnits(int64_t units_cap);

    /**
     * Make sure every range that could satisfy @p cycle_target under
     * @p dsp_budget has its frontier built, extending each start row
     * until the range becomes infeasible for the target (extending an
     * infeasible range only adds cycles, so the rest of the row cannot
     * matter yet). Ranges already built are kept across prepare()
     * calls. Row construction fans out over @p pool when given; rows
     * lock independently, so concurrent prepare() calls at different
     * budgets interleave instead of serializing.
     */
    void prepare(int64_t dsp_budget, int64_t cycle_target,
                 util::ThreadPool *pool);

    /**
     * Frontier query for order[i..j]: minimum-DSP shape fitting
     * @p dsp_budget and finishing within @p cycle_target. nullopt when
     * the range cannot meet the target under the budget. Takes the
     * row's lock and extends the row in place when it has not been
     * built far enough for this (budget, target) — prepare() is an
     * optimization, not a correctness precondition.
     */
    std::optional<FrontierPoint> choose(size_t i, size_t j,
                                        int64_t dsp_budget,
                                        int64_t cycle_target);

    size_t size() const { return order_.size(); }
    const std::vector<size_t> &order() const { return order_; }
    int maxClps() const { return maxClps_; }

    /** Rough resident bytes (builders + frontiers it owns alone). */
    size_t memoryBytes() const;

  private:
    struct Row
    {
        ShapeFrontier::Builder builder;  ///< incremental scratch
        size_t builderLayers = 0;        ///< layers added so far
        /** Frontiers of [i..i], [i..i+1], ... (suffix-only rows store
         * just [i..count-1] at slot 0); shared via the row store. */
        std::vector<std::shared_ptr<const ShapeFrontier>> frontiers;
        bool exhausted = false;  ///< row is complete to its last range
        int64_t builtUnits = 0;  ///< units cap the frontiers hold
    };

    bool usable(size_t i, size_t j) const;

    /**
     * Under rowLocks_[i]: rebuild the row if its cap is below what
     * @p dsp_budget needs, then extend it range by range while the
     * stopping rule allows (last range still meets @p cycle_target
     * under @p dsp_budget and a usable extension exists).
     */
    void extendRowLocked(size_t i, int64_t dsp_budget,
                         int64_t cycle_target);

    /** Store key of order_[i..j] at @p units_cap (dims, type, cap). */
    std::vector<int64_t> rangeKey(size_t i, size_t j,
                                  int64_t units_cap) const;

    const nn::Network &network_;
    fpga::DataType type_;
    std::vector<size_t> order_;
    int maxClps_;
    std::shared_ptr<FrontierRowStore> store_;
    std::atomic<int64_t> buildUnits_{0};  ///< grow-only units cap
    std::vector<Row> rows_;               ///< fixed size() entries
    std::unique_ptr<std::mutex[]> rowLocks_;  ///< one per row
    BreakpointCache breakpoints_;  ///< fully warmed in ctor, then read-only
};

} // namespace core
} // namespace mclp

#endif // MCLP_CORE_SHAPE_FRONTIER_H
