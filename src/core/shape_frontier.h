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

#include <array>
#include <atomic>
#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "fpga/data_type.h"
#include "model/clp_config.h"
#include "nn/network.h"
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
 * Storage is structure-of-arrays in one heap block sized exactly at
 * build or decode time: dsp[] and cycles[] are contiguous int64 arrays
 * (what the binary searches and serialization read), tn[]/tm[]
 * contiguous int32. The frontier owns its block — rows are shared
 * through FrontierRowStore, which can keep them beyond any
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

    /** Writable view of a fresh frontier's four lanes. */
    struct Lanes
    {
        int32_t *tn = nullptr;
        int32_t *tm = nullptr;
        int64_t *dsp = nullptr;
        int64_t *cycles = nullptr;
    };

    /**
     * Build a frontier from points (the tests' row factory). Checks
     * the same invariants the cache decoder checks (validShape(),
     * staircaseStep()) and returns nullopt on any violation.
     */
    static std::optional<ShapeFrontier>
    fromPoints(const std::vector<FrontierPoint> &points);

    /**
     * A frontier of @p count points whose lanes are allocated but not
     * initialized, with @p lanes pointing into them: the persistent
     * cache's decoder (core/frontier_codec.h) writes a row straight
     * into its own block this way. The caller must write every entry
     * and drop the frontier unless every point passed validShape()
     * and staircaseStep().
     */
    static ShapeFrontier uninitialized(size_t count, Lanes &lanes);

    /** A Tn or Tm a stored shape may hold: positive, and within the
     * int32 lanes. Check before narrowing into a lane. */
    static bool
    validShape(int64_t t)
    {
        return t >= 1 && t <= std::numeric_limits<int32_t>::max();
    }

    /**
     * The staircase invariant at point @p i of written lanes: DSP and
     * cycles positive, DSP strictly above point i-1's and cycles
     * strictly below it. A corrupt-but-checksummed payload that fails
     * it can never masquerade as a frontier.
     */
    static bool
    staircaseStep(const Lanes &lanes, size_t i)
    {
        return lanes.dsp[i] >= 1 && lanes.cycles[i] >= 1 &&
               (i == 0 || (lanes.dsp[i] > lanes.dsp[i - 1] &&
                           lanes.cycles[i] < lanes.cycles[i - 1]));
    }

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

    /** Resident bytes of the stored staircase (object plus block). */
    size_t
    memoryBytes() const
    {
        return sizeof(*this) + size_ * kBytesPerPoint;
    }

    ShapeFrontier(ShapeFrontier &&other) noexcept { *this = std::move(other); }
    ShapeFrontier &
    operator=(ShapeFrontier &&other) noexcept
    {
        block_ = std::move(other.block_);
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
        if (this != &other)
            adopt(other.tn_, other.tm_, other.dsp_, other.cycles_,
                  other.size_);
        return *this;
    }

  private:
    friend class Builder;

    ShapeFrontier() = default;

    /** Replace the storage with one exact-size block of @p count
     * points, lanes uninitialized. */
    Lanes allocate(size_t count);

    /** Copy the four lanes into one exact-size block. */
    void adopt(const int32_t *tn, const int32_t *tm, const int64_t *dsp,
               const int64_t *cycles, size_t count);

    std::unique_ptr<unsigned char[]> block_;  ///< the four lanes
    size_t size_ = 0;
    int32_t *tn_ = nullptr;      ///< into block_
    int32_t *tm_ = nullptr;      ///< into block_
    int64_t *dsp_ = nullptr;     ///< into block_, strictly increasing
    int64_t *cycles_ = nullptr;  ///< into block_, strictly decreasing
};

/**
 * Incremental frontier constructor for one growing run of layers. A row
 * of the range table extends one layer at a time ([i..j] to [i..j+1]).
 *
 * Shape cost is additive over layers, so the builder keeps exact
 * cycle counts for every *live* cell of the (merged Tn breakpoints x
 * merged Tm breakpoints) grid — the cells with tn*tm under the units
 * cap — stored as one flat array in units-ascending order. Appending
 * a layer is one rank-1 update (cell += area[tn] * mceil[tm]) over
 * that array, and building a frontier is a single sequential
 * running-minimum pass over it — no per-extension re-enumeration at
 * all. The grid is laid out once, at construction, from the
 * breakpoints of every layer the run may reach, so it never changes
 * shape while layers arrive. Breakpoints of layers the run does not
 * hold yet never change a built frontier: such a breakpoint's cycle
 * count equals that of the breakpoint below it, at strictly fewer
 * units, so it can never strictly improve the staircase's running
 * minimum.
 *
 * A builder holds only the grid and the staged update; the build's
 * output lanes and the layout's sort workspace are per-thread
 * scratch, shared by every builder the thread drives.
 */
class ShapeFrontier::Builder
{
  public:
    /**
     * Lay out the grid of @p run, the layers (in order) the builder
     * may be fed. @p units_cap is the largest units budget any
     * build() will use: cells with tn*tm above it can never be read —
     * build() bounds its sweep by the budget — so the rank-1 updates
     * skip them entirely; on a budget-capped grid that is most of the
     * area (the live region is hyperbolic). @p scratch supplies the
     * breakpoint tables.
     */
    Builder(const std::vector<const nn::ConvLayer *> &run,
            int64_t units_cap, BreakpointCache &scratch);

    /** Append the next layer, one of the run's (fed in run order,
     * starting at its first). */
    void addLayer(const nn::ConvLayer &layer, BreakpointCache &scratch);

    /** Layers added so far. */
    size_t layers() const { return layers_; }

    /** Frontier over the layers added so far. */
    ShapeFrontier build(fpga::DataType type, int64_t units_budget);

    /** Resident bytes of the grid and the staged update. */
    size_t memoryBytes() const;

  private:
    /**
     * Compute the live-cell geometry (livePk_ or liveTi_/liveMi_) of
     * the breakpoint lists: the units-ascending order of the live
     * cells, once per grid, so no build ever searches or sorts.
     */
    void layOutLiveCells();

    /**
     * Apply the deferred rank-1 update of the most recent layer to
     * live_. addLayer() only stages its update (per-row areas, per-
     * column ceilings): when the very next call is build() — the
     * common rhythm of a range extension — the update is fused into
     * the build walk, one pass over the live cells instead of two.
     * The next addLayer() flushes first when no build came between.
     */
    void flushPending();

    size_t layers_ = 0;
    int64_t unitsCap_ = 1;        ///< live-cell bound
    std::vector<int64_t> tnBps_;  ///< merged Tn breakpoints, ascending
    std::vector<int64_t> tmBps_;  ///< merged Tm breakpoints, ascending
    /** Cycle counts of the live cells, in the units-ascending order
     * of the index lanes — the only persistent value storage.
     * Sequential in the build walk's own iteration order, so the hot
     * pass streams instead of gathering. */
    std::vector<int64_t> live_;
    std::vector<int64_t> scratch_;   ///< per-breakpoint M ceilings
    /** (row, column) of the live cells, units-ascending; within
     * equal units, discovery order (ti, then mi) — the staircase
     * walk's tie-break order. The hot passes are bandwidth-bound, so
     * index lane width is a direct lever: when both breakpoint lists
     * fit 16 bits (any real geometry), livePk_ packs (ti << 16 | mi)
     * into one lane; otherwise the int32 pair lanes hold the same
     * order. */
    bool livePacked_ = true;
    std::vector<uint32_t> livePk_;
    std::vector<int32_t> liveTi_;
    std::vector<int32_t> liveMi_;

    /** Staged rank-1 update of the most recent layer: per-row areas
     * (R*C*K^2 * ceil(N/tn)); the per-column ceilings are scratch_. */
    std::vector<int64_t> areas_;
    bool pending_ = false;
};

/**
 * Cross-table pool of built range frontiers, keyed by what a frontier
 * actually depends on — the layer-dims sequence of the range (per
 * layer: N, M, R*C*K^2, G), the data type, and the units cap it was
 * built under — never by network identity. Fire modules repeated
 * within SqueezeNet, inception twins within GoogLeNet, and identical
 * module stacks across network *variants* all hash to the same rows,
 * so a registry serving many networks builds each distinct range
 * exactly once (the same sharing TilingOptionCache already performs
 * for tiling signatures). Entries are immutable ShapeFrontiers, so a
 * hit is bit-identical to a private rebuild.
 *
 * The key is the packed row key of core/frontier_codec.h (RowKey):
 * the dims as varint bytes, a few bytes a layer, with the hash the
 * table carried as it grew the key. The store hashes nothing: that
 * hash picks the shard and the bucket, a lookup compares bytes in
 * place and copies no key, and only an insert copies the bytes once.
 * Thread safe: the rows are split over kShards shards by key hash,
 * each under its own mutex, so threads acquiring different rows
 * seldom wait on one another (with one store-wide mutex, four threads
 * loading a warm GoogLeNet spent more time queued on it than
 * decoding).
 *
 * Rows leave by ownership, never by a scan of the store: a
 * FrontierTable hands its rows back (release()) when it dies and when
 * it rebuilds a row at a larger units cap, and the store drops each
 * row it then holds alone. A row therefore goes when the last table
 * using it does, and dropping a session costs only the rows that
 * session held. A persistent cache changes nothing here: it keeps no
 * decoded row, only the encoded record of each row noted since its
 * last flush, so a released row that is needed again decodes from
 * that record before the flush and from the mapped image after it.
 */
class FrontierCache;
class RowKey;

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
        /** Rows the cache supplied, decoded from the mmap'd segment
         * or from the pending log of a row noted since the last
         * flush: decodes that won the insert (a decode that lost a
         * race counts only in hits). */
        size_t mmapHits = 0;
    };

    /**
     * @param cache optional persistent cache, fixed for the store's
     * life: lookup() falls through to it on a miss (a cache hit counts
     * as a hit and avoids the build), and insert() notes fresh rows
     * for write-back. The store never flushes — its owner does.
     */
    explicit FrontierRowStore(std::shared_ptr<FrontierCache> cache = nullptr);

    /**
     * The stored frontier for packed row key @p key, whose carried
     * hash is @p hash (RowKey::bytes() and hash()), or nullptr (counts
     * hit/miss). A miss reads through to the cache with the shard's
     * mutex released, so concurrent lookups decode in parallel; the
     * decoded row is then inserted, and the first insert wins.
     */
    std::shared_ptr<const ShapeFrontier> lookup(std::string_view key,
                                                uint64_t hash);

    /**
     * Add a freshly built frontier under @p key (hash @p hash); returns
     * the canonical entry (the first insert wins, so concurrent
     * builders converge on one row). A winning insert notes the row
     * with the cache after releasing the shard's mutex.
     */
    std::shared_ptr<const ShapeFrontier>
    insert(std::string_view key, uint64_t hash, ShapeFrontier frontier);

    /**
     * Hand back a row a table has dropped its reference to: the row
     * under @p key (hash @p hash) is erased when the store now holds it
     * alone (use count 1). A key already gone, or a row another table
     * still holds, is left — the last holder's release frees it.
     */
    void release(std::string_view key, uint64_t hash);

    Stats stats() const;

    /**
     * Rough resident bytes of the stored rows, kept as a running
     * total. Per row: the packed key, four pointers of map overhead,
     * and the staircase, with or without a cache — every row is released with
     * its last table, so the SessionRegistry's byte budget bounds the
     * rows. A cache's pending records are not counted: only a flush
     * frees them, so evicting sessions for them could not help.
     */
    size_t memoryBytes() const;

  private:
    /** A stored row's key: its packed bytes and their carried hash. */
    struct Key
    {
        std::string bytes;
        uint64_t hash = 0;
    };

    /** A key to look up, compared in place. */
    struct KeyView
    {
        std::string_view bytes;
        uint64_t hash = 0;
    };

    /** Buckets by the carried hash; both hash and equality take a
     * KeyView, so find() copies no key. */
    struct KeyHash
    {
        using is_transparent = void;
        size_t operator()(const Key &key) const { return key.hash; }
        size_t operator()(const KeyView &key) const { return key.hash; }
    };

    struct KeyEqual
    {
        using is_transparent = void;
        template <class A, class B>
        bool
        operator()(const A &a, const B &b) const
        {
            return a.hash == b.hash &&
                   std::string_view(a.bytes) == std::string_view(b.bytes);
        }
    };

    using RowMap = std::unordered_map<Key,
                                      std::shared_ptr<const ShapeFrontier>,
                                      KeyHash, KeyEqual>;

    /** One slice of the rows, with the counters its rows move. */
    struct Shard
    {
        mutable std::mutex mutex;
        RowMap rows;
        size_t bytes = 0;  ///< rowBytesLocked() over rows
        size_t hits = 0;
        size_t misses = 0;
        size_t mmapHits = 0;
    };

    static constexpr size_t kShards = 16;

    /** The shard that holds the key of hash @p hash: the hash's high
     * bits, which FNV-1a mixes best. */
    Shard &
    shardOf(uint64_t hash)
    {
        return shards_[(hash >> 32) % kShards];
    }

    /** What @p row adds to memoryBytes(). Caller holds its shard's
     * mutex. */
    static size_t rowBytesLocked(const RowMap::value_type &row);

    const std::shared_ptr<FrontierCache> cache_;  ///< optional disk layer
    std::array<Shard, kShards> shards_;
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
 * rows are shared through it across tables and networks, and the
 * table hands them back (FrontierRowStore::release()) when it dies or
 * rebuilds a row at a larger cap. A row's store keys are prefixes of
 * one another — [i..i], [i..i+1], ... — so each row keeps the packed
 * key of its longest range, grown a layer per extension, and each
 * slot's length in it and hash: the release re-derives and hashes
 * nothing. The network must outlive the table.
 */
class FrontierTable
{
  public:
    FrontierTable(const nn::Network &network, fpga::DataType type,
                  std::vector<size_t> order, int max_clps,
                  std::shared_ptr<FrontierRowStore> store = nullptr);

    /** Releases the table's shared rows to the store. */
    ~FrontierTable();

    FrontierTable(const FrontierTable &) = delete;
    FrontierTable &operator=(const FrontierTable &) = delete;

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
     * row's lock, extends the row in place when it has not been
     * built far enough for this (budget, target) — prepare() is an
     * optimization, not a correctness precondition — and queries
     * under it.
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
    /** One start row's frontiers and store keys (shape_frontier.cc). */
    struct Row;

    bool usable(size_t i, size_t j) const;

    /**
     * Under rowLocks_[i]: rebuild the row if its cap is below what
     * @p dsp_budget needs, then extend it range by range while the
     * stopping rule allows (last range still meets @p cycle_target
     * under @p dsp_budget and a usable extension exists).
     */
    void extendRowLocked(size_t i, int64_t dsp_budget,
                         int64_t cycle_target);

    /** Store key of order_[i..j] at @p units_cap (type, cap, dims). */
    RowKey rangeKey(size_t i, size_t j, int64_t units_cap) const;

    /**
     * Drop row @p i's frontiers and hand them back to the store under
     * the keys they were stored with — each slot's prefix of the row's
     * key, with the hash it had — so the store frees each one this
     * table held last. No-op without a store. Caller holds
     * rowLocks_[i] (or owns the table alone).
     */
    void releaseRowLocked(size_t i);

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
