#include "core/shape_frontier.h"

#include <algorithm>
#include <cstring>

#include "core/frontier_cache.h"
#include "core/frontier_codec.h"
#include "model/dsp_model.h"
#include "util/logging.h"
#include "util/math.h"
#include "util/prof.h"

namespace mclp {
namespace core {

const BreakpointCache::Table &
BreakpointCache::table(int64_t d)
{
    auto it = tables_.find(d);
    if (it != tables_.end())
        return it->second;
    if (d < 1)
        util::panic("BreakpointCache: dimension must be positive");

    // Jump divisor-style: from breakpoint t with q = ceil(d/t), the
    // next tile size with a smaller ceiling is (d-1)/(q-1) + 1.
    Table table;
    int64_t t = 1;
    while (t <= d) {
        int64_t q = util::ceilDiv(d, t);
        table.bps.push_back(t);
        table.ceils.push_back(q);
        if (q == 1)
            break;
        t = (d - 1) / (q - 1) + 1;
    }
    return tables_.emplace(d, std::move(table)).first->second;
}

ShapeFrontier::Builder::Builder(const std::vector<const nn::ConvLayer *> &run,
                                int64_t units_cap, BreakpointCache &scratch)
    : unitsCap_(std::max<int64_t>(units_cap, 1))
{
    // Each dimension's breakpoints are the union of the tables of its
    // distinct per-group extents over the whole run, merged once.
    thread_local std::vector<int64_t> dims;
    auto merge = [&](std::vector<int64_t> &bps, auto extent) {
        dims.clear();
        for (const nn::ConvLayer *layer : run)
            dims.push_back(extent(*layer));
        std::sort(dims.begin(), dims.end());
        dims.erase(std::unique(dims.begin(), dims.end()), dims.end());
        for (int64_t d : dims) {
            const std::vector<int64_t> &table = scratch.breakpoints(d);
            bps.insert(bps.end(), table.begin(), table.end());
        }
        std::sort(bps.begin(), bps.end());
        bps.erase(std::unique(bps.begin(), bps.end()), bps.end());
    };
    merge(tnBps_, [](const nn::ConvLayer &layer) { return layer.groupN(); });
    merge(tmBps_, [](const nn::ConvLayer &layer) { return layer.groupM(); });
    layOutLiveCells();
    scratch_.resize(tmBps_.size());
    areas_.resize(tnBps_.size());
}

namespace {

/**
 * Up to this unit range the live cells are ordered with a counting
 * sort over unit counts; above it (budget-free builds of wide
 * networks) a comparison sort takes over. Every budget-capped build
 * of a real device sits far below the limit (a 10,000-DSP float
 * budget is 2,000 units), and budget-free geometries are built once
 * per session.
 */
constexpr int64_t kDenseUnitsLimit = 1 << 16;

} // namespace

void
ShapeFrontier::Builder::layOutLiveCells()
{
    size_t t = tnBps_.size();
    size_t w = tmBps_.size();
    // Per-row count of live cells (tn*tm <= unitsCap_), and the
    // counting sort's per-unit slots: layout scratch, per thread.
    thread_local std::vector<size_t> live_w;
    thread_local std::vector<int32_t> counts;
    live_w.resize(t);
    size_t total = 0;
    int64_t max_units = 0;
    // cap/tn only shrinks as tn grows, so the live width is
    // nonincreasing: one descending cursor maps every row without a
    // per-row binary search.
    size_t lw = w;
    for (size_t ti = 0; ti < t; ++ti) {
        int64_t tn = tnBps_[ti];
        if (tn > unitsCap_) {
            // Rows ascend in tn, so this and every later row is dead.
            for (; ti < t; ++ti)
                live_w[ti] = 0;
            break;
        }
        int64_t tm_cap = unitsCap_ / tn;
        while (lw > 0 && tmBps_[lw - 1] > tm_cap)
            --lw;
        live_w[ti] = lw;
        total += lw;
        if (lw > 0)
            max_units = std::max(max_units, tn * tmBps_[lw - 1]);
    }
    live_.assign(total, 0);
    // Both indices in 16 bits covers any real geometry (65536 merged
    // breakpoints per dimension needs channel counts near 2^31); the
    // hot passes are bandwidth-bound, so half-width indices are a
    // direct win. The int32 pair lanes remain as the fallback.
    livePacked_ = t <= (1u << 16) && w <= (1u << 16);
    if (livePacked_) {
        livePk_.resize(total);
    } else {
        liveTi_.resize(total);
        liveMi_.resize(total);
    }
    if (total == 0)
        return;
    uint32_t *pk = livePk_.data();
    int32_t *ti_lane = liveTi_.data();
    int32_t *mi_lane = liveMi_.data();
    auto place = [&](size_t pos, size_t ti, size_t mi) {
        if (livePacked_) {
            pk[pos] = static_cast<uint32_t>((ti << 16) | mi);
        } else {
            ti_lane[pos] = static_cast<int32_t>(ti);
            mi_lane[pos] = static_cast<int32_t>(mi);
        }
    };

    if (max_units <= kDenseUnitsLimit) {
        // Stable counting sort: count per unit value, prefix-sum into
        // start offsets, then place cells in discovery order (ti, then
        // mi) — which is exactly the tie-break order build() wants
        // within an equal-units group.
        size_t slots = static_cast<size_t>(max_units) + 1;
        counts.assign(slots, 0);
        for (size_t ti = 0; ti < t; ++ti) {
            int64_t tn = tnBps_[ti];
            for (size_t mi = 0; mi < live_w[ti]; ++mi)
                ++counts[static_cast<size_t>(tn * tmBps_[mi])];
        }
        int32_t acc = 0;
        for (size_t u = 0; u < slots; ++u) {
            int32_t c = counts[u];
            counts[u] = acc;
            acc += c;
        }
        for (size_t ti = 0; ti < t; ++ti) {
            int64_t tn = tnBps_[ti];
            for (size_t mi = 0; mi < live_w[ti]; ++mi) {
                int64_t u = tn * tmBps_[mi];
                size_t pos =
                    static_cast<size_t>(counts[static_cast<size_t>(u)]++);
                place(pos, ti, mi);
            }
        }
        return;
    }

    // Huge unit range: comparison sort. stable_sort preserves the
    // same discovery order within equal units as the counting path.
    std::vector<std::pair<int64_t, int32_t>> sorted;
    sorted.reserve(total);
    for (size_t ti = 0; ti < t; ++ti) {
        int64_t tn = tnBps_[ti];
        for (size_t mi = 0; mi < live_w[ti]; ++mi)
            sorted.emplace_back(tn * tmBps_[mi],
                                static_cast<int32_t>(ti * w + mi));
    }
    std::stable_sort(sorted.begin(), sorted.end(),
                     [](const std::pair<int64_t, int32_t> &a,
                        const std::pair<int64_t, int32_t> &b) {
                         return a.first < b.first;
                     });
    for (size_t p = 0; p < total; ++p) {
        size_t off = static_cast<size_t>(sorted[p].second);
        place(p, off / w, off % w);
    }
}

void
ShapeFrontier::Builder::addLayer(const nn::ConvLayer &layer,
                                 BreakpointCache &scratch)
{
    // The previous layer's staged update lands first when no build()
    // fused it.
    flushPending();
    ++layers_;
    // A grouped layer contributes exactly like a plain layer over its
    // per-group extents (N/G, M/G) with its cycle area scaled by G —
    // the G groups run sequentially on the same shape. Everything
    // below therefore works in per-group dimensions; G=1 reduces to
    // the original math untouched.
    const BreakpointCache::Table &ntab = scratch.table(layer.groupN());
    const BreakpointCache::Table &mtab = scratch.table(layer.groupM());

    // Stage the rank-1 update cycles(tn, tm) += G*R*C*K^2 *
    // ceil((N/G)/tn) * ceil((M/G)/tm): per-column M ceilings and
    // per-row areas come from the layer's own tables with moving
    // cursors — no divisions. The live values are untouched until
    // flushPending() or a fused build() applies the staged update.
    size_t w = tmBps_.size();
    for (size_t mi = 0, k = 0; mi < w; ++mi) {
        while (k + 1 < mtab.bps.size() && mtab.bps[k + 1] <= tmBps_[mi])
            ++k;
        scratch_[mi] = mtab.ceils[k];
    }
    int64_t rck2 = layer.g * layer.r * layer.c * layer.k * layer.k;
    for (size_t ti = 0, k = 0; ti < tnBps_.size(); ++ti) {
        int64_t tn = tnBps_[ti];
        if (tn > unitsCap_)
            break;  // no affordable shape in this or any later row
        while (k + 1 < ntab.bps.size() && ntab.bps[k + 1] <= tn)
            ++k;
        areas_[ti] = rck2 * ntab.ceils[k];
    }
    pending_ = true;
}

void
ShapeFrontier::Builder::flushPending()
{
    if (!pending_)
        return;
    pending_ = false;
    // Same per-cell update a fused build() performs, minus the
    // staircase test.
    int64_t *vals = live_.data();
    const int64_t *areas = areas_.data();
    const int64_t *mceil = scratch_.data();
    size_t n_live = live_.size();
    if (livePacked_) {
        const uint32_t *pk = livePk_.data();
        for (size_t k = 0; k < n_live; ++k) {
            uint32_t p = pk[k];
            vals[k] += areas[p >> 16] * mceil[p & 0xFFFFu];
        }
    } else {
        const int32_t *ti_arr = liveTi_.data();
        const int32_t *mi_arr = liveMi_.data();
        for (size_t k = 0; k < n_live; ++k)
            vals[k] += areas[ti_arr[k]] * mceil[mi_arr[k]];
    }
}

ShapeFrontier
ShapeFrontier::Builder::build(fpga::DataType type, int64_t units_budget)
{
    ShapeFrontier frontier;
    if (layers_ == 0)
        util::panic("ShapeFrontier: empty layer range");
    if (units_budget > unitsCap_)
        util::panic("ShapeFrontier: units budget %lld above the "
                    "builder's cap %lld (cells beyond the cap were "
                    "never maintained)",
                    static_cast<long long>(units_budget),
                    static_cast<long long>(unitsCap_));
    if (units_budget < 1)
        return frontier;  // not a single MAC unit

    int64_t per_mac = fpga::dspPerMac(type);
    // Output staircase lanes, per thread; the frontier copies them
    // into its exact-size block. At most one point per live cell:
    // grow-only sizing lets the walk emit through raw pointers with no
    // growth checks.
    thread_local std::vector<int32_t> out_tn_lane;
    thread_local std::vector<int32_t> out_tm_lane;
    thread_local std::vector<int64_t> out_dsp_lane;
    thread_local std::vector<int64_t> out_cycles_lane;
    if (out_dsp_lane.size() < live_.size()) {
        out_tn_lane.resize(live_.size());
        out_tm_lane.resize(live_.size());
        out_dsp_lane.resize(live_.size());
        out_cycles_lane.resize(live_.size());
    }
    int32_t *out_tn = out_tn_lane.data();
    int32_t *out_tm = out_tm_lane.data();
    int64_t *out_dsp = out_dsp_lane.data();
    int64_t *out_cycles = out_cycles_lane.data();
    size_t out_count = 0;

    // One pass over the live cells in the precomputed units-ascending
    // order, keeping a running cycle minimum. A cell emits only when
    // it strictly beats the minimum, which leaves exactly the Pareto
    // staircase: strictly increasing DSP, strictly decreasing cycles.
    // Two strict improvements inside one equal-units run would emit
    // the same DSP twice; the later one overwrites the first in
    // place, so per unit count the fewest-cycles shape wins — ties
    // toward the first cell in discovery order (ti, then mi), i.e.
    // the smallest Tn, because later equal cycles never beat the
    // running minimum. The common case (no improvement) is a single
    // rarely-taken branch per cell; reinterpreting the initial -1 as
    // UINT64_MAX folds "first emission" into the same compare (cycle
    // counts are positive). A budget below the cap is a prefix of the
    // walk — units ascend, so the first over-budget improvement ends
    // it.
    size_t n_live = live_.size();
    int64_t best_cycles = -1;
    auto improve = [&](size_t ti, size_t mi, int64_t cycles) {
        int64_t tn = tnBps_[ti];
        int64_t tm = tmBps_[mi];
        int64_t u = tn * tm;
        if (u > units_budget) {
            // Nothing past the budget may emit; cycle counts are
            // positive, so a zero minimum mutes every later cell
            // without stopping a fused pass's value writes.
            best_cycles = 0;
            return;
        }
        best_cycles = cycles;
        int64_t dsp = per_mac * u;
        // A strict improvement inside the same equal-units run would
        // repeat a DSP value: overwrite that point instead of
        // appending a second one.
        size_t slot = out_count;
        if (out_count > 0 && out_dsp[out_count - 1] == dsp)
            slot = out_count - 1;
        else
            ++out_count;
        out_tn[slot] = static_cast<int32_t>(tn);
        out_tm[slot] = static_cast<int32_t>(tm);
        out_dsp[slot] = dsp;
        out_cycles[slot] = cycles;
    };
    // The walk body is generic over the index encoding (packed 16-bit
    // halves or int32 pair lanes); both instantiations inline.
    auto walk = [&](auto cell) {
        if (pending_) {
            // The newest layer's staged rank-1 update rides the walk:
            // one streaming pass updates each live value and tests
            // it, instead of an update pass followed by a read pass.
            pending_ = false;
            int64_t *vals = live_.data();
            const int64_t *areas = areas_.data();
            const int64_t *mceil = scratch_.data();
            for (size_t k = 0; k < n_live; ++k) {
                auto [ti, mi] = cell(k);
                int64_t cycles = vals[k] + areas[ti] * mceil[mi];
                vals[k] = cycles;
                if (static_cast<uint64_t>(cycles) <
                    static_cast<uint64_t>(best_cycles)) [[unlikely]]
                    improve(ti, mi, cycles);
            }
        } else {
            const int64_t *vals = live_.data();
            for (size_t k = 0; k < n_live; ++k) {
                int64_t cycles = vals[k];
                if (static_cast<uint64_t>(cycles) <
                    static_cast<uint64_t>(best_cycles)) [[unlikely]] {
                    auto [ti, mi] = cell(k);
                    improve(ti, mi, cycles);
                }
            }
        }
    };
    if (livePacked_) {
        const uint32_t *pk = livePk_.data();
        walk([pk](size_t k) {
            uint32_t p = pk[k];
            return std::pair<size_t, size_t>(p >> 16, p & 0xFFFFu);
        });
    } else {
        const int32_t *ti_arr = liveTi_.data();
        const int32_t *mi_arr = liveMi_.data();
        walk([ti_arr, mi_arr](size_t k) {
            return std::pair<size_t, size_t>(
                static_cast<size_t>(ti_arr[k]),
                static_cast<size_t>(mi_arr[k]));
        });
    }
    frontier.adopt(out_tn, out_tm, out_dsp, out_cycles, out_count);
    return frontier;
}

ShapeFrontier::ShapeFrontier(
    const std::vector<const nn::ConvLayer *> &layers, fpga::DataType type,
    int64_t units_budget, BreakpointCache &scratch)
{
    Builder builder(layers, units_budget, scratch);
    for (const nn::ConvLayer *layer : layers)
        builder.addLayer(*layer, scratch);
    *this = builder.build(type, units_budget);
}

ShapeFrontier::Lanes
ShapeFrontier::allocate(size_t count)
{
    size_ = count;
    block_.reset();
    tn_ = tm_ = nullptr;
    dsp_ = cycles_ = nullptr;
    if (count == 0)
        return {};
    // One exact-size block, left uninitialized (every caller writes all
    // four lanes): the int64 lanes first, since new[] aligns the block
    // for them, then the int32 lanes — kBytesPerPoint per point,
    // nothing else.
    block_ = std::make_unique_for_overwrite<unsigned char[]>(
        count * kBytesPerPoint);
    dsp_ = reinterpret_cast<int64_t *>(block_.get());
    cycles_ = dsp_ + count;
    tn_ = reinterpret_cast<int32_t *>(cycles_ + count);
    tm_ = tn_ + count;
    return {tn_, tm_, dsp_, cycles_};
}

void
ShapeFrontier::adopt(const int32_t *tn, const int32_t *tm,
                     const int64_t *dsp, const int64_t *cycles,
                     size_t count)
{
    allocate(count);
    if (count == 0)
        return;
    std::memcpy(dsp_, dsp, count * sizeof(int64_t));
    std::memcpy(cycles_, cycles, count * sizeof(int64_t));
    std::memcpy(tn_, tn, count * sizeof(int32_t));
    std::memcpy(tm_, tm, count * sizeof(int32_t));
}

ShapeFrontier
ShapeFrontier::uninitialized(size_t count, Lanes &lanes)
{
    ShapeFrontier frontier;
    lanes = frontier.allocate(count);
    return frontier;
}

std::vector<FrontierPoint>
ShapeFrontier::points() const
{
    std::vector<FrontierPoint> out;
    out.reserve(size_);
    for (size_t i = 0; i < size_; ++i)
        out.push_back(point(i));
    return out;
}

std::optional<FrontierPoint>
ShapeFrontier::query(int64_t cycle_target, int64_t max_dsp) const
{
    // DSP increases strictly along the frontier, so the shapes
    // affordable under max_dsp are a prefix; cycles decrease, so the
    // first prefix point at or under the target is the cheapest one
    // (ties already resolved toward fewer cycles, then smaller Tn,
    // during construction).
    size_t end = static_cast<size_t>(
        std::partition_point(dsp_, dsp_ + size_,
                             [&](int64_t d) { return d <= max_dsp; }) -
        dsp_);
    size_t i = static_cast<size_t>(
        std::partition_point(
            cycles_, cycles_ + end,
            [&](int64_t c) { return c > cycle_target; }) -
        cycles_);
    if (i == end)
        return std::nullopt;
    return point(i);
}

int64_t
ShapeFrontier::minCycles(int64_t max_dsp) const
{
    size_t end = static_cast<size_t>(
        std::partition_point(dsp_, dsp_ + size_,
                             [&](int64_t d) { return d <= max_dsp; }) -
        dsp_);
    if (end == 0)
        return kUnboundedResources;  // nothing affordable
    return cycles_[end - 1];
}

size_t
ShapeFrontier::Builder::memoryBytes() const
{
    return sizeof(*this) +
           (tnBps_.capacity() + tmBps_.capacity() + live_.capacity() +
            scratch_.capacity() + areas_.capacity()) *
               sizeof(int64_t) +
           (livePk_.capacity() + liveTi_.capacity() + liveMi_.capacity()) *
               sizeof(int32_t);
}

std::optional<ShapeFrontier>
ShapeFrontier::fromPoints(const std::vector<FrontierPoint> &points)
{
    Lanes lanes;
    ShapeFrontier frontier = uninitialized(points.size(), lanes);
    for (size_t i = 0; i < points.size(); ++i) {
        const FrontierPoint &point = points[i];
        if (!validShape(point.shape.tn) || !validShape(point.shape.tm))
            return std::nullopt;
        lanes.tn[i] = static_cast<int32_t>(point.shape.tn);
        lanes.tm[i] = static_cast<int32_t>(point.shape.tm);
        lanes.dsp[i] = point.dsp;
        lanes.cycles[i] = point.cycles;
        if (!staircaseStep(lanes, i))
            return std::nullopt;
    }
    return frontier;
}

FrontierRowStore::FrontierRowStore(std::shared_ptr<FrontierCache> cache)
    : cache_(std::move(cache))
{
}

size_t
FrontierRowStore::rowBytesLocked(const RowMap::value_type &row)
{
    return row.first.bytes.capacity() + 4 * sizeof(void *) +
           row.second->memoryBytes();
}

std::shared_ptr<const ShapeFrontier>
FrontierRowStore::lookup(std::string_view key, uint64_t hash)
{
    Shard &shard = shardOf(hash);
    {
        std::lock_guard<std::mutex> lock(shard.mutex);
        auto it = shard.rows.find(KeyView{key, hash});
        if (it != shard.rows.end()) {
            ++shard.hits;
            return it->second;
        }
        if (!cache_) {
            ++shard.misses;
            return nullptr;
        }
    }
    // Read through to the cache (its pending log, then its mmap'd
    // segment) outside the shard's mutex, so warm acquisitions decode
    // in parallel. A loaded staircase is as good as a resident one
    // (immutable, validated at decode): it joins the store and counts
    // as a hit — no build happened. The first insert wins, as in
    // insert(); only the winner counts as an mmap hit, so cache-stats
    // splits the ladder by resident rows.
    std::shared_ptr<const ShapeFrontier> row = cache_->loadRow(key, hash);
    std::lock_guard<std::mutex> lock(shard.mutex);
    if (!row) {
        ++shard.misses;
        return nullptr;
    }
    auto [it, inserted] =
        shard.rows.emplace(Key{std::string(key), hash}, std::move(row));
    if (inserted) {
        shard.bytes += rowBytesLocked(*it);
        ++shard.mmapHits;
    }
    ++shard.hits;
    return it->second;
}

std::shared_ptr<const ShapeFrontier>
FrontierRowStore::insert(std::string_view key, uint64_t hash,
                         ShapeFrontier frontier)
{
    auto row = std::make_shared<const ShapeFrontier>(std::move(frontier));
    Shard &shard = shardOf(hash);
    {
        std::lock_guard<std::mutex> lock(shard.mutex);
        // The first insert wins, so racing builders (which produced
        // bit-identical frontiers anyway) converge on one shared row.
        auto [it, inserted] =
            shard.rows.try_emplace(Key{std::string(key), hash}, std::move(row));
        if (!inserted)
            return it->second;
        shard.bytes += rowBytesLocked(*it);
        row = it->second;
    }
    // Write-back at flush. The cache encodes the row and appends its
    // record with the shard's mutex released: the store never holds
    // one of its locks while it calls into the cache.
    if (cache_)
        cache_->noteRow(key, hash, row);
    return row;
}

void
FrontierRowStore::release(std::string_view key, uint64_t hash)
{
    Shard &shard = shardOf(hash);
    std::lock_guard<std::mutex> lock(shard.mutex);
    auto it = shard.rows.find(KeyView{key, hash});
    if (it == shard.rows.end() || it->second.use_count() != 1)
        return;
    shard.bytes -= rowBytesLocked(*it);
    shard.rows.erase(it);
}

FrontierRowStore::Stats
FrontierRowStore::stats() const
{
    Stats stats;
    for (const Shard &shard : shards_) {
        std::lock_guard<std::mutex> lock(shard.mutex);
        stats.hits += shard.hits;
        stats.misses += shard.misses;
        stats.rows += shard.rows.size();
        stats.mmapHits += shard.mmapHits;
    }
    return stats;
}

size_t
FrontierRowStore::memoryBytes() const
{
    size_t bytes = 0;
    for (const Shard &shard : shards_) {
        std::lock_guard<std::mutex> lock(shard.mutex);
        bytes += shard.bytes;
    }
    return bytes;
}

struct FrontierTable::Row
{
    /** Incremental scratch over the row's suffix: made at the row's
     * first store miss, dropped once the row is exhausted. */
    std::unique_ptr<ShapeFrontier::Builder> builder;
    /** Frontiers of [i..i], [i..i+1], ... (suffix-only rows store just
     * [i..count-1] at slot 0); shared via the row store. */
    std::vector<std::shared_ptr<const ShapeFrontier>> frontiers;
    /** With a store: the packed store key of the longest range built
     * or being built, grown a layer per slot. Slot s's key is its
     * first keyEnds[s].bytes bytes. */
    RowKey key;
    struct KeyEnd
    {
        size_t bytes = 0;
        uint64_t hash = 0;
    };
    /** Per slot, its key's length in key and that key's hash. */
    std::vector<KeyEnd> keyEnds;
    bool exhausted = false;  ///< row is complete to its last range
    int64_t builtUnits = 0;  ///< units cap the frontiers hold
};

FrontierTable::FrontierTable(const nn::Network &network,
                             fpga::DataType type, std::vector<size_t> order,
                             int max_clps,
                             std::shared_ptr<FrontierRowStore> store)
    : network_(network), type_(type), order_(std::move(order)),
      maxClps_(max_clps), store_(std::move(store)),
      rows_(order_.size()),
      rowLocks_(std::make_unique<std::mutex[]>(order_.size()))
{
    if (order_.size() != network_.numLayers())
        util::panic("FrontierTable: order length %zu != layer count %zu",
                    order_.size(), network_.numLayers());
    // Warm the breakpoint tables for every dimension the builders will
    // touch, so the parallel phase only reads them.
    for (size_t idx : order_) {
        breakpoints_.breakpoints(network_.layer(idx).groupN());
        breakpoints_.breakpoints(network_.layer(idx).groupM());
    }
}

FrontierTable::~FrontierTable()
{
    for (size_t i = 0; i < rows_.size(); ++i)
        releaseRowLocked(i);
}

bool
FrontierTable::usable(size_t i, size_t j) const
{
    size_t count = order_.size();
    return (i == 0 && j == count - 1) ||
           (maxClps_ >= 2 && (i == 0 || j == count - 1)) || maxClps_ >= 3;
}

RowKey
FrontierTable::rangeKey(size_t i, size_t j, int64_t units_cap) const
{
    // Everything a range frontier depends on: data type (DSP per MAC),
    // the cap it was built under, and per layer the two breakpoint
    // dimensions plus the per-ceiling cycle weight R*C*K^2 and the
    // group count (RowKey::append()). Network identity and layer
    // indices never enter, so dims-identical ranges of different
    // networks share one row.
    RowKey key = RowKey::root(type_, units_cap);
    for (size_t p = i; p <= j; ++p)
        key.append(network_.layer(order_[p]));
    return key;
}

void
FrontierTable::releaseRowLocked(size_t i)
{
    // Private rows die with the table.
    Row &row = rows_[i];
    if (!store_ || row.frontiers.empty())
        return;
    row.frontiers.clear();  // the store frees only rows it holds alone
    // Each slot's key is a prefix of the row's, stored with its hash.
    for (const Row::KeyEnd &end : row.keyEnds)
        store_->release(row.key.bytes().substr(0, end.bytes), end.hash);
    row.keyEnds.clear();
}

void
FrontierTable::extendRowLocked(size_t i, int64_t dsp_budget,
                               int64_t cycle_target)
{
    util::prof::Scope prof_scope(util::prof::Phase::FrontierBuild);
    Row &row = rows_[i];
    int64_t needed = model::macBudget(dsp_budget, type_);
    if (row.builtUnits < needed) {
        // Built under a smaller cap than this budget can afford: the
        // stored staircases may miss now-affordable shapes. Rebuild
        // the row at the table cap (>= needed, since callers reserve
        // before querying). Only this row pays; others rebuild when
        // (and if) a big-budget query reaches them. The old-cap rows
        // go back to the store.
        releaseRowLocked(i);
        row.builder.reset();
        row.frontiers.clear();
        row.exhausted = false;
        row.builtUnits = std::max(buildUnits_.load(), needed);
    }
    if (row.exhausted)
        return;
    size_t count = order_.size();
    // A complete row builds no more: its grid goes with it.
    auto exhaust = [&row] {
        row.exhausted = true;
        row.builder.reset();
    };
    while (true) {
        if (!row.frontiers.empty() &&
            row.frontiers.back()->minCycles(dsp_budget) > cycle_target)
            return;  // resume when the target loosens or budget grows
        // The usable j for a row are contiguous up from i (maxClps >= 3
        // or i == 0), or just the full-suffix range {count-1}.
        size_t j = usable(i, i) ? i + row.frontiers.size() : count - 1;
        if (!row.frontiers.empty() && !usable(i, j)) {
            exhaust();  // next usable j is not contiguous
            return;
        }
        // The store key of [i..j] is the row's key grown by layer j (j
        // advances one at a time), shared by a miss's lookup and
        // insert. A lookup, build or slot that threw may have left the
        // key or its ends past the last slot, so both are cut back to
        // it first. The incremental builder comes up to [i..j] only on
        // a store miss, so the grid work waits until one needs it.
        std::shared_ptr<const ShapeFrontier> frontier;
        if (store_) {
            row.keyEnds.resize(row.frontiers.size());
            if (row.frontiers.empty()) {
                row.key = rangeKey(i, j, row.builtUnits);
            } else {
                const Row::KeyEnd &last = row.keyEnds.back();
                row.key.truncate(last.bytes, last.hash);
                row.key.append(network_.layer(order_[j]));
            }
            frontier = store_->lookup(row.key.bytes(), row.key.hash());
        }
        if (!frontier) {
            if (!row.builder) {
                // The row's first miss: lay out one grid over every
                // breakpoint of the suffix the row can reach, so no
                // later layer changes its geometry. Every build uses
                // exactly builtUnits, so the grid skips the cells
                // beyond it (most of it under a real budget).
                std::vector<const nn::ConvLayer *> run;
                run.reserve(count - i);
                for (size_t p = i; p < count; ++p)
                    run.push_back(&network_.layer(order_[p]));
                row.builder = std::make_unique<ShapeFrontier::Builder>(
                    run, row.builtUnits, breakpoints_);
            }
            for (size_t p = i + row.builder->layers(); p <= j; ++p)
                row.builder->addLayer(network_.layer(order_[p]),
                                      breakpoints_);
            ShapeFrontier built =
                row.builder->build(type_, row.builtUnits);
            frontier = store_ ? store_->insert(row.key.bytes(),
                                               row.key.hash(),
                                               std::move(built))
                              : std::make_shared<const ShapeFrontier>(
                                    std::move(built));
        }
        if (store_)
            row.keyEnds.push_back({row.key.bytes().size(), row.key.hash()});
        row.frontiers.push_back(std::move(frontier));
        // No affordable shape at any target (sub-MAC cap only) means
        // no extension can have one either: the row is finished.
        if (row.frontiers.back()->empty() || j + 1 >= count) {
            exhaust();
            return;
        }
    }
}

void
FrontierTable::reserveUnits(int64_t units_cap)
{
    // Grow-only watermark; rows rebuild lazily when a query needs more
    // units than they were built under (see extendRowLocked()).
    int64_t cur = buildUnits_.load();
    while (units_cap > cur &&
           !buildUnits_.compare_exchange_weak(cur, units_cap)) {
    }
}

void
FrontierTable::prepare(int64_t dsp_budget, int64_t cycle_target,
                       util::ThreadPool *pool)
{
    reserveUnits(model::macBudget(dsp_budget, type_));
    size_t count = order_.size();
    std::vector<size_t> pending;
    for (size_t i = 0; i < count; ++i) {
        if (usable(i, i) || usable(i, count - 1))
            pending.push_back(i);
    }
    // Each task locks only its own row, so concurrent prepare() calls
    // (requests on a server's crew) extend disjoint rows in parallel
    // and collide — briefly — only on shared rows.
    auto extend = [&](size_t p) {
        size_t i = pending[p];
        std::lock_guard<std::mutex> lock(rowLocks_[i]);
        extendRowLocked(i, dsp_budget, cycle_target);
    };
    if (pool && pending.size() > 1)
        pool->parallelFor(pending.size(), extend);
    else
        for (size_t p = 0; p < pending.size(); ++p)
            extend(p);
}

std::optional<FrontierPoint>
FrontierTable::choose(size_t i, size_t j, int64_t dsp_budget,
                      int64_t cycle_target)
{
    if (!usable(i, j))
        return std::nullopt;
    // Rows are contiguous from j = i when usable(i, i); otherwise the
    // only usable range is the full suffix, stored at slot 0.
    size_t idx = usable(i, i) ? j - i : 0;
    std::lock_guard<std::mutex> lock(rowLocks_[i]);
    Row &row = rows_[i];
    if (idx >= row.frontiers.size() ||
        row.builtUnits < model::macBudget(dsp_budget, type_)) {
        // Not built far enough for this (budget, target) — a
        // concurrent rebuild, a bigger budget, or a prepare() that
        // stopped earlier. Extend in place; if the row still ends
        // short, some prefix range already misses the target under
        // this budget, and extensions only add cycles, so [i..j] is
        // provably infeasible.
        extendRowLocked(i, dsp_budget, cycle_target);
        if (idx >= row.frontiers.size())
            return std::nullopt;
    }
    // Query under the row lock, without copying the handle out: the
    // table's slots then stay the only references it holds, so a
    // concurrent rebuild's release sees exact use counts and never
    // leaves a row behind in the store. The query is two binary
    // searches, no dearer than the reference-count pair a copy costs.
    return row.frontiers[idx]->query(cycle_target, dsp_budget);
}

size_t
FrontierTable::memoryBytes() const
{
    size_t bytes = sizeof(*this) + order_.capacity() * sizeof(size_t);
    for (size_t i = 0; i < rows_.size(); ++i) {
        std::lock_guard<std::mutex> lock(rowLocks_[i]);
        const Row &row = rows_[i];
        if (row.builder)
            bytes += row.builder->memoryBytes();
        for (const auto &frontier : row.frontiers) {
            // Shared rows are accounted once, by the store.
            bytes += store_ ? sizeof(frontier)
                            : frontier->memoryBytes();
        }
    }
    return bytes;
}

} // namespace core
} // namespace mclp
