#include "core/shape_frontier.h"

#include <algorithm>
#include <cstring>

#include "core/frontier_cache.h"
#include "model/dsp_model.h"
#include "util/logging.h"
#include "util/math.h"
#include "util/prof.h"
#include "util/simd.h"

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

void
ShapeFrontier::Builder::reset()
{
    layers_.clear();
    seenN_.clear();
    seenM_.clear();
    maxN_ = 0;
    maxM_ = 0;
    unitsCap_ = kUnboundedResources;
    tnBps_.clear();
    tmBps_.clear();
    geomInit_ = false;
    live_.clear();
    liveW_.clear();
    livePk_.clear();
    liveTi_.clear();
    liveMi_.clear();
    livePacked_ = true;
    pending_ = false;
}

void
ShapeFrontier::Builder::setUnitsCap(int64_t cap)
{
    if (!layers_.empty())
        util::panic("ShapeFrontier::Builder: units cap must be set "
                    "before the first layer");
    unitsCap_ = cap < 1 ? 1 : cap;
}

void
ShapeFrontier::Builder::seedDimensions(int64_t n, int64_t m,
                                       BreakpointCache &scratch)
{
    if (geomInit_)
        util::panic("ShapeFrontier::Builder: dimensions must be seeded "
                    "before the first layer");
    if (std::find(seenN_.begin(), seenN_.end(), n) == seenN_.end()) {
        seenN_.push_back(n);
        mergeBps(tnBps_, scratch.table(n).bps);
    }
    if (std::find(seenM_.begin(), seenM_.end(), m) == seenM_.end()) {
        seenM_.push_back(m);
        mergeBps(tmBps_, scratch.table(m).bps);
    }
}

bool
ShapeFrontier::Builder::mergeBps(std::vector<int64_t> &into,
                                 const std::vector<int64_t> &from)
{
    size_t before = into.size();
    size_t mid = before;
    into.insert(into.end(), from.begin(), from.end());
    std::inplace_merge(into.begin(),
                       into.begin() + static_cast<ptrdiff_t>(mid),
                       into.end());
    into.erase(std::unique(into.begin(), into.end()), into.end());
    return into.size() != before;
}

void
ShapeFrontier::Builder::expandLive(const std::vector<int64_t> &old_tn,
                                   const std::vector<int64_t> &old_tm)
{
    // Cycle counts are constant between breakpoints, so a new cell's
    // value is the value at the largest old breakpoint pair at or
    // under it. Old lists are subsets of the new ones, so ascending
    // cursors map every new row and column once.
    //
    // live_ holds the old values in the old units-ascending order and
    // must end up holding the new values in the new one — two sorted
    // orders with no structural relation. The remap goes through a
    // grid-shaped scratch: scatter the old values to their old grid
    // offsets (liveTi_/liveMi_ still describe the old geometry here),
    // then gather each new cell's source. A new live cell's source is live
    // too (its old tn and tm are at most the new ones, so its units
    // are under the same cap), so dead scratch cells are never read
    // and the scratch needs no clearing.
    size_t new_t = tnBps_.size();
    size_t new_w = tmBps_.size();
    size_t old_t = old_tn.size();
    size_t old_w = old_tm.size();

    grid_.resize(old_t * old_w);
    {
        int64_t *grid = grid_.data();
        const int64_t *vals = live_.data();
        size_t old_live = live_.size();
        if (livePacked_) {
            const uint32_t *pk = livePk_.data();
            for (size_t k = 0; k < old_live; ++k) {
                uint32_t p = pk[k];
                grid[(p >> 16) * old_w + (p & 0xFFFFu)] = vals[k];
            }
        } else {
            const int32_t *ti_arr = liveTi_.data();
            const int32_t *mi_arr = liveMi_.data();
            for (size_t k = 0; k < old_live; ++k)
                grid[static_cast<size_t>(ti_arr[k]) * old_w +
                     static_cast<size_t>(mi_arr[k])] = vals[k];
        }
    }

    recomputeLiveGeometry();

    mcolScratch_.resize(new_w);
    for (size_t mi = 0, o = 0; mi < new_w; ++mi) {
        while (o + 1 < old_w && old_tm[o + 1] <= tmBps_[mi])
            ++o;
        mcolScratch_[mi] = o;
    }
    rowScratch_.resize(new_t);
    for (size_t ti = 0, o = 0; ti < new_t; ++ti) {
        while (o + 1 < old_t && old_tn[o + 1] <= tnBps_[ti])
            ++o;
        rowScratch_[ti] = o * old_w;
    }

    size_t new_live = liveCount();
    live_.resize(new_live);
    const size_t *mcol = mcolScratch_.data();
    const size_t *row = rowScratch_.data();
    const int64_t *grid = grid_.data();
    int64_t *vals = live_.data();
    if (livePacked_) {
        const uint32_t *pk = livePk_.data();
        for (size_t k = 0; k < new_live; ++k) {
            uint32_t p = pk[k];
            vals[k] = grid[row[p >> 16] + mcol[p & 0xFFFFu]];
        }
    } else {
        const int32_t *ti_arr = liveTi_.data();
        const int32_t *mi_arr = liveMi_.data();
        for (size_t k = 0; k < new_live; ++k)
            vals[k] = grid[row[ti_arr[k]] + mcol[mi_arr[k]]];
    }
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
ShapeFrontier::Builder::recomputeLiveGeometry()
{
    size_t t = tnBps_.size();
    size_t w = tmBps_.size();
    liveW_.resize(t);
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
                liveW_[ti] = 0;
            break;
        }
        int64_t tm_cap = unitsCap_ / tn;
        while (lw > 0 && tmBps_[lw - 1] > tm_cap)
            --lw;
        liveW_[ti] = lw;
        total += lw;
        if (lw > 0)
            max_units = std::max(max_units, tn * tmBps_[lw - 1]);
    }
    // Both indices in 16 bits covers any real geometry (65536 merged
    // breakpoints per dimension needs channel counts near 2^31); the
    // hot passes are bandwidth-bound, so half-width indices are a
    // direct win. The int32 pair lanes remain as the fallback.
    livePacked_ = t <= (1u << 16) && w <= (1u << 16);
    if (livePacked_) {
        livePk_.resize(total);
        liveTi_.clear();
        liveMi_.clear();
    } else {
        liveTi_.resize(total);
        liveMi_.resize(total);
        livePk_.clear();
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
        countScratch_.assign(slots, 0);
        for (size_t ti = 0; ti < t; ++ti) {
            int64_t tn = tnBps_[ti];
            size_t lw = liveW_[ti];
            for (size_t mi = 0; mi < lw; ++mi)
                ++countScratch_[static_cast<size_t>(tn * tmBps_[mi])];
        }
        int32_t acc = 0;
        for (size_t u = 0; u < slots; ++u) {
            int32_t c = countScratch_[u];
            countScratch_[u] = acc;
            acc += c;
        }
        for (size_t ti = 0; ti < t; ++ti) {
            int64_t tn = tnBps_[ti];
            size_t lw = liveW_[ti];
            for (size_t mi = 0; mi < lw; ++mi) {
                int64_t u = tn * tmBps_[mi];
                size_t pos = static_cast<size_t>(
                    countScratch_[static_cast<size_t>(u)]++);
                place(pos, ti, mi);
            }
        }
        return;
    }

    // Huge unit range: comparison sort. stable_sort preserves the
    // same discovery order within equal units as the counting path.
    sortScratch_.clear();
    sortScratch_.reserve(total);
    for (size_t ti = 0; ti < t; ++ti) {
        int64_t tn = tnBps_[ti];
        size_t lw = liveW_[ti];
        for (size_t mi = 0; mi < lw; ++mi)
            sortScratch_.emplace_back(tn * tmBps_[mi],
                                      static_cast<int32_t>(ti * w + mi));
    }
    std::stable_sort(sortScratch_.begin(), sortScratch_.end(),
                     [](const std::pair<int64_t, int32_t> &a,
                        const std::pair<int64_t, int32_t> &b) {
                         return a.first < b.first;
                     });
    for (size_t p = 0; p < total; ++p) {
        size_t off = static_cast<size_t>(sortScratch_[p].second);
        place(p, off / w, off % w);
    }
}

void
ShapeFrontier::Builder::addLayer(const nn::ConvLayer &layer,
                                 BreakpointCache &scratch)
{
    // The previous layer's staged update must land before the
    // geometry (and the staging scratch) can change.
    flushPending();
    layers_.push_back(&layer);
    // A grouped layer contributes exactly like a plain layer over its
    // per-group extents (N/G, M/G) with its cycle area scaled by G —
    // the G groups run sequentially on the same shape. Everything
    // below therefore works in per-group dimensions; G=1 reduces to
    // the original math untouched.
    const int64_t group_n = layer.groupN();
    const int64_t group_m = layer.groupM();
    maxN_ = std::max(maxN_, group_n);
    maxM_ = std::max(maxM_, group_m);

    const BreakpointCache::Table &ntab = scratch.table(group_n);
    const BreakpointCache::Table &mtab = scratch.table(group_m);

    // A repeated dimension value adds no new breakpoints; the live
    // cells keep their geometry and only absorb the rank-1 update
    // staged below.
    bool n_new = std::find(seenN_.begin(), seenN_.end(), group_n) ==
                 seenN_.end();
    bool m_new = std::find(seenM_.begin(), seenM_.end(), group_m) ==
                 seenM_.end();
    if (n_new || m_new) {
        std::vector<int64_t> old_tn;
        std::vector<int64_t> old_tm;
        if (geomInit_) {
            old_tn = tnBps_;
            old_tm = tmBps_;
        }
        bool changed = false;
        if (n_new) {
            seenN_.push_back(group_n);
            changed |= mergeBps(tnBps_, ntab.bps);
        }
        if (m_new) {
            seenM_.push_back(group_m);
            changed |= mergeBps(tmBps_, mtab.bps);
        }
        if (geomInit_ && changed)
            expandLive(old_tn, old_tm);
    }
    if (!geomInit_) {
        // First layer — with seeded dimensions this is the only
        // geometry computation of the whole run.
        recomputeLiveGeometry();
        live_.assign(liveCount(), 0);
        geomInit_ = true;
    }

    // Stage the rank-1 update cycles(tn, tm) += G*R*C*K^2 *
    // ceil((N/G)/tn) * ceil((M/G)/tm): per-column M ceilings and
    // per-row areas come from the layer's own tables with moving
    // cursors — no divisions. The live values are untouched until
    // flushPending() or a fused build() applies the staged update.
    size_t w = tmBps_.size();
    scratch_.resize(w);
    for (size_t mi = 0, k = 0; mi < w; ++mi) {
        while (k + 1 < mtab.bps.size() && mtab.bps[k + 1] <= tmBps_[mi])
            ++k;
        scratch_[mi] = mtab.ceils[k];
    }
    int64_t rck2 = layer.g * layer.r * layer.c * layer.k * layer.k;
    areas_.resize(tnBps_.size());
    for (size_t ti = 0, k = 0; ti < tnBps_.size(); ++ti) {
        if (liveW_[ti] == 0)
            break;  // no affordable shape in this or any later row
        int64_t tn = tnBps_[ti];
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
    // staircase test. The staged arrays are indexed in the current
    // geometry: addLayer() flushes before any breakpoint merge, so a
    // staged update never crosses a remap.
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
    if (layers_.empty())
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
    // At most one staircase point per live cell: grow-only sizing lets
    // the walk emit through raw pointers with no growth checks.
    if (outDsp_.size() < live_.size()) {
        outTn_.resize(live_.size());
        outTm_.resize(live_.size());
        outDsp_.resize(live_.size());
        outCycles_.resize(live_.size());
    }
    int32_t *out_tn = outTn_.data();
    int32_t *out_tm = outTm_.data();
    int64_t *out_dsp = outDsp_.data();
    int64_t *out_cycles = outCycles_.data();
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
    Builder builder;
    builder.setUnitsCap(units_budget);
    for (const nn::ConvLayer *layer : layers)
        builder.seedDimensions(layer->groupN(), layer->groupM(),
                               scratch);
    for (const nn::ConvLayer *layer : layers)
        builder.addLayer(*layer, scratch);
    *this = builder.build(type, units_budget);
}

void
ShapeFrontier::adopt(const int32_t *tn, const int32_t *tm,
                     const int64_t *dsp, const int64_t *cycles,
                     size_t count)
{
    size_ = count;
    if (count == 0) {
        tn_ = tm_ = nullptr;
        dsp_ = cycles_ = nullptr;
        return;
    }
    // One exact-size block: the int64 lanes first (the block is
    // 8-aligned), then the int32 lanes — kBytesPerPoint per point,
    // nothing else.
    unsigned char *block = static_cast<unsigned char *>(
        arena_.allocate(count * kBytesPerPoint, alignof(int64_t)));
    dsp_ = reinterpret_cast<int64_t *>(block);
    cycles_ = dsp_ + count;
    tn_ = reinterpret_cast<int32_t *>(cycles_ + count);
    tm_ = tn_ + count;
    std::memcpy(dsp_, dsp, count * sizeof(int64_t));
    std::memcpy(cycles_, cycles, count * sizeof(int64_t));
    std::memcpy(tn_, tn, count * sizeof(int32_t));
    std::memcpy(tm_, tm, count * sizeof(int32_t));
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
           (layers_.capacity() + seenN_.capacity() + seenM_.capacity()) *
               sizeof(int64_t) +
           (tnBps_.capacity() + tmBps_.capacity() + live_.capacity() +
            grid_.capacity() + scratch_.capacity() + areas_.capacity() +
            outDsp_.capacity() + outCycles_.capacity()) *
               sizeof(int64_t) +
           (mcolScratch_.capacity() + rowScratch_.capacity() +
            liveW_.capacity()) *
               sizeof(size_t) +
           (livePk_.capacity() + liveTi_.capacity() +
            liveMi_.capacity() + countScratch_.capacity() +
            outTn_.capacity() + outTm_.capacity()) *
               sizeof(int32_t) +
           sortScratch_.capacity() *
               sizeof(std::pair<int64_t, int32_t>);
}

std::optional<ShapeFrontier>
ShapeFrontier::fromPoints(std::vector<FrontierPoint> points)
{
    constexpr int64_t kShapeMax = std::numeric_limits<int32_t>::max();
    for (size_t i = 0; i < points.size(); ++i) {
        const FrontierPoint &point = points[i];
        if (point.shape.tn < 1 || point.shape.tm < 1 ||
            point.shape.tn > kShapeMax || point.shape.tm > kShapeMax ||
            point.dsp < 1 || point.cycles < 1)
            return std::nullopt;
        if (i > 0 && (point.dsp <= points[i - 1].dsp ||
                      point.cycles >= points[i - 1].cycles))
            return std::nullopt;  // not a staircase
    }
    std::vector<int32_t> tn(points.size()), tm(points.size());
    std::vector<int64_t> dsp(points.size()), cycles(points.size());
    for (size_t i = 0; i < points.size(); ++i) {
        tn[i] = static_cast<int32_t>(points[i].shape.tn);
        tm[i] = static_cast<int32_t>(points[i].shape.tm);
        dsp[i] = points[i].dsp;
        cycles[i] = points[i].cycles;
    }
    ShapeFrontier frontier;
    frontier.adopt(tn.data(), tm.data(), dsp.data(), cycles.data(),
                   points.size());
    return frontier;
}

void
FrontierRowStore::attachCache(std::shared_ptr<FrontierCache> cache)
{
    std::lock_guard<std::mutex> lock(mutex_);
    cache_ = std::move(cache);
}

std::shared_ptr<const ShapeFrontier>
FrontierRowStore::lookup(const std::vector<int64_t> &key)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = rows_.find(key);
    if (it != rows_.end()) {
        ++hits_;
        return it->second;
    }
    if (cache_) {
        // Read through to the persistent tiers: a loaded staircase is
        // as good as a resident one (immutable, validated at decode),
        // so it joins the store and counts as a hit — no build
        // happened. The tier the cache answered from (this shard's
        // mmap'd segment vs a sibling's) splits the hit counters so
        // cache-stats can show the whole ladder.
        CacheTier tier = CacheTier::None;
        if (auto row = cache_->loadRow(key, &tier)) {
            rows_.emplace(key, row);
            ++hits_;
            if (tier == CacheTier::Sibling)
                ++siblingHits_;
            else
                ++mmapHits_;
            return row;
        }
    }
    ++misses_;
    return nullptr;
}

std::shared_ptr<const ShapeFrontier>
FrontierRowStore::insert(const std::vector<int64_t> &key,
                         ShapeFrontier frontier)
{
    auto row = std::make_shared<const ShapeFrontier>(std::move(frontier));
    std::lock_guard<std::mutex> lock(mutex_);
    // The first insert wins, so racing builders (which produced
    // bit-identical frontiers anyway) converge on one shared row.
    auto [it, inserted] = rows_.emplace(key, std::move(row));
    if (inserted && cache_)
        cache_->noteRow(key, it->second);  // write-back at flush
    return it->second;
}

FrontierRowStore::Stats
FrontierRowStore::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    Stats stats;
    stats.hits = hits_;
    stats.misses = misses_;
    stats.rows = rows_.size();
    stats.mmapHits = mmapHits_;
    stats.siblingHits = siblingHits_;
    return stats;
}

size_t
FrontierRowStore::memoryBytes() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    size_t bytes = 0;
    for (const auto &entry : rows_) {
        bytes += entry.first.capacity() * sizeof(int64_t) +
                 4 * sizeof(void *);
        // With a disk cache attached, every row is pinned by the
        // cache's in-memory mirror (loaded rows and pending
        // write-backs) for the process lifetime, so eviction cannot
        // free it. Counting pinned rows against the SessionRegistry's
        // byte budget would make the cap unreachable and turn the
        // eviction loop into pure session thrash; the mirror is the
        // price of --cache-dir, bounded by the cache file, and
        // accounted to the cache, not to evictable registry state.
        if (!cache_)
            bytes += entry.second->memoryBytes();
    }
    return bytes;
}

size_t
FrontierRowStore::purgeUnshared()
{
    std::lock_guard<std::mutex> lock(mutex_);
    size_t freed = 0;
    for (auto it = rows_.begin(); it != rows_.end();) {
        if (it->second.use_count() == 1) {
            it = rows_.erase(it);
            ++freed;
        } else {
            ++it;
        }
    }
    return freed;
}

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

bool
FrontierTable::usable(size_t i, size_t j) const
{
    size_t count = order_.size();
    return (i == 0 && j == count - 1) ||
           (maxClps_ >= 2 && (i == 0 || j == count - 1)) || maxClps_ >= 3;
}

std::vector<int64_t>
FrontierTable::rangeKey(size_t i, size_t j, int64_t units_cap) const
{
    // Everything a range frontier depends on: data type (DSP per MAC),
    // the cap it was built under, and per layer the two breakpoint
    // dimensions plus the per-ceiling cycle weight R*C*K^2 and the
    // group count (cache key format v4: the g lane makes grouped and
    // plain layers distinct rows). Network identity and layer indices
    // never enter, so dims-identical ranges of different networks
    // share one row.
    std::vector<int64_t> key;
    key.reserve(2 + 4 * (j - i + 1));
    key.push_back(static_cast<int64_t>(type_));
    key.push_back(units_cap);
    for (size_t p = i; p <= j; ++p) {
        const nn::ConvLayer &layer = network_.layer(order_[p]);
        key.push_back(layer.n);
        key.push_back(layer.m);
        key.push_back(layer.r * layer.c * layer.k * layer.k);
        key.push_back(layer.g);
    }
    return key;
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
        // (and if) a big-budget query reaches them.
        row.builder.reset();
        row.builderLayers = 0;
        row.frontiers.clear();
        row.exhausted = false;
        row.builtUnits = std::max(buildUnits_.load(), needed);
        // Every build of this row uses exactly builtUnits, so the
        // builder can skip maintaining cells beyond it (most of the
        // grid under a real budget).
        row.builder.setUnitsCap(row.builtUnits);
    }
    if (row.exhausted)
        return;
    size_t count = order_.size();
    while (true) {
        if (!row.frontiers.empty() &&
            row.frontiers.back()->minCycles(dsp_budget) > cycle_target)
            return;  // resume when the target loosens or budget grows
        // The usable j for a row are contiguous up from i (maxClps >= 3
        // or i == 0), or just the full-suffix range {count-1}.
        size_t j = usable(i, i) ? i + row.frontiers.size() : count - 1;
        if (!row.frontiers.empty() && !usable(i, j)) {
            row.exhausted = true;  // next usable j is not contiguous
            return;
        }
        // Bring the incremental builder up to [i..j], unless the row
        // store already has this range (then the grid work waits until
        // a miss actually needs it).
        std::shared_ptr<const ShapeFrontier> frontier;
        if (store_)
            frontier = store_->lookup(rangeKey(i, j, row.builtUnits));
        if (!frontier) {
            for (size_t p = i + row.builderLayers; p <= j; ++p)
                row.builder.addLayer(network_.layer(order_[p]),
                                     breakpoints_);
            row.builderLayers = j - i + 1;
            ShapeFrontier built =
                row.builder.build(type_, row.builtUnits);
            frontier = store_ ? store_->insert(
                                    rangeKey(i, j, row.builtUnits),
                                    std::move(built))
                              : std::make_shared<const ShapeFrontier>(
                                    std::move(built));
        }
        row.frontiers.push_back(std::move(frontier));
        if (row.frontiers.back()->empty()) {
            // No affordable shape at any target (sub-MAC cap only);
            // extensions only add cycles, so this row is finished.
            row.exhausted = true;
            return;
        }
        if (j + 1 >= count) {
            row.exhausted = true;
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
    // (a sweep fanning budgets over a pool) extend disjoint rows in
    // parallel and collide — briefly — only on shared rows.
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
    std::shared_ptr<const ShapeFrontier> frontier;
    {
        std::lock_guard<std::mutex> lock(rowLocks_[i]);
        Row &row = rows_[i];
        if (idx >= row.frontiers.size() ||
            row.builtUnits < model::macBudget(dsp_budget, type_)) {
            // Not built far enough for this (budget, target) — a
            // concurrent rebuild, a bigger budget, or a prepare() that
            // stopped earlier. Extend in place; if the row still ends
            // short, some prefix range already misses the target under
            // this budget, and extensions only add cycles, so [i..j]
            // is provably infeasible.
            extendRowLocked(i, dsp_budget, cycle_target);
            if (idx >= row.frontiers.size())
                return std::nullopt;
        }
        frontier = row.frontiers[idx];
    }
    // The frontier itself is immutable; query outside the row lock.
    return frontier->query(cycle_target, dsp_budget);
}

size_t
FrontierTable::memoryBytes() const
{
    size_t bytes = sizeof(*this) + order_.capacity() * sizeof(size_t);
    for (size_t i = 0; i < rows_.size(); ++i) {
        std::lock_guard<std::mutex> lock(rowLocks_[i]);
        const Row &row = rows_[i];
        bytes += row.builder.memoryBytes();
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
