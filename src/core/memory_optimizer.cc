#include "core/memory_optimizer.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <limits>
#include <map>

#include "core/frontier_cache.h"
#include "model/bandwidth_model.h"
#include "model/bram_model.h"
#include "model/cycle_model.h"
#include "model/dsp_model.h"
#include "model/metrics.h"
#include "util/logging.h"
#include "util/math.h"
#include "util/prof.h"

namespace mclp {
namespace core {

std::vector<TilingOption>
paretoTilingOptions(const nn::ConvLayer &layer,
                    const model::ClpShape &shape)
{
    util::prof::Scope prof_scope(util::prof::Phase::TilingEnum);
    // Bank costs are non-decreasing step functions of the tile sizes,
    // and within a run of Tc sharing identical bank costs the peak is
    // monotone: peak(Tc) = A + B / (k^2*Tr*Tc) with the per-row
    // constant B = Tn*rowext*(k-s) + Tn*Tm*k^2, decreasing when
    // B > 0 (every s <= k layer) and increasing when B < 0 (possible
    // when the stride exceeds the kernel; B = 0 makes the plateau
    // flat and the deterministic larger-(Tr,Tc) tie-break applies).
    // The plateau's minimum therefore sits on one known edge, so
    // emitting just that edge covers every Pareto-optimal tiling
    // while keeping the candidate set at the number of cost steps
    // instead of R*C. A second exact reduction collapses candidates
    // sharing a (input, output) cost pair: the staircase filter below
    // keeps at most one of them, so the dedup map can pick that
    // winner directly and the sort runs over distinct cost pairs
    // only.
    std::unordered_map<uint64_t, TilingOption> best_per_cost;
    for (int64_t tr = 1; tr <= layer.r; ++tr) {
        // Sign of B decides which plateau edge holds the peak minimum
        // (ties go right, matching the larger-(Tr,Tc) rule).
        int64_t rowext = (tr - 1) * layer.s + layer.k;
        bool left_edge_wins =
            shape.tn * rowext * (layer.k - layer.s) +
                shape.tn * shape.tm * layer.k * layer.k <
            0;
        auto costsAt = [&](int64_t tc) {
            model::Tiling tiling{tr, tc};
            int64_t in = model::bramsPerBank(
                model::inputBankWords(layer, tiling), false);
            int64_t out = model::bramsPerBank(
                model::outputBankWords(tiling), true);
            return std::make_pair(in, out);
        };
        auto emit = [&](int64_t tc, int64_t in, int64_t out) {
            TilingOption opt;
            opt.tiling = model::Tiling{tr, tc};
            opt.inputBankBrams = in;
            opt.outputBankBrams = out;
            opt.peakWordsPerCycle =
                model::layerPeakWordsPerCycle(layer, shape, opt.tiling);
            uint64_t cost_key = (static_cast<uint64_t>(in) << 32) |
                                static_cast<uint64_t>(out);
            auto [it, inserted] = best_per_cost.try_emplace(cost_key, opt);
            if (!inserted) {
                TilingOption &best = it->second;
                // Min peak; exact peak ties resolve toward the larger
                // (Tr, Tc), matching the historical selection among
                // equivalent tilings.
                if (opt.peakWordsPerCycle < best.peakWordsPerCycle ||
                    (opt.peakWordsPerCycle == best.peakWordsPerCycle &&
                     (opt.tiling.tr > best.tiling.tr ||
                      (opt.tiling.tr == best.tiling.tr &&
                       opt.tiling.tc > best.tiling.tc))))
                    best = opt;
            }
        };
        // Both costs are non-decreasing in Tc, so each plateau's
        // right edge is found by galloping + bisection instead of
        // evaluating every Tc of long constant runs.
        int64_t tc = 1;
        auto cur = costsAt(tc);
        while (true) {
            // Largest lo in [tc, c] with costs equal to cur.
            int64_t lo = tc;
            int64_t step = 1;
            while (lo + step <= layer.c &&
                   costsAt(lo + step) == cur) {
                lo += step;
                step *= 2;
            }
            int64_t hi = std::min(lo + step, layer.c + 1);
            while (hi - lo > 1) {
                int64_t mid = lo + (hi - lo) / 2;
                if (costsAt(mid) == cur)
                    lo = mid;
                else
                    hi = mid;
            }
            emit(left_edge_wins ? tc : lo, cur.first, cur.second);
            if (hi > layer.c)
                break;
            tc = hi;
            cur = costsAt(tc);
        }
    }

    std::vector<TilingOption> all;
    all.reserve(best_per_cost.size());
    for (const auto &entry : best_per_cost)
        all.push_back(entry.second);

    // Sort by ascending peak; tie-break toward cheaper buffers so the
    // staircase filter keeps the cheapest representative, then by
    // descending (Tr, Tc) so exact ties resolve deterministically (and
    // as the historical selection did).
    std::sort(all.begin(), all.end(),
              [](const TilingOption &a, const TilingOption &b) {
                  if (a.peakWordsPerCycle != b.peakWordsPerCycle)
                      return a.peakWordsPerCycle < b.peakWordsPerCycle;
                  if (a.inputBankBrams != b.inputBankBrams)
                      return a.inputBankBrams < b.inputBankBrams;
                  if (a.outputBankBrams != b.outputBankBrams)
                      return a.outputBankBrams < b.outputBankBrams;
                  if (a.tiling.tr != b.tiling.tr)
                      return a.tiling.tr > b.tiling.tr;
                  return a.tiling.tc > b.tiling.tc;
              });

    // 3-D Pareto filter: sweep in peak order and keep an option only
    // if no kept option has both bank costs <= its. The staircase maps
    // input cost -> smallest output cost seen at or below it.
    std::map<int64_t, int64_t> staircase;
    auto dominated = [&](int64_t in_cost, int64_t out_cost) {
        auto it = staircase.upper_bound(in_cost);
        if (it == staircase.begin())
            return false;
        --it;
        return it->second <= out_cost;
    };
    auto insert = [&](int64_t in_cost, int64_t out_cost) {
        auto it = staircase.lower_bound(in_cost);
        while (it != staircase.end() && it->second >= out_cost)
            it = staircase.erase(it);
        staircase[in_cost] = out_cost;
    };

    std::vector<TilingOption> pareto;
    for (const TilingOption &opt : all) {
        if (dominated(opt.inputBankBrams, opt.outputBankBrams))
            continue;
        insert(opt.inputBankBrams, opt.outputBankBrams);
        pareto.push_back(opt);
    }
    return pareto;
}

TilingOptionCache::Options
TilingOptionCache::get(const nn::ConvLayer &layer,
                       const model::ClpShape &shape)
{
    // Everything paretoTilingOptions consumes: the enumeration bounds
    // (R, C), the buffer geometry (K, S), the shape, and N only
    // through the per-group ceil((N/G)/Tn) in the peak formula — M
    // not at all. Layers repeating this signature (fire modules,
    // inception branches, grouped convolutions and their plain
    // per-group twins) share one entry even when N and M differ.
    Key key{layer.r, layer.c,  layer.k,  layer.s,
            shape.tn, shape.tm,
            util::ceilDiv(layer.groupN(), shape.tn), 0};
    {
        std::lock_guard<std::mutex> lock(mutex_);
        auto it = table_.find(key);
        if (it != table_.end())
            return it->second;
    }
    // Compute outside the lock; a concurrent duplicate computation is
    // harmless (the function is pure) and the first insert wins.
    Options options = std::make_shared<const std::vector<TilingOption>>(
        paretoTilingOptions(layer, shape));
    std::lock_guard<std::mutex> lock(mutex_);
    return table_.emplace(key, std::move(options)).first->second;
}

TradeoffCurveCache::TradeoffCurveCache(std::shared_ptr<FrontierCache> cache)
    : cache_(std::move(cache))
{
}

const TradeoffCurveCache::ProbePair *
TradeoffCurveCache::GroupCurve::find(int64_t in_cap,
                                     int64_t out_cap) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = states_.find({in_cap, out_cap});
    // Map nodes are stable and values immutable after insertion, so
    // the pointer stays valid past the lock.
    return it == states_.end() ? nullptr : &it->second;
}

const TradeoffCurveCache::ProbePair &
TradeoffCurveCache::GroupCurve::insert(int64_t in_cap, int64_t out_cap,
                                       ProbePair probes)
{
    std::lock_guard<std::mutex> lock(mutex_);
    return states_.emplace(std::make_pair(in_cap, out_cap),
                           std::move(probes))
        .first->second;
}

std::shared_ptr<TradeoffCurveCache::GroupCurve>
TradeoffCurveCache::curve(fpga::DataType type,
                          const model::ClpShape &shape,
                          const nn::Network &network,
                          const std::vector<size_t> &layers)
{
    // Everything a probe depends on: data type (bank geometry and
    // word width), CLP shape, and each layer's tiling signature (the
    // same reduction TilingOptionCache::get applies).
    std::vector<int64_t> key;
    key.reserve(3 + layers.size() * 5);
    key.push_back(static_cast<int64_t>(type));
    key.push_back(shape.tn);
    key.push_back(shape.tm);
    for (size_t idx : layers) {
        const nn::ConvLayer &layer = network.layer(idx);
        key.push_back(layer.r);
        key.push_back(layer.c);
        key.push_back(layer.k);
        key.push_back(layer.s);
        key.push_back(util::ceilDiv(layer.groupN(), shape.tn));
    }
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = curves_.find(key);
    if (it != curves_.end())
        return it->second;
    auto curve = std::make_shared<GroupCurve>();
    return curves_.emplace(std::move(key), std::move(curve))
        .first->second;
}

std::shared_ptr<TradeoffCurveCache::PartitionTrace>
TradeoffCurveCache::partitionTrace(fpga::DataType type,
                                   const nn::Network &network,
                                   const ComputePartition &partition)
{
    // The walk depends on the data type and, per group in order, the
    // CLP shape and layer tiling signatures — layer *indices* never
    // enter the probes, so index-shifted twins of a partition share a
    // trace.
    std::vector<int64_t> key;
    key.push_back(static_cast<int64_t>(type));
    for (const ComputeGroup &group : partition.groups) {
        key.push_back(-1);  // group delimiter
        key.push_back(group.shape.tn);
        key.push_back(group.shape.tm);
        for (size_t idx : group.layers) {
            const nn::ConvLayer &layer = network.layer(idx);
            key.push_back(layer.r);
            key.push_back(layer.c);
            key.push_back(layer.k);
            key.push_back(layer.s);
            key.push_back(util::ceilDiv(layer.groupN(), group.shape.tn));
        }
    }
    {
        std::lock_guard<std::mutex> lock(mutex_);
        auto it = traces_.find(key);
        if (it != traces_.end())
            return it->second;
    }
    // Seed outside mutex_ (the disk cache locks trace mutexes during
    // its flush, and walks holding a trace mutex re-enter mutex_ via
    // curve() — touching the cache under mutex_ would close an
    // AB-BA-CA cycle). The trace is still private here.
    auto trace = std::make_shared<PartitionTrace>();
    if (cache_)
        cache_->seedTrace(key, *trace);
    std::shared_ptr<PartitionTrace> winner;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        winner = traces_.emplace(key, trace).first->second;
    }
    // Only the canonical trace is tracked for write-back (a losing
    // racer's copy is dropped along with its seed).
    if (cache_ && winner == trace)
        cache_->noteTrace(key, winner);
    return winner;
}

size_t
TilingOptionCache::memoryBytes()
{
    std::lock_guard<std::mutex> lock(mutex_);
    size_t bytes = table_.size() * (sizeof(Key) + 4 * sizeof(void *));
    for (const auto &entry : table_)
        bytes += sizeof(std::vector<TilingOption>) +
                 entry.second->capacity() * sizeof(TilingOption);
    return bytes;
}

size_t
TradeoffCurveCache::GroupCurve::memoryBytes() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    // One red-black node per state: key pair + probes + tree overhead.
    return states_.size() *
           (sizeof(std::pair<int64_t, int64_t>) + sizeof(ProbePair) +
            4 * sizeof(void *));
}

size_t
TradeoffCurveCache::memoryBytes()
{
    // Two phases, never holding mutex_ and a trace mutex together: an
    // optimizer walk holds its trace mutex while fetching group
    // curves (which takes mutex_), so locking a trace under mutex_
    // here would be an AB-BA deadlock with any in-flight walk.
    size_t bytes = 0;
    std::vector<std::shared_ptr<PartitionTrace>> traces;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        for (const auto &entry : curves_) {
            bytes += entry.first.capacity() * sizeof(int64_t) +
                     sizeof(GroupCurve) + entry.second->memoryBytes();
        }
        traces.reserve(traces_.size());
        for (const auto &entry : traces_) {
            bytes += entry.first.capacity() * sizeof(int64_t) +
                     sizeof(PartitionTrace);
            traces.push_back(entry.second);
        }
    }
    for (const auto &trace_ptr : traces) {
        PartitionTrace &trace = *trace_ptr;
        std::lock_guard<std::mutex> trace_lock(trace.mutex);
        bytes += trace.steps.capacity() * sizeof(PartitionStep);
        // Options vectors are shared with TilingOptionCache and the
        // curves are counted above; only the pointer tables are new.
        for (const auto &group : trace.groupOptions)
            bytes += group.capacity() * sizeof(TilingOptionCache::Options);
        bytes += trace.groupCurves.capacity() *
                 sizeof(std::shared_ptr<GroupCurve>);
    }
    return bytes;
}

/**
 * Mutable tiling state of one CLP during the greedy frontier walk:
 * per-layer Pareto options, the currently chosen option per layer, and
 * the implied per-bank BRAM cost caps.
 */
class MemoryOptimizer::ClpState
{
  public:
    ClpState(const nn::Network &network, fpga::DataType type,
             const ComputeGroup &group,
             std::vector<TilingOptionCache::Options> options,
             std::shared_ptr<TradeoffCurveCache::GroupCurve> curve)
        : network_(network), type_(type), shape_(group.shape),
          layers_(group.layers), curve_(std::move(curve)),
          options_(std::move(options))
    {
        int64_t weight_words = 0;
        for (size_t idx : layers_) {
            const nn::ConvLayer &layer = network_.layer(idx);
            weight_words =
                std::max(weight_words, model::weightBankWords(layer));
        }
        weightBankBrams_ = model::bramsPerBank(weight_words, false);
        chosen_.assign(layers_.size(), 0);
        refreshCaps();
    }

    /** Current BRAM use of this CLP (cached; see refreshCaps). */
    int64_t bram() const { return bram_; }

    /** BRAM use at hypothetical per-bank cost caps. */
    int64_t
    bramAt(int64_t in_cap, int64_t out_cap) const
    {
        return model::effectiveBanks(shape_.tn, type_) * in_cap +
               model::effectiveBanks(shape_.tn * shape_.tm, type_) *
                   weightBankBrams_ +
               model::effectiveBanks(shape_.tm, type_) * out_cap;
    }

    /** Current peak bandwidth of this CLP in words per cycle. */
    double peakWords() const { return peak_; }

    /**
     * Both shrink probes at the current cap state, answered from the
     * group's curve memo when possible. A probe is a pure function of
     * (group, caps), so cached and fresh results are identical.
     */
    TradeoffCurveCache::ProbePair
    probes() const
    {
        if (curve_) {
            if (const auto *hit = curve_->find(inCap_, outCap_))
                return *hit;
            ProbePair pair{probeMove(true), probeMove(false)};
            return curve_->insert(inCap_, outCap_, pair);
        }
        return {probeMove(true), probeMove(false)};
    }

    using Move = BufferMove;
    using ProbePair = TradeoffCurveCache::ProbePair;

    /**
     * Evaluate shrinking the input or output per-bank cost to the next
     * lower achievable level. Returns nullopt when no lower level
     * exists. One pass over each layer's options answers both the
     * floor (the lowest level reachable under the other cap) and the
     * next step down (the largest level strictly below the current
     * cap); a first-fit pass then picks each layer's new minimum-peak
     * option.
     */
    std::optional<Move>
    probeMove(bool input) const
    {
        int64_t cap = input ? inCap_ : outCap_;
        int64_t other_cap = input ? outCap_ : inCap_;
        // The layers' options bound how low the cap can go: every
        // layer must retain at least one option under both caps.
        int64_t floor_cap = 0;
        int64_t next_below = std::numeric_limits<int64_t>::min();
        for (size_t li = 0; li < layers_.size(); ++li) {
            int64_t layer_min = std::numeric_limits<int64_t>::max();
            for (const TilingOption &opt : *options_[li]) {
                int64_t level =
                    input ? opt.inputBankBrams : opt.outputBankBrams;
                int64_t gate =
                    input ? opt.outputBankBrams : opt.inputBankBrams;
                if (gate <= other_cap)
                    layer_min = std::min(layer_min, level);
                if (level < cap)
                    next_below = std::max(next_below, level);
            }
            if (layer_min == std::numeric_limits<int64_t>::max())
                return std::nullopt;  // should not happen: cap covers it
            floor_cap = std::max(floor_cap, layer_min);
        }
        if (cap <= floor_cap)
            return std::nullopt;

        // Largest achievable level strictly below the current cap.
        int64_t new_cap = std::max(floor_cap, next_below);

        int64_t in_cap = input ? new_cap : inCap_;
        int64_t out_cap = input ? outCap_ : new_cap;
        double peak_after = 0.0;
        for (size_t li = 0; li < layers_.size(); ++li) {
            const TilingOption *fit = firstFit(li, in_cap, out_cap);
            if (!fit)
                return std::nullopt;
            peak_after = std::max(peak_after, fit->peakWordsPerCycle);
        }
        Move move;
        move.input = input;
        move.newCap = new_cap;
        move.bramAfter = bramAt(in_cap, out_cap);
        move.peakAfter = peak_after;
        return move;
    }

    /** Apply a previously probed move. */
    void
    applyMove(const Move &move)
    {
        if (move.input)
            inCap_ = move.newCap;
        else
            outCap_ = move.newCap;
        if (!repick())
            util::panic("MemoryOptimizer: applying an infeasible move");
        refreshCaps();
    }

    const model::ClpShape &shape() const { return shape_; }
    const std::vector<size_t> &layers() const { return layers_; }
    int64_t inCap() const { return inCap_; }
    int64_t outCap() const { return outCap_; }

    /**
     * Jump to a trace-recorded state: the caps a walk recorded after
     * a move (post tightening) reproduce that walk point's exact
     * tilings through one re-pick, because re-picking is idempotent
     * across the tightening step.
     */
    void
    setCaps(int64_t in_cap, int64_t out_cap)
    {
        inCap_ = in_cap;
        outCap_ = out_cap;
        if (!repick())
            util::panic("MemoryOptimizer: trace caps are infeasible");
        refreshCaps();
    }

    /** Currently chosen tiling of layer @p li (local index). */
    const model::Tiling &
    tiling(size_t li) const
    {
        return (*options_[li])[chosen_[li]].tiling;
    }

  private:
    /**
     * Layer @p li's minimum-peak option within both caps, or null.
     * Options are sorted by ascending peak, so the first fit is it.
     */
    const TilingOption *
    firstFit(size_t li, int64_t in_cap, int64_t out_cap) const
    {
        for (const TilingOption &opt : *options_[li])
            if (opt.inputBankBrams <= in_cap &&
                opt.outputBankBrams <= out_cap)
                return &opt;
        return nullptr;
    }

    /**
     * Re-pick, for every layer, the minimum-peak option obeying the
     * caps. Returns false if some layer has no such option.
     */
    bool
    repick()
    {
        for (size_t li = 0; li < layers_.size(); ++li) {
            const TilingOption *fit = firstFit(li, inCap_, outCap_);
            if (!fit)
                return false;
            chosen_[li] = static_cast<size_t>(fit - options_[li]->data());
        }
        return true;
    }

    /**
     * Tighten the caps down to the realized per-layer maxima and
     * refresh the cached BRAM/peak totals.
     */
    void
    refreshCaps()
    {
        int64_t in_max = 0;
        int64_t out_max = 0;
        double peak = 0.0;
        for (size_t li = 0; li < layers_.size(); ++li) {
            const TilingOption &opt = (*options_[li])[chosen_[li]];
            in_max = std::max(in_max, opt.inputBankBrams);
            out_max = std::max(out_max, opt.outputBankBrams);
            peak = std::max(peak, opt.peakWordsPerCycle);
        }
        inCap_ = in_max;
        outCap_ = out_max;
        bram_ = bramAt(inCap_, outCap_);
        peak_ = peak;
    }

    const nn::Network &network_;
    fpga::DataType type_;
    model::ClpShape shape_;
    std::vector<size_t> layers_;
    std::shared_ptr<TradeoffCurveCache::GroupCurve> curve_;
    std::vector<TilingOptionCache::Options> options_;
    std::vector<size_t> chosen_;
    int64_t weightBankBrams_ = 0;
    int64_t inCap_ = 0;
    int64_t outCap_ = 0;
    int64_t bram_ = 0;   ///< cached bramAt(inCap_, outCap_)
    double peak_ = 0.0;  ///< cached max chosen peakWordsPerCycle
};

MemoryOptimizer::MemoryOptimizer(const nn::Network &network,
                                 fpga::DataType type,
                                 std::shared_ptr<TilingOptionCache> cache,
                                 std::shared_ptr<TradeoffCurveCache> curves)
    : network_(network), type_(type), cache_(std::move(cache)),
      curves_(std::move(curves))
{
    if (!cache_)
        cache_ = std::make_shared<TilingOptionCache>();
    if (!curves_)
        curves_ = std::make_shared<TradeoffCurveCache>();
}

model::MultiClpDesign
MemoryOptimizer::buildDesign(const ComputePartition &partition,
                             const std::vector<ClpState> &states) const
{
    model::MultiClpDesign design;
    design.dataType = type_;
    for (size_t ci = 0; ci < partition.groups.size(); ++ci) {
        model::ClpConfig clp;
        clp.shape = partition.groups[ci].shape;
        const ClpState &state = states[ci];
        for (size_t li = 0; li < state.layers().size(); ++li) {
            model::LayerBinding binding;
            binding.layerIdx = state.layers()[li];
            binding.tiling = state.tiling(li);
            clp.layers.push_back(binding);
        }
        design.clps.push_back(std::move(clp));
    }
    return design;
}

std::vector<MemoryOptimizer::ClpState>
MemoryOptimizer::makeStates(const ComputePartition &partition,
                            TradeoffCurveCache::PartitionTrace &trace)
    const
{
    if (trace.groupOptions.empty()) {
        trace.groupOptions.reserve(partition.groups.size());
        trace.groupCurves.reserve(partition.groups.size());
        for (const ComputeGroup &group : partition.groups) {
            std::vector<TilingOptionCache::Options> options;
            options.reserve(group.layers.size());
            for (size_t idx : group.layers)
                options.push_back(
                    cache_->get(network_.layer(idx), group.shape));
            trace.groupOptions.push_back(std::move(options));
            trace.groupCurves.push_back(curves_->curve(
                type_, group.shape, network_, group.layers));
        }
    }
    std::vector<ClpState> states;
    states.reserve(partition.groups.size());
    for (size_t ci = 0; ci < partition.groups.size(); ++ci) {
        states.emplace_back(network_, type_, partition.groups[ci],
                            trace.groupOptions[ci],
                            trace.groupCurves[ci]);
    }
    return states;
}

std::vector<MemoryOptimizer::ClpState>
MemoryOptimizer::statesAt(const ComputePartition &partition,
                          TradeoffCurveCache::PartitionTrace &trace,
                          ptrdiff_t idx) const
{
    std::vector<ClpState> states = makeStates(partition, trace);
    // Each CLP's state is determined by its last recorded caps within
    // the step prefix (its construction state when it never moved).
    std::vector<ptrdiff_t> last(states.size(), -1);
    for (ptrdiff_t s = 0; s <= idx; ++s)
        last[trace.steps[static_cast<size_t>(s)].clp] = s;
    for (size_t ci = 0; ci < states.size(); ++ci) {
        if (last[ci] < 0)
            continue;
        const auto &step = trace.steps[static_cast<size_t>(last[ci])];
        states[ci].setCaps(step.inCap, step.outCap);
    }
    return states;
}

void
MemoryOptimizer::extendTrace(const ComputePartition &partition,
                             TradeoffCurveCache::PartitionTrace &trace,
                             int64_t bram_budget) const
{
    util::prof::Scope prof_scope(util::prof::Phase::MemoryWalk);
    if (trace.complete)
        return;
    if (trace.initialized) {
        // Nothing to do if the stored prefix already answers the
        // budget (total BRAM strictly decreases along the steps).
        int64_t known = trace.steps.empty() ? trace.initialBram
                                            : trace.steps.back().totalBram;
        if (bram_budget >= 0 && known <= bram_budget)
            return;
    }

    // Resume the walk from the end of the stored prefix; a fresh
    // trace resumes from the initial maximum-buffer point. The loop
    // below is the uncached greedy walk verbatim, so a first cold
    // call does exactly the work it always did.
    std::vector<ClpState> states =
        statesAt(partition, trace,
                 static_cast<ptrdiff_t>(trace.steps.size()) - 1);

    auto totalBram = [&]() {
        int64_t total = 0;
        for (const ClpState &state : states)
            total += state.bram();
        return total;
    };
    auto totalPeakBytes = [&]() {
        double total = 0.0;
        for (const ClpState &state : states)
            total += state.peakWords();
        return total * static_cast<double>(fpga::wordBytes(type_));
    };

    if (!trace.initialized) {
        trace.initialBram = totalBram();
        trace.initialPeak = totalPeakBytes();
        trace.initialized = true;
    }

    // Probes depend only on their own CLP's state, so they stay valid
    // until that CLP moves; only the mover is re-probed each round
    // (the scores still compare in the original order), and re-probes
    // of states any earlier walk visited hit the curve memo.
    std::vector<ClpState::ProbePair> probes(states.size());
    std::vector<bool> stale(states.size(), true);

    while (bram_budget < 0 || totalBram() > bram_budget) {
        // Probe a one-level shrink of each CLP's input and output
        // buffers; take the one saving the most BRAM per unit of
        // added peak bandwidth.
        double cur_peak = totalPeakBytes();
        double best_score = -1.0;
        size_t best_clp = 0;
        std::optional<ClpState::Move> best_move;
        for (size_t ci = 0; ci < states.size(); ++ci) {
            if (stale[ci]) {
                probes[ci] = states[ci].probes();
                stale[ci] = false;
            }
            for (const auto &move : probes[ci]) {
                if (!move)
                    continue;
                int64_t bram_delta =
                    states[ci].bram() - move->bramAfter;
                if (bram_delta <= 0)
                    continue;
                double others_peak =
                    cur_peak - states[ci].peakWords() *
                                   fpga::wordBytes(type_);
                double peak_after =
                    others_peak +
                    move->peakAfter * fpga::wordBytes(type_);
                double peak_delta = std::max(0.0, peak_after - cur_peak);
                double score = static_cast<double>(bram_delta) /
                               (peak_delta + 1e-9);
                if (score > best_score) {
                    best_score = score;
                    best_clp = ci;
                    best_move = move;
                }
            }
        }
        if (!best_move) {
            trace.complete = true;  // bottom of the curve
            return;
        }
        states[best_clp].applyMove(*best_move);
        stale[best_clp] = true;

        TradeoffCurveCache::PartitionStep step;
        step.clp = static_cast<uint32_t>(best_clp);
        step.inCap = states[best_clp].inCap();
        step.outCap = states[best_clp].outCap();
        step.totalBram = totalBram();
        step.totalPeak = totalPeakBytes();
        trace.steps.push_back(step);
    }
}

std::optional<model::MultiClpDesign>
MemoryOptimizer::optimize(const ComputePartition &partition,
                          const fpga::ResourceBudget &budget,
                          int64_t cycle_target) const
{
    budget.validate();

    // The result depends on the partition, the BRAM budget, and — only
    // when bandwidth is constrained — the bandwidth cap and the cycle
    // target the finished design must meet.
    std::vector<int64_t> key;
    key.reserve(4 + partition.groups.size() * 8);
    key.push_back(budget.bram18k);
    if (budget.bandwidthLimited()) {
        int64_t bw_bits;
        static_assert(sizeof(bw_bits) == sizeof(double));
        std::memcpy(&bw_bits, &budget.bandwidthBytesPerCycle,
                    sizeof(bw_bits));
        key.push_back(bw_bits);
        key.push_back(cycle_target);
    }
    for (const ComputeGroup &group : partition.groups) {
        key.push_back(-1);  // group delimiter
        key.push_back(group.shape.tn);
        key.push_back(group.shape.tm);
        for (size_t idx : group.layers)
            key.push_back(static_cast<int64_t>(idx));
    }
    {
        std::lock_guard<std::mutex> lock(memoMutex_);
        auto it = memo_.find(key);
        if (it != memo_.end())
            return it->second;
    }

    // Walk the partition's memoized trace to the first point within
    // the BRAM budget (extending it only when no earlier query went
    // deep enough), then rebuild that point's design.
    std::optional<model::MultiClpDesign> design;
    {
        util::prof::Scope prof_scope(util::prof::Phase::MemoryWalk);
        auto trace = curves_->partitionTrace(type_, network_, partition);
        std::lock_guard<std::mutex> lock(trace->mutex);
        extendTrace(partition, *trace, budget.bram18k);
        if (trace->initialBram <= budget.bram18k) {
            design = buildDesign(partition,
                                 statesAt(partition, *trace, -1));
        } else {
            // Total BRAM strictly decreases along the steps; the walk
            // stops at the first step within budget.
            auto it = std::partition_point(
                trace->steps.begin(), trace->steps.end(),
                [&](const TradeoffCurveCache::PartitionStep &step) {
                    return step.totalBram > budget.bram18k;
                });
            if (it != trace->steps.end()) {
                design = buildDesign(
                    partition,
                    statesAt(partition, *trace,
                             it - trace->steps.begin()));
            }
        }
    }
    if (design && budget.bandwidthLimited()) {
        model::DesignMetrics metrics =
            model::evaluateDesign(*design, network_, budget);
        if (metrics.epochCycles > cycle_target)
            design = std::nullopt;
    }
    std::lock_guard<std::mutex> lock(memoMutex_);
    return memo_.emplace(std::move(key), std::move(design))
        .first->second;
}

std::vector<TradeoffPoint>
MemoryOptimizer::tradeoffCurve(const ComputePartition &partition) const
{
    util::prof::Scope prof_scope(util::prof::Phase::MemoryWalk);
    auto trace = curves_->partitionTrace(type_, network_, partition);
    std::lock_guard<std::mutex> lock(trace->mutex);
    extendTrace(partition, *trace, -1);

    std::vector<TradeoffPoint> points;
    points.reserve(trace->steps.size() + 1);
    // The walk visits the initial maximum-buffer point first, then
    // one point per move. Rebuilding states step by step (instead of
    // statesAt per point) keeps this linear in the curve length.
    std::vector<ClpState> states = statesAt(partition, *trace, -1);
    TradeoffPoint initial;
    initial.totalBram = trace->initialBram;
    initial.peakBytesPerCycle = trace->initialPeak;
    initial.design = buildDesign(partition, states);
    points.push_back(std::move(initial));
    for (const auto &step : trace->steps) {
        states[step.clp].setCaps(step.inCap, step.outCap);
        TradeoffPoint point;
        point.totalBram = step.totalBram;
        point.peakBytesPerCycle = step.totalPeak;
        point.design = buildDesign(partition, states);
        points.push_back(std::move(point));
    }
    return points;
}

ComputePartition
partitionFromDesign(const model::MultiClpDesign &design,
                    const nn::Network &network)
{
    ComputePartition partition;
    for (const model::ClpConfig &clp : design.clps) {
        ComputeGroup group;
        group.shape = clp.shape;
        for (const model::LayerBinding &binding : clp.layers)
            group.layers.push_back(binding.layerIdx);
        group.dsp = model::clpDsp(clp.shape, design.dataType);
        group.cycles = model::clpComputeCycles(clp, network);
        partition.groups.push_back(std::move(group));
        partition.totalDsp += partition.groups.back().dsp;
    }
    return partition;
}

std::optional<model::MultiClpDesign>
retileDesign(const model::MultiClpDesign &design,
             const nn::Network &network,
             const fpga::ResourceBudget &budget)
{
    ComputePartition partition = partitionFromDesign(design, network);
    MemoryOptimizer memory(network, design.dataType);
    // Tiling never changes compute-bound cycles; accept any slowdown
    // only up to the budget's own evaluation (no extra target here).
    int64_t target = std::numeric_limits<int64_t>::max() / 4;
    return memory.optimize(partition, budget, target);
}

} // namespace core
} // namespace mclp
