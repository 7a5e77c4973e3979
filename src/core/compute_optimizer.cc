#include "core/compute_optimizer.h"

#include <algorithm>
#include <limits>

#include "model/cycle_model.h"
#include "model/dsp_model.h"
#include "util/logging.h"
#include "util/math.h"
#include "util/prof.h"

namespace mclp {
namespace core {

namespace {

constexpr int64_t kInfinity = std::numeric_limits<int64_t>::max() / 4;

} // namespace

ComputeOptimizer::ComputeOptimizer(const nn::Network &network,
                                   fpga::DataType type,
                                   std::vector<size_t> order, int max_clps,
                                   ComputeEngine engine,
                                   util::ThreadPool *pool,
                                   FrontierTable *shared_frontiers)
    : network_(network), type_(type), order_(std::move(order)),
      maxClps_(max_clps), engine_(engine), pool_(pool),
      sharedFrontiers_(shared_frontiers)
{
    if (order_.size() != network_.numLayers())
        util::fatal("ComputeOptimizer: order length %zu != layer count "
                    "%zu", order_.size(), network_.numLayers());
    if (maxClps_ < 1)
        util::fatal("ComputeOptimizer: max_clps must be >= 1");
    if (sharedFrontiers_ &&
        (sharedFrontiers_->order() != order_ ||
         sharedFrontiers_->maxClps() != maxClps_))
        util::fatal("ComputeOptimizer: shared FrontierTable was built "
                    "for a different order or CLP limit");
}

std::optional<ComputeOptimizer::RangeChoice>
ComputeOptimizer::bestShapeForRange(size_t i, size_t j,
                                    int64_t dsp_budget,
                                    int64_t cycle_target)
{
    // Per-layer dimensions for the range, gathered once.
    std::vector<const nn::ConvLayer *> layers;
    int64_t max_n = 0;
    int64_t max_m = 0;
    int64_t range_macs = 0;
    for (size_t p = i; p <= j; ++p) {
        const nn::ConvLayer &layer = network_.layer(order_[p]);
        layers.push_back(&layer);
        // Shapes never profit from exceeding the per-group extents: a
        // grouped layer only ever convolves N/G inputs to M/G outputs
        // at a time.
        max_n = std::max(max_n, layer.groupN());
        max_m = std::max(max_m, layer.groupM());
        range_macs += layer.macs();
    }

    int64_t units_budget = model::macBudget(dsp_budget, type_);
    // cycles >= macs / (Tn*Tm), so the target induces a unit floor.
    int64_t min_units = util::ceilDiv(range_macs, cycle_target);
    if (min_units > units_budget)
        return std::nullopt;

    // Cycles for the range with a given shape.
    auto rangeCycles = [&](int64_t tn, int64_t tm) {
        int64_t total = 0;
        for (const nn::ConvLayer *layer : layers) {
            total += layer->g * layer->r * layer->c *
                     util::ceilDiv(layer->groupN(), tn) *
                     util::ceilDiv(layer->groupM(), tm) * layer->k *
                     layer->k;
            if (total > cycle_target)
                return kInfinity;
        }
        return total;
    };

    std::optional<RangeChoice> best;
    int64_t tn_cap = std::min(max_n, units_budget);
    for (int64_t tn = 1; tn <= tn_cap; ++tn) {
        // Skip Tn values that do not change any ceil(N/Tn): they cost
        // at least as much DSP for identical cycle counts.
        if (tn > 1) {
            bool changes = false;
            for (const nn::ConvLayer *layer : layers) {
                if (util::ceilDiv(layer->groupN(), tn) !=
                    util::ceilDiv(layer->groupN(), tn - 1)) {
                    changes = true;
                    break;
                }
            }
            if (!changes)
                continue;
        }

        int64_t tm_cap = std::min(max_m, units_budget / tn);
        if (tm_cap < 1)
            break;
        // Prune: even the cheapest feasible Tm cannot beat the best.
        // (A tie is not pruned — it may still win on fewer cycles.)
        int64_t tm_floor = util::ceilDiv(min_units, tn);
        if (tm_floor > tm_cap)
            continue;
        if (best &&
            model::clpDsp({tn, tm_floor}, type_) > best->dsp)
            continue;
        if (rangeCycles(tn, tm_cap) > cycle_target)
            continue;  // infeasible even at the largest Tm

        // Cycles are non-increasing in Tm: binary search the minimum
        // feasible Tm in [tm_floor, tm_cap].
        int64_t lo = tm_floor;
        int64_t hi = tm_cap;
        while (lo < hi) {
            int64_t mid = lo + (hi - lo) / 2;
            if (rangeCycles(tn, mid) <= cycle_target)
                hi = mid;
            else
                lo = mid + 1;
        }
        model::ClpShape shape{tn, lo};
        int64_t dsp = model::clpDsp(shape, type_);
        if (dsp > dsp_budget)
            continue;
        int64_t cycles = rangeCycles(tn, lo);
        if (!best || dsp < best->dsp ||
            (dsp == best->dsp && cycles < best->cycles)) {
            best = RangeChoice{shape, dsp, cycles};
        }
    }
    return best;
}

void
ComputeOptimizer::fillRangesReference(
    std::vector<std::vector<std::optional<RangeChoice>>> &range,
    int max_k, int64_t dsp_budget, int64_t cycle_target)
{
    size_t count = order_.size();
    for (size_t i = 0; i < count; ++i) {
        for (size_t j = i; j < count; ++j) {
            bool usable = (i == 0 && j == count - 1) ||
                          (max_k >= 2 && (i == 0 || j == count - 1)) ||
                          max_k >= 3;
            if (!usable)
                continue;
            range[i][j] = bestShapeForRange(i, j, dsp_budget,
                                            cycle_target);
            // Longer ranges only add work; once infeasible at full
            // budget, every extension is too.
            if (!range[i][j] && !(i == 0 && j + 1 == count)) {
                break;
            }
        }
    }
}

void
ComputeOptimizer::fillRangesFrontier(
    std::vector<std::vector<std::optional<RangeChoice>>> &range,
    int max_k, int64_t dsp_budget, int64_t cycle_target)
{
    FrontierTable *table = sharedFrontiers_;
    if (!table) {
        if (!frontiers_)
            frontiers_.emplace(network_, type_, order_, maxClps_);
        table = &*frontiers_;
    }
    // Tables lock per row (and choose() self-heals rows a concurrent
    // run rebuilt), so concurrent requests on one session's shared
    // table (a server's crew threads) never serialize behind one
    // mutex. A run's heuristics each get their own table, keyed by
    // layer order, and share at most the row store. prepare() can fan
    // out over the pool even when shared: tasks hold only their own
    // row's lock and never steal while holding it, so the
    // help-while-waiting pool cannot re-enter a held mutex.
    table->prepare(dsp_budget, cycle_target, pool_);

    // Frontier-build work triggered from inside choose() (a row the
    // prepare pass stopped short of) charges FrontierBuild, not this
    // scope — the profiler attributes self time.
    util::prof::Scope prof_scope(util::prof::Phase::FrontierQuery);
    size_t count = order_.size();
    for (size_t i = 0; i < count; ++i) {
        for (size_t j = i; j < count; ++j) {
            auto point = table->choose(i, j, dsp_budget, cycle_target);
            if (!point)
                continue;
            range[i][j] = RangeChoice{point->shape, point->dsp,
                                      point->cycles};
        }
    }
    (void)max_k;  // the frontier table already encodes range usability
}

std::vector<ComputePartition>
ComputeOptimizer::optimize(int64_t dsp_budget, int64_t cycle_target)
{
    if (dsp_budget <= 0 || cycle_target <= 0)
        util::fatal("ComputeOptimizer::optimize: budget and target must "
                    "be positive");
    if (dsp_budget == lastBudget_ && cycle_target == lastTarget_)
        return lastCandidates_;

    size_t count = order_.size();
    int max_k = std::min<int>(maxClps_, static_cast<int>(count));

    // Range table: best[i][j] = min-DSP shape for order_[i..j]. Only
    // ranges a <= max_k partition can actually use are filled: with
    // one CLP only the full span matters, with two CLPs a span must
    // touch one end of the order. Scratch tables persist across calls
    // (the target search probes this dozens of times per run).
    auto &range = rangeScratch_;
    range.resize(count);
    for (auto &row : range) {
        row.assign(count, std::nullopt);
    }
    if (engine_ == ComputeEngine::Frontier)
        fillRangesFrontier(range, max_k, dsp_budget, cycle_target);
    else
        fillRangesReference(range, max_k, dsp_budget, cycle_target);

    // DP over prefixes: cost[k][e] = min total DSP covering the first
    // e ordered layers with exactly k CLPs.
    auto &cost = costScratch_;
    auto &prev = prevScratch_;
    cost.resize(static_cast<size_t>(max_k) + 1);
    prev.resize(static_cast<size_t>(max_k) + 1);
    for (auto &row : cost)
        row.assign(count + 1, kInfinity);
    for (auto &row : prev)
        row.assign(count + 1, 0);
    cost[0][0] = 0;
    for (int k = 1; k <= max_k; ++k) {
        for (size_t e = 1; e <= count; ++e) {
            size_t b_min = static_cast<size_t>(k - 1) < e
                               ? static_cast<size_t>(k - 1)
                               : e;
            for (size_t b = b_min; b < e; ++b) {
                if (cost[k - 1][b] >= kInfinity)
                    continue;
                const auto &choice = range[b][e - 1];
                if (!choice)
                    continue;
                int64_t total = cost[k - 1][b] + choice->dsp;
                if (total < cost[k][e]) {
                    cost[k][e] = total;
                    prev[k][e] = b;
                }
            }
        }
    }

    // One candidate per feasible CLP count, cheapest DSP first.
    std::vector<ComputePartition> candidates;
    for (int k = 1; k <= max_k; ++k) {
        if (cost[k][count] > dsp_budget)
            continue;
        ComputePartition partition;
        partition.totalDsp = cost[k][count];
        size_t e = count;
        std::vector<std::pair<size_t, size_t>> spans;
        for (int kk = k; kk >= 1; --kk) {
            size_t b = prev[kk][e];
            spans.emplace_back(b, e - 1);
            e = b;
        }
        std::reverse(spans.begin(), spans.end());
        for (auto [b, last] : spans) {
            const auto &choice = range[b][last];
            if (!choice)
                util::panic("ComputeOptimizer: DP reconstructed an "
                            "infeasible range");
            ComputeGroup group;
            group.shape = choice->shape;
            group.dsp = choice->dsp;
            group.cycles = choice->cycles;
            for (size_t p = b; p <= last; ++p)
                group.layers.push_back(order_[p]);
            partition.groups.push_back(std::move(group));
        }
        candidates.push_back(std::move(partition));
    }
    std::stable_sort(candidates.begin(), candidates.end(),
                     [](const ComputePartition &a,
                        const ComputePartition &b) {
                         return a.totalDsp < b.totalDsp;
                     });
    lastBudget_ = dsp_budget;
    lastTarget_ = cycle_target;
    lastCandidates_ = candidates;
    return candidates;
}

} // namespace core
} // namespace mclp
