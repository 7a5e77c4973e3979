#include "core/dse_session.h"

#include <algorithm>
#include <cstdlib>

#include "model/dsp_model.h"
#include "util/logging.h"
#include "util/string_utils.h"

namespace mclp {
namespace core {

DseCaches::DseCaches(const nn::Network &network, fpga::DataType type,
                     std::shared_ptr<FrontierRowStore> store,
                     std::shared_ptr<FrontierCache> cache)
    : network_(network), type_(type), store_(std::move(store)),
      tilings_(std::make_shared<TilingOptionCache>()),
      curves_(std::make_shared<TradeoffCurveCache>(std::move(cache)))
{
}

FrontierTable &
DseCaches::frontierTable(const nn::Network &network, fpga::DataType type,
                         const std::vector<size_t> &order, int max_clps)
{
    if (&network != &network_ || type != type_)
        util::fatal("DseCaches: caches were created for %s; reuse "
                    "across networks or data types is not allowed",
                    network_.name().c_str());
    std::lock_guard<std::mutex> lock(mutex_);
    auto key = std::make_pair(order, max_clps);
    auto it = frontiers_.find(key);
    if (it == frontiers_.end()) {
        it = frontiers_
                 .emplace(std::move(key),
                          std::make_unique<FrontierTable>(
                              network_, type_, order, max_clps, store_))
                 .first;
    }
    FrontierTable &table = *it->second;
    // Apply the session's reservation so the table is built once at
    // the largest announced budget (see reserveDspBudget()).
    table.reserveUnits(unitsCap_);
    return table;
}

void
DseCaches::reserveDspBudget(int64_t dsp_budget)
{
    int64_t units = model::macBudget(dsp_budget, type_);
    std::lock_guard<std::mutex> lock(mutex_);
    if (units <= unitsCap_)
        return;
    unitsCap_ = units;
    for (auto &entry : frontiers_)
        entry.second->reserveUnits(unitsCap_);
}

size_t
DseCaches::memoryBytes()
{
    size_t bytes = tilings_->memoryBytes() + curves_->memoryBytes();
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto &entry : frontiers_) {
        bytes += entry.first.first.capacity() * sizeof(size_t) +
                 entry.second->memoryBytes();
    }
    return bytes;
}

DseSession::DseSession(const nn::Network &network, fpga::DataType type,
                       std::shared_ptr<FrontierRowStore> store,
                       std::shared_ptr<FrontierCache> cache)
    : network_(network), type_(type),
      caches_(std::make_shared<DseCaches>(network, type,
                                          std::move(store),
                                          std::move(cache)))
{
}

OptimizationResult
DseSession::optimize(const fpga::ResourceBudget &budget,
                     OptimizerOptions options) const
{
    caches_->reserveDspBudget(budget.dspSlices);
    options.caches = caches_;
    return MultiClpOptimizer(network_, type_, budget, options).run();
}

std::vector<OptimizationResult>
DseSession::sweep(const std::vector<fpga::ResourceBudget> &budgets,
                  OptimizerOptions options) const
{
    // Reserve the whole ladder's maximum before the first run so the
    // shared frontier tables are built exactly once, at a cap every
    // rung reads a prefix of.
    for (const fpga::ResourceBudget &budget : budgets)
        caches_->reserveDspBudget(budget.dspSlices);

    // Rungs run in order, each fanning its heuristics and frontier
    // rows out over options.pool. ROADMAP item 9 has ladder timings
    // against running the rungs concurrently, one per pool thread.
    std::vector<OptimizationResult> results;
    results.reserve(budgets.size());
    for (const fpga::ResourceBudget &budget : budgets)
        results.push_back(optimize(budget, options));
    return results;
}

std::vector<TradeoffPoint>
DseSession::tradeoffCurve(const ComputePartition &partition) const
{
    MemoryOptimizer memory(network_, type_, caches_->tilings(),
                           caches_->curves());
    return memory.tradeoffCurve(partition);
}

std::vector<fpga::ResourceBudget>
dspLadder(const std::vector<int64_t> &dsp_budgets, double frequency_mhz,
          double dsp_per_bram, const fpga::ResourceBudget *base)
{
    std::vector<fpga::ResourceBudget> budgets;
    budgets.reserve(dsp_budgets.size());
    for (int64_t dsp : dsp_budgets) {
        fpga::ResourceBudget budget;
        if (base)
            budget = *base;
        budget.dspSlices = dsp;
        if (!base)
            budget.bram18k = std::max<int64_t>(
                1, static_cast<int64_t>(static_cast<double>(dsp) /
                                        dsp_per_bram));
        budget.frequencyMhz = frequency_mhz;
        budgets.push_back(budget);
    }
    return budgets;
}

std::vector<int64_t>
parseDspLadderSpec(const std::string &spec)
{
    std::vector<int64_t> budgets;
    if (spec.find(':') != std::string::npos) {
        auto parts = util::split(spec, ':');
        if (parts.size() != 3)
            util::fatal("DSP ladder range wants LO:HI:STEP, got '%s'",
                        spec.c_str());
        int64_t lo = std::atoll(parts[0].c_str());
        int64_t hi = std::atoll(parts[1].c_str());
        int64_t step = std::atoll(parts[2].c_str());
        if (lo <= 0 || hi < lo || step <= 0)
            util::fatal("DSP ladder range '%s': need 0 < LO <= HI and "
                        "STEP > 0", spec.c_str());
        for (int64_t dsp = lo; dsp <= hi; dsp += step)
            budgets.push_back(dsp);
        return budgets;
    }
    for (const std::string &item : util::split(spec, ',')) {
        int64_t dsp = std::atoll(item.c_str());
        if (dsp <= 0)
            util::fatal("DSP ladder list: bad DSP count '%s'",
                        item.c_str());
        budgets.push_back(dsp);
    }
    if (budgets.empty())
        util::fatal("DSP ladder list '%s' is empty", spec.c_str());
    return budgets;
}

} // namespace core
} // namespace mclp
