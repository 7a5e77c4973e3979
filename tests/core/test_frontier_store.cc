/**
 * @file
 * Per-row locking and the shared frontier-row store must be invisible
 * in answers: choose() without prepare() self-heals to the same
 * result, concurrent queries at interleaved budgets and targets match
 * a serial table bit for bit, growing the units cap mid-stream only
 * rebuilds lazily (never changing answers), and store-shared tables
 * answer exactly like private ones. Rows leave the store by ownership:
 * a shared row goes with its last table, and a rebuild at a larger
 * cap hands the old-cap rows back.
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/layer_order.h"
#include "core/shape_frontier.h"
#include "model/dsp_model.h"
#include "nn/zoo.h"
#include "test_helpers.h"
#include "util/thread_pool.h"

namespace mclp {
namespace {

struct Query
{
    size_t i = 0;
    size_t j = 0;
    int64_t dsp = 0;
    int64_t target = 0;
};

std::vector<Query>
queryMix(const nn::Network &network, const std::vector<size_t> &order,
         core::FrontierTable &reference)
{
    // Probe targets around what each range can actually achieve so
    // both feasible and infeasible queries appear.
    std::vector<Query> queries;
    std::vector<int64_t> budgets{240, 800, 2240, 2880};
    size_t count = order.size();
    for (int64_t dsp : budgets) {
        for (size_t i = 0; i < count; ++i) {
            for (size_t j = i; j < count; ++j) {
                for (int64_t target :
                     {int64_t{20000}, int64_t{300000},
                      int64_t{3000000}}) {
                    auto point =
                        reference.choose(i, j, dsp, target);
                    (void)point;
                    queries.push_back({i, j, dsp, target});
                }
            }
        }
    }
    (void)network;
    return queries;
}

TEST(FrontierTable, ConcurrentInterleavedBudgetsMatchSerial)
{
    nn::Network network = nn::makeAlexNet();
    fpga::DataType type = fpga::DataType::Float32;
    std::vector<size_t> order =
        core::orderLayers(network, core::OrderHeuristic::NmDistance);

    // Serial reference answers.
    core::FrontierTable serial(network, type, order, 6);
    serial.reserveUnits(model::macBudget(2880, type));
    std::vector<Query> queries = queryMix(network, order, serial);
    std::vector<std::optional<core::FrontierPoint>> expected;
    expected.reserve(queries.size());
    for (const Query &q : queries)
        expected.push_back(serial.choose(q.i, q.j, q.dsp, q.target));

    // Concurrent shared table, no prepare(), interleaved budgets.
    core::FrontierTable shared(network, type, order, 6);
    shared.reserveUnits(model::macBudget(2880, type));
    std::vector<std::optional<core::FrontierPoint>> got(
        queries.size());
    util::ThreadPool pool(4);
    pool.parallelFor(queries.size(), [&](size_t qi) {
        const Query &q = queries[qi];
        got[qi] = shared.choose(q.i, q.j, q.dsp, q.target);
    });

    for (size_t qi = 0; qi < queries.size(); ++qi) {
        ASSERT_EQ(got[qi].has_value(), expected[qi].has_value())
            << "query " << qi;
        if (got[qi]) {
            EXPECT_TRUE(got[qi]->shape == expected[qi]->shape)
                << "query " << qi;
            EXPECT_EQ(got[qi]->dsp, expected[qi]->dsp);
            EXPECT_EQ(got[qi]->cycles, expected[qi]->cycles);
        }
    }
}

TEST(FrontierTable, LazyCapGrowthNeverChangesAnswers)
{
    nn::Network network = nn::makeAlexNet();
    fpga::DataType type = fpga::DataType::Float32;
    std::vector<size_t> order =
        core::orderLayers(network, core::OrderHeuristic::NmDistance);

    core::FrontierTable grown(network, type, order, 6);
    // Answer small-budget queries first (rows built at a small cap)…
    grown.prepare(240, 3000000, nullptr);
    auto small_before = grown.choose(0, 3, 240, 3000000);
    // …then jump the cap: touched rows rebuild lazily and answers at
    // both budgets must match single-cap tables.
    grown.reserveUnits(model::macBudget(9600, type));
    auto big = grown.choose(0, 3, 9600, 300000);
    auto small_after = grown.choose(0, 3, 240, 3000000);

    core::FrontierTable fresh(network, type, order, 6);
    fresh.reserveUnits(model::macBudget(9600, type));
    auto big_fresh = fresh.choose(0, 3, 9600, 300000);
    auto small_fresh = fresh.choose(0, 3, 240, 3000000);

    ASSERT_EQ(big.has_value(), big_fresh.has_value());
    if (big) {
        EXPECT_TRUE(big->shape == big_fresh->shape);
    }
    ASSERT_EQ(small_after.has_value(), small_fresh.has_value());
    ASSERT_EQ(small_after.has_value(), small_before.has_value());
    if (small_after) {
        EXPECT_TRUE(small_after->shape == small_fresh->shape);
        EXPECT_TRUE(small_after->shape == small_before->shape);
        EXPECT_EQ(small_after->cycles, small_before->cycles);
    }
}

TEST(FrontierRowStore, SharedTablesAnswerLikePrivateOnes)
{
    nn::Network network = nn::makeSqueezeNet();
    fpga::DataType type = fpga::DataType::Fixed16;
    std::vector<size_t> order = core::orderLayers(
        network, core::OrderHeuristic::ComputeToData);
    int64_t units = model::macBudget(2880, type);

    core::FrontierTable private_table(network, type, order, 6);
    private_table.reserveUnits(units);

    auto store = std::make_shared<core::FrontierRowStore>();
    auto shared_a = std::make_unique<core::FrontierTable>(
        network, type, order, 6, store);
    auto shared_b = std::make_unique<core::FrontierTable>(
        network, type, order, 6, store);
    shared_a->reserveUnits(units);
    shared_b->reserveUnits(units);

    size_t count = order.size();
    for (size_t i = 0; i < count; i += 3) {
        for (size_t j = i; j < count; j += 2) {
            for (int64_t target : {int64_t{60000}, int64_t{900000}}) {
                auto expected =
                    private_table.choose(i, j, 2880, target);
                auto got_a = shared_a->choose(i, j, 2880, target);
                auto got_b = shared_b->choose(i, j, 2880, target);
                ASSERT_EQ(got_a.has_value(), expected.has_value());
                ASSERT_EQ(got_b.has_value(), expected.has_value());
                if (expected) {
                    EXPECT_TRUE(got_a->shape == expected->shape);
                    EXPECT_TRUE(got_b->shape == expected->shape);
                    EXPECT_EQ(got_a->cycles, expected->cycles);
                    EXPECT_EQ(got_b->cycles, expected->cycles);
                }
            }
        }
    }

    // The second table answered (mostly) from rows the first built:
    // SqueezeNet's fire modules repeat dims, so hits dominate.
    core::FrontierRowStore::Stats stats = store->stats();
    EXPECT_GT(stats.hits, 0u);
    EXPECT_GT(stats.rows, 0u);
    EXPECT_GT(store->memoryBytes(), 0u);

    // Release by ownership: dropping both tables hands every row back
    // and empties the store, byte total included — no purge call.
    shared_a.reset();
    shared_b.reset();
    EXPECT_EQ(store->stats().rows, 0u);
    EXPECT_EQ(store->memoryBytes(), 0u);
}

/** Run choose() over every range from row 0 at @p dsp_budget. */
void
queryRowZero(core::FrontierTable &table, int64_t dsp_budget)
{
    for (size_t j = 0; j < table.size(); ++j)
        table.choose(0, j, dsp_budget, 900000);
}

/** Run choose() over every range of @p table at @p dsp_budget. */
void
queryAll(core::FrontierTable &table, int64_t dsp_budget)
{
    for (size_t i = 0; i < table.size(); ++i)
        for (size_t j = i; j < table.size(); ++j)
            table.choose(i, j, dsp_budget, 900000);
}

TEST(FrontierRowStore, SharedRowOutlivesItsFirstTableAndLeavesWithItsLast)
{
    nn::Network network = nn::makeSqueezeNet();
    fpga::DataType type = fpga::DataType::Fixed16;
    std::vector<size_t> order = core::orderLayers(
        network, core::OrderHeuristic::ComputeToData);
    int64_t units = model::macBudget(2880, type);

    // Reference: what the narrow query mix holds in a store of its own.
    auto alone = std::make_shared<core::FrontierRowStore>();
    core::FrontierTable reference(network, type, order, 6, alone);
    reference.reserveUnits(units);
    queryRowZero(reference, 2880);

    // A wide table holds every row; a narrow one shares a subset.
    auto store = std::make_shared<core::FrontierRowStore>();
    auto wide = std::make_unique<core::FrontierTable>(network, type, order,
                                                      6, store);
    auto narrow = std::make_unique<core::FrontierTable>(network, type,
                                                        order, 6, store);
    wide->reserveUnits(units);
    narrow->reserveUnits(units);
    queryAll(*wide, 2880);
    queryRowZero(*narrow, 2880);
    size_t shared_rows = store->stats().rows;

    // The wide table dies first: exactly the rows the narrow table
    // also holds survive it…
    wide.reset();
    EXPECT_LT(store->stats().rows, shared_rows);
    EXPECT_EQ(store->stats().rows, alone->stats().rows);
    EXPECT_EQ(store->memoryBytes(), alone->memoryBytes());

    // …and leave with the narrow one, their last table.
    narrow.reset();
    EXPECT_EQ(store->stats().rows, 0u);
    EXPECT_EQ(store->memoryBytes(), 0u);
}

TEST(FrontierTable, RebuildAtLargerCapReleasesOldCapRows)
{
    nn::Network network = nn::makeAlexNet();
    fpga::DataType type = fpga::DataType::Float32;
    std::vector<size_t> order =
        core::orderLayers(network, core::OrderHeuristic::NmDistance);

    // Row 0 built at a small cap, then rebuilt at a larger one…
    auto store = std::make_shared<core::FrontierRowStore>();
    core::FrontierTable grown(network, type, order, 6, store);
    queryRowZero(grown, 240);
    ASSERT_GT(store->stats().rows, 0u);
    grown.reserveUnits(model::macBudget(2880, type));
    queryRowZero(grown, 2880);

    // …holds exactly what a table built at the larger cap holds: the
    // rebuild handed every old-cap row back.
    auto fresh_store = std::make_shared<core::FrontierRowStore>();
    core::FrontierTable fresh(network, type, order, 6, fresh_store);
    fresh.reserveUnits(model::macBudget(2880, type));
    queryRowZero(fresh, 2880);
    EXPECT_EQ(store->stats().rows, fresh_store->stats().rows);
    EXPECT_EQ(store->memoryBytes(), fresh_store->memoryBytes());
}

TEST(FrontierTable, ExhaustedRowsDropTheirBuilders)
{
    // A loose target extends every row to its last range, and a row
    // complete to its last range builds no more: the table then holds
    // its frontier handles and no builder's grid.
    nn::Network network = nn::makeAlexNet();
    fpga::DataType type = fpga::DataType::Float32;
    std::vector<size_t> order =
        core::orderLayers(network, core::OrderHeuristic::NmDistance);
    size_t count = order.size();
    auto store = std::make_shared<core::FrontierRowStore>();
    core::FrontierTable table(network, type, order, 6, store);
    size_t unbuilt = table.memoryBytes();
    table.prepare(2880, core::kUnboundedResources, nullptr);
    ASSERT_GT(store->stats().misses, 0u);
    // Six CLPs make every range usable: row i holds count - i handles,
    // each a shared_ptr into the store (which counts the staircases).
    size_t handles = count * (count + 1) / 2;
    EXPECT_EQ(table.memoryBytes(),
              unbuilt + handles *
                            sizeof(std::shared_ptr<const core::ShapeFrontier>));
}

} // namespace
} // namespace mclp
