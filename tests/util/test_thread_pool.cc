#include <gtest/gtest.h>

#include <atomic>
#include <vector>

#include "util/thread_pool.h"

namespace mclp {
namespace {

TEST(ThreadPool, CoversEveryIndexExactlyOnce)
{
    util::ThreadPool pool(4);
    EXPECT_EQ(pool.size(), 4u);
    std::vector<std::atomic<int>> hits(1000);
    pool.parallelFor(hits.size(), [&](size_t i) {
        hits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (const auto &hit : hits)
        EXPECT_EQ(hit.load(), 1);
}

TEST(ThreadPool, SingleThreadRunsInline)
{
    util::ThreadPool pool(1);
    EXPECT_EQ(pool.size(), 1u);
    std::vector<int> order;
    pool.parallelFor(5, [&](size_t i) {
        // With no workers the caller runs everything, in order, so an
        // unsynchronized vector is safe here.
        order.push_back(static_cast<int>(i));
    });
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ThreadPool, NestedParallelForDoesNotDeadlock)
{
    util::ThreadPool pool(4);
    std::atomic<int> total{0};
    pool.parallelFor(8, [&](size_t) {
        pool.parallelFor(8, [&](size_t) {
            total.fetch_add(1, std::memory_order_relaxed);
        });
    });
    EXPECT_EQ(total.load(), 64);
}

TEST(ThreadPool, SequentialLoopsReuseWorkers)
{
    util::ThreadPool pool(3);
    for (int round = 0; round < 50; ++round) {
        std::atomic<int> count{0};
        pool.parallelFor(17, [&](size_t) {
            count.fetch_add(1, std::memory_order_relaxed);
        });
        ASSERT_EQ(count.load(), 17);
    }
}

TEST(ThreadPool, TinyLoopsNeverHandAWorkerAnExhaustedJob)
{
    // Two indices on a 3-thread pool: the caller often claims both
    // before a woken worker looks again, so a worker must cope with
    // finding the job it was woken for already exhausted.
    util::ThreadPool pool(3);
    for (int round = 0; round < 20000; ++round) {
        std::atomic<int> count{0};
        pool.parallelFor(2, [&](size_t) {
            count.fetch_add(1, std::memory_order_relaxed);
        });
        ASSERT_EQ(count.load(), 2) << "round " << round;
    }
}

TEST(ThreadPool, ResolveThreads)
{
    EXPECT_EQ(util::resolveThreads(3), 3);
    EXPECT_GE(util::resolveThreads(0), 1);
}

} // namespace
} // namespace mclp
