#include <gtest/gtest.h>

#include <time.h>

#include <atomic>
#include <chrono>
#include <future>
#include <thread>
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

/** CPU time the calling thread has used, in milliseconds. */
double
threadCpuMs()
{
    timespec now{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &now);
    return static_cast<double>(now.tv_sec) * 1e3 +
           static_cast<double>(now.tv_nsec) / 1e6;
}

TEST(ThreadPool, WaitingCallerSleepsWhileAWorkerFinishes)
{
    // Two indices on a 2-thread pool: the caller's index returns only
    // once the worker holds the other, which then runs for 200 ms. The
    // caller has nothing left to run or steal, so it must sleep until
    // the worker completes the job, not spin through those 200 ms.
    util::ThreadPool pool(2);
    const std::thread::id caller = std::this_thread::get_id();
    std::promise<void> worker_started;
    std::shared_future<void> started = worker_started.get_future().share();
    double cpu_before = threadCpuMs();
    pool.parallelFor(2, [&](size_t) {
        if (std::this_thread::get_id() == caller) {
            started.wait();
            return;
        }
        worker_started.set_value();
        std::this_thread::sleep_for(std::chrono::milliseconds(200));
    });
    EXPECT_LT(threadCpuMs() - cpu_before, 50.0)
        << "the caller spins while the worker finishes its index";
}

TEST(ThreadPool, ResolveThreads)
{
    EXPECT_EQ(util::resolveThreads(3), 3);
    EXPECT_GE(util::resolveThreads(0), 1);
}

} // namespace
} // namespace mclp
