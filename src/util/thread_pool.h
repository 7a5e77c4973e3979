/**
 * @file
 * A small work-stealing thread pool for the optimizer's embarrassingly
 * parallel stages (frontier construction across layer ranges, the
 * independent ordering-heuristic runs).
 *
 * Parallel loops are published as jobs on a shared board; idle workers
 * steal iteration indices from the oldest unfinished job through an
 * atomic cursor, so load balances at index granularity without
 * per-iteration locking. A caller whose own indices are all claimed
 * helps with other jobs' unclaimed indices, so nested parallelFor
 * calls (a heuristic task fanning out frontier builds) cannot
 * deadlock, and sleeps on the pool's condition variable while none
 * are left, until its job's last index completes or a job with
 * unclaimed indices appears: a straggler's wait costs no core. A
 * 1-thread pool degenerates to plain serial execution on the caller.
 */

#ifndef MCLP_UTIL_THREAD_POOL_H
#define MCLP_UTIL_THREAD_POOL_H

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace mclp {
namespace util {

class ThreadPool
{
  public:
    /**
     * @param threads worker count; 0 picks the hardware concurrency.
     * A pool of 1 spawns no OS threads: every task runs inline on the
     * submitting thread, which keeps single-threaded runs bitwise
     * deterministic and cheap.
     */
    explicit ThreadPool(int threads = 0);
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Number of threads that can make progress (workers + caller). */
    size_t size() const { return workers_.size() + 1; }

    /**
     * Run fn(0), ..., fn(n - 1), possibly concurrently, returning when
     * all calls finished. The caller participates, and indices are
     * handed out through a shared counter, so any schedule covers every
     * index exactly once. fn must not throw.
     */
    void parallelFor(size_t n, const std::function<void(size_t)> &fn);

  private:
    struct Job
    {
        size_t n = 0;
        const std::function<void(size_t)> *fn = nullptr;
        std::atomic<size_t> next{0};
        std::atomic<size_t> done{0};
    };

    void workerLoop(size_t self);
    /** Run @p job's unclaimed indices; the thread completing its last
     * index wakes the job's waiting caller. */
    void runJob(Job &job);

    /** Oldest job with unclaimed indices, excluding @p except. */
    std::shared_ptr<Job> stealLocked(const Job *except);

    std::vector<std::thread> workers_;
    std::mutex mutex_;
    std::condition_variable wake_;
    std::deque<std::shared_ptr<Job>> jobs_;  ///< active jobs
    bool stop_ = false;
};

/** Resolve a thread-count option: 0 = hardware concurrency, min 1. */
int resolveThreads(int threads);

} // namespace util
} // namespace mclp

#endif // MCLP_UTIL_THREAD_POOL_H
