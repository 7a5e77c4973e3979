#include "util/thread_pool.h"

#include <algorithm>

namespace mclp {
namespace util {

int
resolveThreads(int threads)
{
    if (threads > 0)
        return threads;
    unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? static_cast<int>(hw) : 1;
}

ThreadPool::ThreadPool(int threads)
{
    int count = resolveThreads(threads);
    workers_.reserve(static_cast<size_t>(count - 1));
    for (int t = 1; t < count; ++t)
        workers_.emplace_back([this, t] {
            workerLoop(static_cast<size_t>(t));
        });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stop_ = true;
    }
    wake_.notify_all();
    for (std::thread &worker : workers_)
        worker.join();
}

void
ThreadPool::runJob(Job &job)
{
    // Once next >= n every index is claimed, so runJob returns without
    // touching fn; only the Job header must outlive the loop, which the
    // board's shared_ptr guarantees.
    for (;;) {
        size_t i = job.next.fetch_add(1, std::memory_order_relaxed);
        if (i >= job.n)
            return;
        (*job.fn)(i);
        if (job.done.fetch_add(1, std::memory_order_acq_rel) + 1 == job.n) {
            // The caller checks done under the mutex before it sleeps,
            // so taking the mutex here orders this wake after that
            // check: the wake cannot be lost.
            std::lock_guard<std::mutex> lock(mutex_);
            wake_.notify_all();
        }
    }
}

std::shared_ptr<ThreadPool::Job>
ThreadPool::stealLocked(const Job *except)
{
    for (const std::shared_ptr<Job> &job : jobs_) {
        if (job.get() != except &&
            job->next.load(std::memory_order_relaxed) < job->n) {
            return job;
        }
    }
    return nullptr;
}

void
ThreadPool::workerLoop(size_t)
{
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
        // Take the job in the same look that found it. The submitting
        // thread claims indices without the lock, so a job seen with
        // work left may be exhausted by the time of a second look;
        // a null take means "go back to waiting", never a dereference.
        std::shared_ptr<Job> job;
        wake_.wait(lock, [&] {
            job = stealLocked(nullptr);
            return stop_ || job != nullptr;
        });
        if (stop_)
            return;
        lock.unlock();
        runJob(*job);
        job.reset();
        lock.lock();
    }
}

void
ThreadPool::parallelFor(size_t n, const std::function<void(size_t)> &fn)
{
    if (n == 0)
        return;
    if (workers_.empty() || n == 1) {
        for (size_t i = 0; i < n; ++i)
            fn(i);
        return;
    }

    auto job = std::make_shared<Job>();
    job->n = n;
    job->fn = &fn;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        jobs_.push_back(job);
    }
    wake_.notify_all();

    // Claim our own indices first, then steal from other active jobs
    // while stragglers finish ours (keeps nested loops deadlock free
    // and this thread useful), and sleep while there is nothing to
    // steal: the last index of our job, or a newly posted job, wakes
    // us.
    runJob(*job);
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
        std::shared_ptr<Job> other;
        wake_.wait(lock, [&] {
            if (job->done.load(std::memory_order_acquire) == n)
                return true;
            other = stealLocked(job.get());
            return other != nullptr;
        });
        if (!other)
            break;
        lock.unlock();
        runJob(*other);
        other.reset();
        lock.lock();
    }
    jobs_.erase(std::find(jobs_.begin(), jobs_.end(), job));
}

} // namespace util
} // namespace mclp
