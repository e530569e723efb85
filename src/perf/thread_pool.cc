#include "perf/thread_pool.h"

#include <algorithm>
#include <utility>

namespace ssdcheck::perf {

ThreadPool::ThreadPool(unsigned threads)
{
    if (threads == 0)
        threads = 1;
    workers_.reserve(threads);
    for (unsigned i = 0; i < threads; ++i)
        workers_.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        core::MutexLock lock(mu_);
        stop_ = true;
    }
    taskReady_.notify_all();
    for (auto &w : workers_)
        w.join();
}

unsigned
ThreadPool::defaultJobs()
{
    // hardware_concurrency() is allowed to return 0 ("unknown");
    // a zero-thread pool would deadlock submit/wait, so clamp.
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : hw;
}

unsigned
ThreadPool::workersFor(unsigned jobs, size_t tasks)
{
    return static_cast<unsigned>(
        std::max<size_t>(1, std::min<size_t>(jobs, tasks)));
}

void
ThreadPool::submit(std::function<void()> task)
{
    {
        core::MutexLock lock(mu_);
        queue_.push_back(std::move(task));
        ++unfinished_;
    }
    taskReady_.notify_one();
}

void
ThreadPool::wait()
{
    core::MutexLock lock(mu_);
    while (unfinished_ != 0)
        allDone_.wait(mu_);
    if (firstError_ != nullptr) {
        std::exception_ptr err = firstError_;
        firstError_ = nullptr;
        std::rethrow_exception(err);
    }
}

void
ThreadPool::workerLoop()
{
    for (;;) {
        std::function<void()> task;
        {
            core::MutexLock lock(mu_);
            while (!stop_ && queue_.empty())
                taskReady_.wait(mu_);
            if (queue_.empty())
                return; // stop_ and drained
            task = std::move(queue_.front());
            queue_.pop_front();
        }
        try {
            task();
        } catch (...) {
            core::MutexLock lock(mu_);
            if (firstError_ == nullptr)
                firstError_ = std::current_exception();
        }
        {
            core::MutexLock lock(mu_);
            if (--unfinished_ == 0)
                allDone_.notify_all();
        }
    }
}

void
parallelFor(ThreadPool &pool, size_t n,
            const std::function<void(size_t)> &fn)
{
    for (size_t i = 0; i < n; ++i)
        pool.submit([&fn, i] { fn(i); });
    pool.wait();
}

} // namespace ssdcheck::perf
