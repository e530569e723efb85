/**
 * @file
 * A fixed-size thread pool for sharding independent simulations.
 *
 * Deliberately work-stealing-free: one shared FIFO queue behind one
 * mutex. Grid shards are coarse (an entire device diagnosis plus
 * workload replay each, hundreds of milliseconds to minutes), so queue
 * contention is irrelevant and the simple design keeps scheduling
 * deterministic in everything except completion order — which the
 * grid layer never depends on, because each task writes only to its
 * own result slot.
 *
 * Determinism contract: tasks must not share mutable state. Every
 * simulation shard owns its device and RNG (seeded from the grid
 * coordinates), so results are identical at any job count.
 *
 * All cross-thread state is annotated with the Clang thread-safety
 * capabilities from core/annotations.h and checked by
 * -Werror=thread-safety on Clang builds.
 */
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <thread>
#include <vector>

#include "core/annotations.h"

namespace ssdcheck::perf {

/** Fixed pool of worker threads draining one shared task queue. */
class ThreadPool
{
  public:
    /**
     * @param threads worker count; 0 is clamped to 1. Pass
     *        defaultJobs() to match the machine.
     */
    explicit ThreadPool(unsigned threads);

    /** Drains remaining tasks, then joins the workers. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Enqueue one task. Thread-safe. */
    void submit(std::function<void()> task) SSDCHECK_EXCLUDES(mu_);

    /**
     * Block until every submitted task has finished. Rethrows the
     * first exception any task threw (subsequent ones are dropped).
     */
    void wait() SSDCHECK_EXCLUDES(mu_);

    /** Worker count. */
    unsigned threads() const { return static_cast<unsigned>(workers_.size()); }

    /** Hardware concurrency, clamped to at least 1. */
    static unsigned defaultJobs();

    /** Pool size for @p tasks tasks at @p jobs requested jobs: no more
     *  workers than tasks, and at least one. */
    static unsigned workersFor(unsigned jobs, size_t tasks);

  private:
    void workerLoop() SSDCHECK_EXCLUDES(mu_);

    core::Mutex mu_;
    /** Paired with mu_ (condition_variable_any over the annotated
     *  Mutex; waits are explicit while-loops inside the capability). */
    std::condition_variable_any taskReady_;
    std::condition_variable_any allDone_;
    std::deque<std::function<void()>> queue_ SSDCHECK_GUARDED_BY(mu_);
    std::exception_ptr firstError_ SSDCHECK_GUARDED_BY(mu_);
    /** Queued + currently running tasks. */
    size_t unfinished_ SSDCHECK_GUARDED_BY(mu_) = 0;
    bool stop_ SSDCHECK_GUARDED_BY(mu_) = false;
    std::vector<std::thread> workers_; ///< Written only in ctor/dtor.
};

/**
 * Run @p fn(0 .. n-1) across the pool and wait for completion.
 * Indices are claimed in order; results must go to per-index storage.
 */
void parallelFor(ThreadPool &pool, size_t n,
                 const std::function<void(size_t)> &fn);

} // namespace ssdcheck::perf
