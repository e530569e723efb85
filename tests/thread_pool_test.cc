/**
 * @file
 * ThreadPool unit + stress tests. The stress cases are the ones the
 * CI TSan job runs: N producers hammering submit() while workers
 * throw and complete concurrently, plus teardown with a full queue.
 */
#include <atomic>
#include <cstdio>
#include <fstream>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "perf/grid.h"
#include "perf/thread_pool.h"

namespace perf = ssdcheck::perf;

TEST(ThreadPool, DefaultJobsIsAtLeastOne)
{
    // hardware_concurrency() may legally return 0 ("unknown"); a
    // zero-worker pool would deadlock every submit/wait.
    EXPECT_GE(perf::ThreadPool::defaultJobs(), 1u);
}

TEST(ThreadPool, ZeroRequestedThreadsClampedToOne)
{
    perf::ThreadPool pool(0);
    EXPECT_EQ(pool.threads(), 1u);
    std::atomic<int> ran{0};
    pool.submit([&] { ++ran; });
    pool.wait();
    EXPECT_EQ(ran.load(), 1);
}

TEST(ThreadPool, RunsEveryTaskExactlyOnce)
{
    perf::ThreadPool pool(4);
    constexpr int kTasks = 2000;
    std::vector<std::atomic<int>> hits(kTasks);
    for (int i = 0; i < kTasks; ++i)
        pool.submit([&hits, i] { ++hits[i]; });
    pool.wait();
    for (int i = 0; i < kTasks; ++i)
        EXPECT_EQ(hits[i].load(), 1) << "task " << i;
}

TEST(ThreadPool, StressProducersWithThrowingTasks)
{
    // 6 producer threads × 300 tasks racing 4 workers; roughly one
    // task in five throws (deterministically, from per-producer
    // seeded RNGs). Every task must run exactly once, wait() must
    // rethrow exactly one of the thrown exceptions, and a second
    // wait() must come back clean.
    constexpr int kProducers = 6;
    constexpr int kPerProducer = 300;
    perf::ThreadPool pool(4);
    std::atomic<int> completed{0};
    std::atomic<int> thrown{0};

    std::vector<std::thread> producers;
    producers.reserve(kProducers);
    for (int p = 0; p < kProducers; ++p)
        producers.emplace_back([&, p] {
            std::mt19937 rng(0xC0FFEE + static_cast<unsigned>(p));
            for (int t = 0; t < kPerProducer; ++t) {
                const bool throws = rng() % 5 == 0;
                pool.submit([&, throws] {
                    if (throws) {
                        ++thrown;
                        throw std::runtime_error("planted task failure");
                    }
                    ++completed;
                });
            }
        });
    for (auto &p : producers)
        p.join();

    EXPECT_THROW(pool.wait(), std::runtime_error);
    EXPECT_EQ(completed.load() + thrown.load(), kProducers * kPerProducer);
    EXPECT_GT(thrown.load(), 0);

    // Rethrow-once: the error slot was consumed by the first wait().
    EXPECT_NO_THROW(pool.wait());

    // The pool stays serviceable after task exceptions.
    std::atomic<int> after{0};
    for (int i = 0; i < 64; ++i)
        pool.submit([&] { ++after; });
    EXPECT_NO_THROW(pool.wait());
    EXPECT_EQ(after.load(), 64);
}

TEST(ThreadPool, DestructorDrainsQueuedTasks)
{
    // Destroy the pool while most tasks are still queued: the workers
    // must finish the backlog before joining (documented contract).
    std::atomic<int> ran{0};
    constexpr int kTasks = 500;
    {
        perf::ThreadPool pool(2);
        for (int i = 0; i < kTasks; ++i)
            pool.submit([&] { ++ran; });
    }
    EXPECT_EQ(ran.load(), kTasks);
}

TEST(ThreadPool, ParallelForCoversAllIndices)
{
    perf::ThreadPool pool(3);
    constexpr size_t kN = 1000;
    std::vector<std::atomic<int>> hits(kN);
    perf::parallelFor(pool, kN, [&](size_t i) { ++hits[i]; });
    for (size_t i = 0; i < kN; ++i)
        ASSERT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ThreadPool, BatchTimingReportsActualWorkerCount)
{
    // As many tasks as jobs: a pool starts no more workers than tasks.
    std::vector<std::pair<std::string, std::function<uint64_t()>>> tasks;
    tasks.emplace_back("one", [] { return uint64_t{7}; });
    tasks.emplace_back("two", [] { return uint64_t{0}; });
    tasks.emplace_back("three", [] { return uint64_t{0}; });
    const perf::BatchTiming t = perf::runTimedBatch(tasks, 3);
    EXPECT_EQ(t.jobs, 3u);
    EXPECT_EQ(t.workerThreads, 3u);
    EXPECT_EQ(t.simulatedIos(), 7u);

    // Jobs 0 is clamped exactly like the pool clamps it.
    const perf::BatchTiming t0 = perf::runTimedBatch(tasks, 0);
    EXPECT_EQ(t0.jobs, 1u);
    EXPECT_EQ(t0.workerThreads, 1u);
}

TEST(ThreadPool, BenchGridJsonCarriesWorkerThreads)
{
    std::vector<std::pair<std::string, std::function<uint64_t()>>> tasks;
    tasks.emplace_back("cell", [] { return uint64_t{11}; });
    tasks.emplace_back("cell2", [] { return uint64_t{0}; });
    const perf::BatchTiming t = perf::runTimedBatch(tasks, 2);

    const std::string path =
        testing::TempDir() + "/ssdcheck_worker_threads.json";
    ASSERT_TRUE(perf::writeBenchGridJson(path, "unit", t));
    std::ifstream is(path);
    std::stringstream ss;
    ss << is.rdbuf();
    EXPECT_NE(ss.str().find("\"worker_threads\": 2"), std::string::npos)
        << ss.str();
    std::remove(path.c_str());
}
