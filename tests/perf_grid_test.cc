/**
 * @file
 * Tests for perf/thread_pool.h and perf/grid.h: pool semantics, the
 * timed-batch engine, the BENCH_grid.json writer/reader pair, and the
 * golden determinism guarantees (same results at any job count, same
 * results run-to-run).
 */
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <stdexcept>

#include "perf/grid.h"
#include "perf/thread_pool.h"
#include "ssd/ssd_device.h"
#include "usecases/runner.h"
#include "workload/snia_synth.h"

namespace ssdcheck::perf {
namespace {

TEST(ThreadPoolTest, DefaultJobsIsAtLeastOne)
{
    EXPECT_GE(ThreadPool::defaultJobs(), 1u);
}

TEST(ThreadPoolTest, ZeroRequestedThreadsClampsToOne)
{
    ThreadPool pool(0);
    EXPECT_EQ(pool.threads(), 1u);
}

TEST(ThreadPoolTest, RunsEverySubmittedTask)
{
    ThreadPool pool(4);
    std::atomic<int> ran{0};
    for (int i = 0; i < 100; ++i)
        pool.submit([&ran]() { ran.fetch_add(1); });
    pool.wait();
    EXPECT_EQ(ran.load(), 100);
}

TEST(ThreadPoolTest, WaitRethrowsTaskException)
{
    ThreadPool pool(2);
    pool.submit([]() { throw std::runtime_error("task boom"); });
    EXPECT_THROW(pool.wait(), std::runtime_error);
}

TEST(ThreadPoolTest, UsableAgainAfterWait)
{
    ThreadPool pool(2);
    std::atomic<int> ran{0};
    pool.submit([&ran]() { ran.fetch_add(1); });
    pool.wait();
    pool.submit([&ran]() { ran.fetch_add(1); });
    pool.wait();
    EXPECT_EQ(ran.load(), 2);
}

TEST(ThreadPoolTest, ParallelForCoversEveryIndexOnce)
{
    ThreadPool pool(4);
    std::vector<std::atomic<int>> hits(257);
    parallelFor(pool, hits.size(),
                [&hits](size_t i) { hits[i].fetch_add(1); });
    for (size_t i = 0; i < hits.size(); ++i)
        EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(TimedBatchTest, KeepsSubmissionOrderAndCounts)
{
    std::vector<std::pair<std::string, std::function<uint64_t()>>> tasks;
    for (int i = 0; i < 8; ++i)
        tasks.emplace_back("task" + std::to_string(i),
                           [i]() { return static_cast<uint64_t>(i); });
    const BatchTiming timing = runTimedBatch(tasks, 3);
    ASSERT_EQ(timing.tasks.size(), 8u);
    EXPECT_EQ(timing.jobs, 3u);
    for (int i = 0; i < 8; ++i) {
        EXPECT_EQ(timing.tasks[i].label, "task" + std::to_string(i));
        EXPECT_EQ(timing.tasks[i].simulatedIos,
                  static_cast<uint64_t>(i));
    }
    EXPECT_EQ(timing.simulatedIos(), 0u + 1 + 2 + 3 + 4 + 5 + 6 + 7);
    EXPECT_GE(timing.wallSeconds, 0.0);
}

TEST(TimedBatchTest, StartsNoMoreWorkersThanTasks)
{
    std::vector<std::pair<std::string, std::function<uint64_t()>>> tasks;
    for (int i = 0; i < 3; ++i)
        tasks.emplace_back("task" + std::to_string(i),
                           []() { return uint64_t{1}; });
    const BatchTiming timing = runTimedBatch(tasks, 16);
    EXPECT_EQ(timing.jobs, 16u);
    EXPECT_EQ(timing.workerThreads, 3u);
    EXPECT_EQ(timing.simulatedIos(), 3u);
    EXPECT_EQ(ThreadPool::workersFor(16, 0), 1u);
}

TEST(BenchGridJsonTest, WriterAndBaselineReaderRoundTrip)
{
    BatchTiming timing;
    timing.jobs = 2;
    timing.wallSeconds = 2.0;
    timing.tasks.push_back(TaskTiming{"a", 1.0, 1000});
    timing.tasks.push_back(TaskTiming{"b", 1.0, 3000});

    const std::string path = ::testing::TempDir() + "bench_grid_rt.json";
    ASSERT_TRUE(writeBenchGridJson(path, "unit", timing));
    const auto back = readBaselineIosPerSec(path);
    ASSERT_TRUE(back.has_value());
    // Aggregate: 4000 IOs over 2.0s wall — not a per-task value.
    EXPECT_NEAR(*back, 2000.0, 1e-3);
    std::remove(path.c_str());
}

TEST(BenchGridJsonTest, MissingBaselineFileIsEmpty)
{
    EXPECT_FALSE(
        readBaselineIosPerSec("/nonexistent/bench.json").has_value());
}

TEST(BenchGridJsonTest, NonFiniteOrNonPositiveBaselineIsEmpty)
{
    // Each of these would put the gate floor at NaN, zero or below
    // zero, where no measurement can fail it.
    const std::string path = ::testing::TempDir() + "bench_grid_bad.json";
    for (const char *value : {"nan", "-nan", "inf", "0", "-5", "abc"}) {
        {
            std::ofstream f(path);
            f << "{\"ios_per_sec\": " << value << "}\n";
        }
        EXPECT_FALSE(readBaselineIosPerSec(path).has_value()) << value;
    }
    {
        std::ofstream f(path);
        f << "{\"ios_per_sec\": 2500000.5}\n";
    }
    const auto ok = readBaselineIosPerSec(path);
    ASSERT_TRUE(ok.has_value());
    EXPECT_DOUBLE_EQ(*ok, 2500000.5);
    std::remove(path.c_str());
}

/** Small two-device grid used by the determinism tests. */
GridSpec
smallSpec()
{
    GridSpec s;
    s.models = {ssd::SsdModel::A, ssd::SsdModel::D};
    s.workloads = {workload::SniaWorkload::TPCE,
                   workload::SniaWorkload::Build};
    s.scale = 0.005;
    return s;
}

void
expectCellsIdentical(const GridResult &a, const GridResult &b)
{
    ASSERT_EQ(a.cells.size(), b.cells.size());
    for (size_t i = 0; i < a.cells.size(); ++i) {
        const GridCell &x = a.cells[i];
        const GridCell &y = b.cells[i];
        EXPECT_EQ(x.model, y.model) << "cell " << i;
        EXPECT_EQ(x.workload, y.workload) << "cell " << i;
        EXPECT_EQ(x.seed, y.seed) << "cell " << i;
        EXPECT_EQ(x.requests, y.requests) << "cell " << i;
        // Integer counters make "bit-identical" checkable exactly.
        EXPECT_EQ(x.accuracy.nlTotal, y.accuracy.nlTotal) << "cell " << i;
        EXPECT_EQ(x.accuracy.nlCorrect, y.accuracy.nlCorrect)
            << "cell " << i;
        EXPECT_EQ(x.accuracy.hlTotal, y.accuracy.hlTotal) << "cell " << i;
        EXPECT_EQ(x.accuracy.hlCorrect, y.accuracy.hlCorrect)
            << "cell " << i;
        EXPECT_EQ(x.accuracy.faulted, y.accuracy.faulted) << "cell " << i;
        EXPECT_EQ(x.simEnd, y.simEnd) << "cell " << i;
    }
}

TEST(GridDeterminismTest, CellsInGridOrderWithExpectedCoordinates)
{
    const GridResult r = runGrid(smallSpec(), 2);
    ASSERT_EQ(r.cells.size(), 4u);
    EXPECT_EQ(r.cells[0].model, ssd::SsdModel::A);
    EXPECT_EQ(r.cells[0].workload, workload::SniaWorkload::TPCE);
    EXPECT_EQ(r.cells[1].model, ssd::SsdModel::A);
    EXPECT_EQ(r.cells[1].workload, workload::SniaWorkload::Build);
    EXPECT_EQ(r.cells[2].model, ssd::SsdModel::D);
    EXPECT_EQ(r.cells[3].model, ssd::SsdModel::D);
    ASSERT_EQ(r.timing.tasks.size(), 2u); // one shard per device
    EXPECT_GT(r.cells[0].requests, 0u);
    EXPECT_EQ(r.timing.simulatedIos(), r.cells[0].requests +
                                           r.cells[1].requests +
                                           r.cells[2].requests +
                                           r.cells[3].requests);
}

TEST(GridDeterminismTest, SerialAndParallelRunsAreBitIdentical)
{
    const GridResult serial = runGrid(smallSpec(), 1);
    const GridResult parallel = runGrid(smallSpec(), 4);
    expectCellsIdentical(serial, parallel);
}

TEST(GridDeterminismTest, RepeatedRunsAreBitIdentical)
{
    const GridResult first = runGrid(smallSpec(), 2);
    const GridResult second = runGrid(smallSpec(), 2);
    expectCellsIdentical(first, second);
}

TEST(GridDeterminismTest, SeedsProduceDistinctShards)
{
    GridSpec s = smallSpec();
    s.models = {ssd::SsdModel::A};
    s.seeds = {0, 1};
    const GridResult r = runGrid(s, 2);
    ASSERT_EQ(r.cells.size(), 4u);
    EXPECT_EQ(r.cells[0].seed, 0u);
    EXPECT_EQ(r.cells[2].seed, 1u);
    EXPECT_EQ(r.timing.tasks.size(), 2u);
    EXPECT_NE(r.timing.tasks[1].label.find("seed1"), std::string::npos);
}

/**
 * Golden determinism at the replay level: the exact same closed-loop
 * run gives the exact same latency timeline and GC counters. This is
 * the property the bucketed victim selection must not disturb.
 */
TEST(GoldenDeterminismTest, ClosedLoopReplayIsExactlyRepeatable)
{
    auto once = [](std::vector<sim::SimDuration> *latencies,
                   ssd::VolumeCounters *counters) {
        ssd::SsdDevice dev(ssd::makePreset(ssd::SsdModel::A));
        dev.precondition();
        const auto trace = workload::buildSniaTrace(
            workload::SniaWorkload::Homes, dev.capacityPages(), 0.05, 99);
        const auto res = usecases::runClosedLoop(
            {{.trace = &trace, .dev = &dev}}, sim::SimTime{0})[0];
        *latencies = res.latency.sorted();
        *counters = dev.totalCounters();
    };
    std::vector<sim::SimDuration> lat1, lat2;
    ssd::VolumeCounters c1, c2;
    once(&lat1, &c1);
    once(&lat2, &c2);

    ASSERT_FALSE(lat1.empty());
    ASSERT_EQ(lat1.size(), lat2.size());
    EXPECT_EQ(lat1, lat2);
    EXPECT_GT(c1.gcInvocations, 0u);
    EXPECT_EQ(c1.gcInvocations, c2.gcInvocations);
    EXPECT_EQ(c1.gcBlocksErased, c2.gcBlocksErased);
    EXPECT_EQ(c1.gcPagesMoved, c2.gcPagesMoved);
    EXPECT_EQ(c1.writes, c2.writes);
    EXPECT_EQ(c1.flushes, c2.flushes);
}

} // namespace
} // namespace ssdcheck::perf
