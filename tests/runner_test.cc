/** @file Unit tests for usecases/runner.h (replay engines). */
#include <gtest/gtest.h>

#include <algorithm>

#include "core/ssdcheck.h"
#include "ssd/ssd_device.h"
#include "usecases/lvm.h"
#include "usecases/pas.h"
#include "usecases/runner.h"
#include "usecases/scheduler.h"
#include "workload/synthetic.h"

namespace ssdcheck::usecases {
namespace {

using sim::microseconds;
using sim::milliseconds;

ssd::SsdConfig
cfg()
{
    ssd::SsdConfig c;
    c.userCapacityPages = 8192;
    c.bufferBytes = 8 * 4096;
    c.planesPerVolume = 4;
    c.pagesPerBlock = 8;
    c.jitterSigma = 0.0;
    c.hiccupProbability = 0.0;
    return c;
}

/** FNV-1a over a stream's sorted latencies and its end time: pins
 *  every sample of a run without listing them. */
uint64_t
digest(const StreamResult &s)
{
    uint64_t h = 1469598103934665603ULL;
    auto mix = [&h](int64_t v) {
        for (int i = 0; i < 8; ++i) {
            h ^= static_cast<uint64_t>(v >> (8 * i)) & 0xffU;
            h *= 1099511628211ULL;
        }
    };
    for (const sim::SimDuration lat : s.latency.sorted())
        mix(lat);
    mix(s.endTime.ns());
    return h;
}

TEST(ClosedLoopRunnerTest, RunsWholeTrace)
{
    ssd::SsdDevice dev(cfg());
    dev.precondition();
    const auto trace = workload::buildRandomWriteTrace(2000, 8192, 1);
    const StreamResult res = runClosedLoop(
        {{.trace = &trace, .dev = &dev, .queueDepth = 4}}, sim::kTimeZero)[0];
    EXPECT_EQ(res.requests, 2000u);
    EXPECT_EQ(res.latency.count(), 2000u);
    EXPECT_EQ(res.bytes, 2000u * 4096);
    EXPECT_GT(res.endTime, res.startTime);
    EXPECT_GT(res.throughputMbps(), 0.0);
}

TEST(ClosedLoopRunnerTest, ThinktimeSlowsTheStream)
{
    ssd::SsdDevice dev1(cfg()), dev2(cfg());
    const auto trace = workload::buildRandomWriteTrace(500, 8192, 1);
    const auto fast =
        runClosedLoop({{.trace = &trace, .dev = &dev1}}, sim::kTimeZero)[0];
    const auto slow = runClosedLoop(
        {{.trace = &trace, .dev = &dev2, .thinktime = microseconds(500)}},
        sim::kTimeZero)[0];
    EXPECT_GT(slow.endTime - slow.startTime,
              fast.endTime - fast.startTime);
}

TEST(ClosedLoopRunnerTest, HigherQueueDepthRaisesThroughput)
{
    ssd::SsdDevice dev1(cfg()), dev2(cfg());
    dev1.precondition();
    dev2.precondition();
    workload::MixedTraceParams p;
    p.requests = 3000;
    p.writeFraction = 0.0; // reads exploit the parallel read pipeline
    p.spanPages = 8192;
    const auto trace = workload::buildMixedTrace(p, "r");
    const auto qd1 =
        runClosedLoop({{.trace = &trace, .dev = &dev1}}, sim::kTimeZero)[0];
    const auto qd8 = runClosedLoop(
        {{.trace = &trace, .dev = &dev2, .queueDepth = 8}}, sim::kTimeZero)[0];
    EXPECT_GT(qd8.throughputMbps(), qd1.throughputMbps() * 1.5);
}

TEST(ClosedLoopRunnerTest, SeparatesReadAndWriteLatencies)
{
    ssd::SsdDevice dev(cfg());
    dev.precondition();
    const auto trace = workload::buildRwMixedTrace(2000, 8192, 2);
    const StreamResult res =
        runClosedLoop({{.trace = &trace, .dev = &dev}}, sim::kTimeZero)[0];
    EXPECT_GT(res.readLatency.count(), 0u);
    EXPECT_GT(res.writeLatency.count(), 0u);
    EXPECT_EQ(res.readLatency.count() + res.writeLatency.count(),
              res.latency.count());
}

TEST(ClosedLoopRunnerTest, QueueDepthEightIsPinned)
{
    // No figure drives runClosedLoop above QD1; this pins a QD8 run
    // with thinktime, sample by sample.
    ssd::SsdDevice dev(cfg());
    dev.precondition();
    const auto trace = workload::buildRwMixedTrace(3000, 8192, 21);
    const StreamResult res = runClosedLoop({{.trace = &trace,
                                             .dev = &dev,
                                             .thinktime = microseconds(20),
                                             .queueDepth = 8}},
                                           sim::kTimeZero)[0];
    EXPECT_EQ(res.requests, 3000u);
    EXPECT_EQ(res.endTime.ns(), 419098500);
    EXPECT_EQ(digest(res), 8099702339842981219ULL);
}

TEST(TenantRunnerTest, TenantsInterleaveOnOneDevice)
{
    ssd::SsdDevice dev(cfg());
    dev.precondition();
    const auto t1 = workload::buildRandomWriteTrace(1000, 4096, 3);
    auto t2 = workload::buildMixedTrace(
        []() {
            workload::MixedTraceParams p;
            p.requests = 1000;
            p.writeFraction = 0.0;
            p.spanPages = 4096;
            p.seed = 4;
            return p;
        }(),
        "reads");
    const auto results =
        runClosedLoop({{.trace = &t1, .dev = &dev, .name = "writer"},
                       {.trace = &t2, .dev = &dev, .name = "reader"}},
                      sim::kTimeZero);
    ASSERT_EQ(results.size(), 2u);
    EXPECT_EQ(results[0].requests, 1000u);
    EXPECT_EQ(results[1].requests, 1000u);
    EXPECT_EQ(results[0].name, "writer");
    // Both ran concurrently: spans overlap.
    EXPECT_GT(results[0].endTime, sim::kTimeZero);
    EXPECT_GT(results[1].endTime, sim::kTimeZero);
    // The QD1 interleave (earliest ready first, ties to the lower
    // index), pinned sample by sample.
    EXPECT_EQ(results[0].endTime.ns(), 266864000);
    EXPECT_EQ(digest(results[0]), 1573247448146315313ULL);
    EXPECT_EQ(results[1].endTime.ns(), 345805000);
    EXPECT_EQ(digest(results[1]), 4507574104285408957ULL);
}

/** Forwards to a device and records every submit time. */
class RecordingDevice : public blockdev::BlockDevice
{
  public:
    explicit RecordingDevice(blockdev::BlockDevice &inner) : inner_(inner)
    {
    }
    blockdev::IoResult submit(const blockdev::IoRequest &req,
                              sim::SimTime now) override
    {
        submits.push_back(now);
        return inner_.submit(req, now);
    }
    uint64_t capacitySectors() const override
    {
        return inner_.capacitySectors();
    }
    void purge(sim::SimTime now) override { inner_.purge(now); }
    std::string name() const override { return "recording"; }

    std::vector<sim::SimTime> submits;

  private:
    blockdev::BlockDevice &inner_;
};

TEST(TenantRunnerTest, DeepStreamBesideALoopingTenant)
{
    // A QD8 reader beside a looping QD1 writer on two linear views of
    // one device: every submit reaches the device in time order, and
    // the deep stream finishes its whole trace.
    ssd::SsdDevice ssd(cfg());
    ssd.precondition();
    RecordingDevice dev(ssd);
    const auto vols = makeLinearVolumes(dev, 2);
    workload::MixedTraceParams p;
    p.requests = 2000;
    p.writeFraction = 0.0;
    p.spanPages = 4096;
    p.seed = 16;
    const auto reads = workload::buildMixedTrace(p, "reads");
    const auto writes = workload::buildRandomWriteTrace(300, 4096, 17);
    const auto results = runClosedLoop(
        {{.trace = &reads, .dev = vols[0].get(), .queueDepth = 8},
         {.trace = &writes, .dev = vols[1].get(), .loop = true}},
        sim::kTimeZero);
    ASSERT_EQ(results.size(), 2u);
    EXPECT_EQ(results[0].requests, 2000u);
    EXPECT_EQ(results[0].latency.count(), 2000u);
    EXPECT_GT(results[1].requests, writes.size()); // the writer looped
    ASSERT_EQ(dev.submits.size(), results[0].requests + results[1].requests);
    EXPECT_TRUE(std::is_sorted(dev.submits.begin(), dev.submits.end()));
}

TEST(ScheduledRunnerTest, CompletesAllArrivalsAndMeasuresQueueing)
{
    ssd::SsdDevice dev(cfg());
    dev.precondition();
    auto trace = workload::buildRwMixedTrace(2000, 8192, 5);
    sim::Rng rng(6);
    trace.assignPoissonArrivals(5000.0, rng);
    NoopScheduler sched;
    const auto res = runScheduled(dev, sched, trace, sim::kTimeZero, nullptr);
    EXPECT_EQ(res.stream.requests, 2000u);
    EXPECT_EQ(res.schedulerName, "noop");
    EXPECT_GE(res.maxQueueDepth, 1u);
    // Queueing latency can only exceed pure device latency.
    EXPECT_GT(res.stream.latency.mean(), 0.0);
}

TEST(ScheduledRunnerTest, OverloadGrowsQueue)
{
    ssd::SsdDevice dev(cfg());
    dev.precondition();
    auto trace = workload::buildRandomWriteTrace(3000, 8192, 7);
    sim::Rng rng(8);
    trace.assignPoissonArrivals(1e6, rng); // far beyond service rate
    NoopScheduler sched;
    const auto res = runScheduled(dev, sched, trace, sim::kTimeZero, nullptr);
    EXPECT_GT(res.maxQueueDepth, 100u);
}

TEST(ScheduledRunnerTest, WiderDispatchRaisesReadThroughput)
{
    // Read-only arrivals above QD1 service capacity: a wider dispatch
    // window exploits the device's parallel read pipeline.
    auto run = [&](uint32_t width) {
        ssd::SsdDevice dev(cfg());
        dev.precondition();
        workload::MixedTraceParams p;
        p.requests = 4000;
        p.writeFraction = 0.0;
        p.spanPages = 8192;
        p.seed = 12;
        auto trace = workload::buildMixedTrace(p, "r");
        sim::Rng rng(13);
        trace.assignPoissonArrivals(30000.0, rng);
        NoopScheduler sched;
        const auto res =
            runScheduled(dev, sched, trace, sim::kTimeZero, nullptr, width);
        return res.stream.endTime - res.stream.startTime;
    };
    EXPECT_LT(run(8), run(1));
}

TEST(ScheduledRunnerTest, WideDispatchCompletesEverything)
{
    ssd::SsdDevice dev(cfg());
    dev.precondition();
    auto trace = workload::buildRwMixedTrace(3000, 8192, 14);
    sim::Rng rng(15);
    trace.assignPoissonArrivals(8000.0, rng);
    DeadlineScheduler sched;
    const auto res = runScheduled(dev, sched, trace, sim::kTimeZero, nullptr, 4);
    EXPECT_EQ(res.stream.requests, 3000u);
}

TEST(ScheduledRunnerTest, WidePasDispatchIsPinned)
{
    // No figure drives runScheduled above width 1; this pins PAS at
    // width 4 with the model fed through every completion.
    ssd::SsdDevice dev(cfg());
    dev.precondition();
    core::FeatureSet fs;
    fs.bufferBytes = 8 * 4096;
    fs.bufferType = core::BufferTypeFeature::Back;
    fs.flushAlgorithms.fullTrigger = true;
    fs.observedFlushOverheadNs = milliseconds(2);
    core::SsdCheck check(fs);
    auto trace = workload::buildRwMixedTrace(3000, 8192, 22);
    sim::Rng rng(23);
    trace.assignPoissonArrivals(8000.0, rng);
    PasScheduler sched(check);
    const auto res =
        runScheduled(dev, sched, trace, sim::kTimeZero, &check, 4);
    EXPECT_EQ(res.stream.requests, 3000u);
    EXPECT_EQ(res.maxQueueDepth, 279u);
    EXPECT_EQ(check.calibrator().observations(), 3000u);
    EXPECT_EQ(res.stream.endTime.ns(), 440748769);
    EXPECT_EQ(digest(res.stream), 7450685606043227067ULL);
}

TEST(ScheduledRunnerTest, PasRunScoresEveryCompletion)
{
    ssd::SsdDevice dev(cfg());
    dev.precondition();
    core::FeatureSet fs;
    fs.bufferBytes = 8 * 4096;
    fs.bufferType = core::BufferTypeFeature::Back;
    fs.flushAlgorithms.fullTrigger = true;
    fs.observedFlushOverheadNs = milliseconds(2);
    core::SsdCheck check(fs);
    auto trace = workload::buildRwMixedTrace(2000, 8192, 24);
    sim::Rng rng(25);
    trace.assignPoissonArrivals(5000.0, rng);
    PasScheduler sched(check);
    (void)runScheduled(dev, sched, trace, sim::kTimeZero, &check);
    const core::AccuracyResult &acc = check.accuracy();
    EXPECT_EQ(acc.nlTotal + acc.hlTotal + acc.faulted, trace.size());
    EXPECT_GT(acc.hlTotal, 0u);
}

TEST(ScheduledRunnerTest, IdlePeriodsAreSkipped)
{
    ssd::SsdDevice dev(cfg());
    auto trace = workload::buildRandomWriteTrace(10, 1024, 9);
    sim::Rng rng(10);
    trace.assignPoissonArrivals(10.0, rng); // ~100ms gaps
    NoopScheduler sched;
    const auto res = runScheduled(dev, sched, trace, sim::kTimeZero, nullptr);
    EXPECT_EQ(res.stream.requests, 10u);
    // Makespan is dominated by arrival gaps, not service.
    EXPECT_GT(res.stream.endTime, sim::kTimeZero + milliseconds(100));
}

} // namespace
} // namespace ssdcheck::usecases
