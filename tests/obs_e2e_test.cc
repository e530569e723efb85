/**
 * @file
 * End-to-end observability tests: attaching the trace/metrics/audit
 * sink must never change simulation results, the exported trace must
 * be byte-identical across runs (and across --jobs values), the
 * registry must agree with the legacy counter structs, and the audit
 * log must attribute injected HL events to the right proximate cause
 * against the device's ground-truth IoDetail annotations.
 */
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/ssdcheck.h"
#include "obs/audit_log.h"
#include "obs/registry.h"
#include "obs/sink.h"
#include "obs/trace_recorder.h"
#include "perf/grid.h"
#include "recovery/shard.h"
#include "ssd/presets.h"
#include "ssd/ssd_device.h"
#include "workload/snia_synth.h"
#include "workload/synthetic.h"

namespace ssdcheck::core {
namespace {

using recovery::evaluatePredictionAccuracy;

using ssd::makePreset;
using ssd::SsdDevice;
using ssd::SsdModel;

constexpr uint64_t kRequests = 30000;
constexpr uint64_t kSeed = 77;
// Homes is 90% writes; on a preconditioned device that reliably
// drives write-buffer flushes *and* GC, so traces cover every span
// family and the audit log sees a meaningful HL-miss population.
constexpr double kSniaScale = 0.05;

struct RunOutcome
{
    AccuracyResult acc;
    sim::SimTime end;
    ssd::VolumeCounters counters;
    std::string trace;
};

/** One full diagnose + replay, optionally with the sink attached. */
RunOutcome
runOnce(bool attach)
{
    SsdDevice dev(makePreset(SsdModel::A));
    // Diagnose on a clean twin so precondition() below starts from a
    // fresh mapper (same pattern as `ssdcheck run --trace-out`).
    SsdDevice cleanDev(makePreset(SsdModel::A));
    DiagnosisRunner runner(cleanDev, DiagnosisConfig{});
    const FeatureSet fs = runner.extractFeatures();
    EXPECT_TRUE(fs.bufferModelUsable());
    SsdCheck check(fs);

    obs::TraceRecorder recorder;
    obs::Registry registry;
    obs::AuditLog audit;
    const obs::Sink sink{&recorder, &registry, &audit};
    if (attach) {
        dev.attachObservability(sink);
        check.attachObservability(sink);
    }

    dev.precondition();
    const auto trace = workload::buildSniaTrace(
        workload::SniaWorkload::Homes, dev.capacityPages(), kSniaScale,
        kSeed);
    RunOutcome out;
    out.acc = evaluatePredictionAccuracy(dev, check, trace, runner.now(),
                                         &out.end, nullptr,
                                         attach ? &sink : nullptr);
    out.counters = dev.totalCounters();
    out.trace = recorder.toChromeJson();
    return out;
}

void
expectSameCounters(const ssd::VolumeCounters &a, const ssd::VolumeCounters &b)
{
    EXPECT_EQ(a.writes, b.writes);
    EXPECT_EQ(a.reads, b.reads);
    EXPECT_EQ(a.flushes, b.flushes);
    EXPECT_EQ(a.backpressureStalls, b.backpressureStalls);
    EXPECT_EQ(a.gcInvocations, b.gcInvocations);
    EXPECT_EQ(a.gcPagesMoved, b.gcPagesMoved);
    EXPECT_EQ(a.slcMigrations, b.slcMigrations);
    EXPECT_EQ(a.bufferHits, b.bufferHits);
}

TEST(ObsE2e, TracingOnOffIsBitIdentical)
{
    const RunOutcome off = runOnce(false);
    const RunOutcome on = runOnce(true);
    // The whole observability stack is passive: same confusion
    // counts, same virtual finish time, same device-side work.
    EXPECT_EQ(off.acc.nlTotal, on.acc.nlTotal);
    EXPECT_EQ(off.acc.nlCorrect, on.acc.nlCorrect);
    EXPECT_EQ(off.acc.hlTotal, on.acc.hlTotal);
    EXPECT_EQ(off.acc.hlCorrect, on.acc.hlCorrect);
    EXPECT_EQ(off.acc.faulted, on.acc.faulted);
    EXPECT_EQ(off.end, on.end);
    expectSameCounters(off.counters, on.counters);
    // Off means off: no events were captured without the attach.
    EXPECT_EQ(off.trace, "{\"traceEvents\":[\n],"
                         "\"displayTimeUnit\":\"ms\"}\n");
}

TEST(ObsE2e, TraceIsByteIdenticalAcrossRuns)
{
    const RunOutcome a = runOnce(true);
    const RunOutcome b = runOnce(true);
    ASSERT_FALSE(a.trace.empty());
    EXPECT_EQ(a.trace, b.trace);
    // The trace covers the full request path: host submit, device
    // dispatch, write buffer, GC, NAND, prediction.
    for (const char *name :
         {"host.request", "dev.request", "wb.enqueue", "wb.flush",
          "gc.trigger", "gc.run", "gc.migrate", "nand.read",
          "model.predict"})
        EXPECT_NE(a.trace.find(name), std::string::npos) << name;
}

TEST(ObsE2e, TraceIndependentOfJobs)
{
    // Four identical shards, each with its own recorder, run on 1
    // then 4 threads: per-shard traces must not depend on scheduling.
    const auto runBatch = [](unsigned jobs) {
        std::vector<std::string> traces(4);
        std::vector<std::pair<std::string, std::function<uint64_t()>>>
            tasks;
        for (size_t i = 0; i < traces.size(); ++i) {
            tasks.emplace_back("shard" + std::to_string(i),
                               [&traces, i]() -> uint64_t {
                                   traces[i] = runOnce(true).trace;
                                   return kRequests;
                               });
        }
        perf::runTimedBatch(tasks, jobs);
        return traces;
    };
    const std::vector<std::string> serial = runBatch(1);
    const std::vector<std::string> parallel = runBatch(4);
    ASSERT_EQ(serial.size(), parallel.size());
    for (size_t i = 0; i < serial.size(); ++i) {
        EXPECT_EQ(serial[i], parallel[i]) << "shard " << i;
        EXPECT_EQ(serial[i], serial[0]); // same config+seed everywhere
    }
}

TEST(ObsE2e, RegistryMatchesLegacyCounters)
{
    SsdDevice dev(makePreset(SsdModel::A));
    DiagnosisRunner runner(dev, DiagnosisConfig{});
    const FeatureSet fs = runner.extractFeatures();
    SsdCheck check(fs);
    obs::Registry registry;
    obs::Sink sink;
    sink.metrics = &registry;
    dev.attachObservability(sink);
    check.attachObservability(sink);

    const auto trace =
        workload::buildRwMixedTrace(kRequests, dev.capacityPages(), kSeed);
    evaluatePredictionAccuracy(dev, check, trace, runner.now());

    const obs::Labels devLabels = {{"device", dev.name()}};
    EXPECT_EQ(registry.value("dev_requests_served", devLabels),
              static_cast<int64_t>(dev.requestsServed()));
    const obs::Labels vol0 = {{"device", dev.name()}, {"volume", "0"}};
    const ssd::VolumeCounters &c = dev.volumeCounters(0);
    EXPECT_EQ(registry.value("vol_writes", vol0),
              static_cast<int64_t>(c.writes));
    EXPECT_EQ(registry.value("vol_reads", vol0),
              static_cast<int64_t>(c.reads));
    EXPECT_EQ(registry.value("vol_flushes", vol0),
              static_cast<int64_t>(c.flushes));
    EXPECT_EQ(registry.value("vol_gc_invocations", vol0),
              static_cast<int64_t>(c.gcInvocations));
    EXPECT_EQ(registry.value("fault_stalls", devLabels), 0);
    // Calibrator gauges surfaced (exact values are model-internal;
    // a calibrated run must at least have observed requests).
    ASSERT_TRUE(registry.value("cal_observations").has_value());
    EXPECT_GT(*registry.value("cal_observations"), 0);
}

TEST(ObsE2e, AuditAttributionMatchesDeviceGroundTruth)
{
    // No injected noise: every HL event is a flush or a GC, and the
    // device's IoDetail annotations say which. The audit log, which
    // only sees black-box observables, must agree on >= 90% of the
    // HL misses (the acceptance bar for the forensics pillar).
    ssd::SsdConfig cfg = makePreset(SsdModel::A);
    cfg.hiccupProbability = 0.0;
    SsdDevice dev(cfg);
    SsdDevice cleanDev(cfg);
    DiagnosisRunner runner(cleanDev, DiagnosisConfig{});
    const FeatureSet fs = runner.extractFeatures();
    ASSERT_TRUE(fs.bufferModelUsable());
    SsdCheck check(fs);

    obs::AuditLog audit;
    obs::Sink sink;
    sink.audit = &audit;
    check.attachObservability(sink);

    dev.precondition();
    const auto trace = workload::buildSniaTrace(
        workload::SniaWorkload::Homes, dev.capacityPages(), kSniaScale,
        kSeed);
    // Model-blind background writer: a second tenant the predictor
    // never sees. Its writes desynchronize the device's buffer fill
    // and GC progress from the model's counters, injecting flushes
    // and GC bursts at times the model does not expect — the forced
    // HL events the audit log must attribute. IoDetail is the
    // white-box ground truth for each audited request.
    std::vector<ssd::IoDetail::Cause> truth;
    truth.reserve(trace.size());
    sim::SimTime t = runner.now();
    uint64_t hiddenLpn = 1;
    size_t issued = 0;
    for (const auto &rec : trace.records()) {
        if (++issued % 24 == 0) {
            for (int k = 0; k < 2; ++k) {
                blockdev::IoRequest hidden;
                hidden.type = blockdev::IoType::Write;
                hidden.lba = (hiddenLpn % dev.capacityPages()) *
                             blockdev::kSectorsPerPage;
                hiddenLpn += 7919;
                t = dev.submit(hidden, t).completeTime;
            }
        }
        const Prediction pred = check.predict(rec.req, t);
        check.onSubmit(rec.req, t);
        ssd::IoDetail detail;
        const auto res = dev.submitDetailed(rec.req, t, &detail);
        check.onComplete(rec.req, pred, t, res.completeTime, res.status,
                         res.attempts);
        truth.push_back(detail.cause());
        t = res.completeTime;
    }
    ASSERT_EQ(audit.size(), truth.size());

    uint64_t misses = 0;
    uint64_t correct = 0;
    for (size_t i = 0; i < audit.size(); ++i) {
        if (!audit.records()[i].isHlMiss())
            continue;
        ++misses;
        const obs::AuditCause cause = audit.causeOf(i);
        switch (truth[i]) {
          case ssd::IoDetail::Cause::GarbageCollection:
            correct += cause == obs::AuditCause::GcDrift ? 1 : 0;
            break;
          case ssd::IoDetail::Cause::WriteBuffer:
            correct += cause == obs::AuditCause::UnmodeledFlush ? 1 : 0;
            break;
          case ssd::IoDetail::Cause::Others:
            // Nothing recognizable happened device-side; any verdict
            // but a confident wrong one is acceptable. Count the
            // honest answer.
            correct += cause == obs::AuditCause::Unknown ? 1 : 0;
            break;
        }
    }
    ASSERT_GT(misses, 20u) << "workload must produce HL misses to audit";
    EXPECT_GE(static_cast<double>(correct),
              0.9 * static_cast<double>(misses))
        << correct << "/" << misses << " attributed correctly";
    const obs::AuditReport rep = audit.analyze();
    EXPECT_EQ(rep.total, truth.size());
    EXPECT_EQ(rep.hlMisses, misses);
}

} // namespace
} // namespace ssdcheck::core
