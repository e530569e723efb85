/**
 * @file End-to-end fault-resilience tests (the PR's acceptance
 * criteria):
 *
 *  1. Transient read errors are retried by the host's ResilientDevice
 *     and their tainted completions never pollute the calibrator's
 *     EWMA estimates.
 *  2. Grown bad blocks (program/erase failures) measurably increase
 *     GC frequency on the same workload at the same seed.
 *  3. A mid-run firmware-drift event degrades rolling HL accuracy and
 *     the calibrator responds through the existing rolling-accuracy
 *     machinery — with predict() returning well-formed NL answers
 *     throughout (no crash, no hang, no poisoned estimate).
 */
#include <gtest/gtest.h>

#include "blockdev/resilient_device.h"
#include "core/ssdcheck.h"
#include "recovery/shard.h"
#include "ssd/presets.h"
#include "ssd/ssd_device.h"
#include "usecases/runner.h"
#include "workload/synthetic.h"

namespace ssdcheck {
namespace {

using blockdev::IoStatus;
using blockdev::makeRead4k;
using blockdev::ResilientDevice;
using core::FeatureSet;
using core::Prediction;
using core::SsdCheck;
using sim::microseconds;
using sim::milliseconds;

/** Minimal usable feature set (mirrors ssdcheck_facade_test). */
FeatureSet
usableFeatures()
{
    FeatureSet fs;
    fs.bufferBytes = 16 * 4096;
    fs.bufferType = core::BufferTypeFeature::Back;
    fs.flushAlgorithms.fullTrigger = true;
    fs.observedFlushOverheadNs = milliseconds(1);
    return fs;
}

/** Small single-seed device config for fault experiments. */
ssd::SsdConfig
e2eCfg()
{
    ssd::SsdConfig c;
    c.userCapacityPages = 16 * 1024;
    c.volumeBits = {10};
    c.bufferBytes = 8 * 4096;
    c.planesPerVolume = 4;
    c.pagesPerBlock = 8;
    c.opRatio = 0.3;
    c.gcLowBlocks = 3;
    c.gcHighBlocks = 6;
    c.jitterSigma = 0.0;
    c.hiccupProbability = 0.0;
    return c;
}

// ---------------------------------------------------------------------
// Criterion 1: retried reads recover and stay out of the EWMAs.
// ---------------------------------------------------------------------

TEST(FaultE2eTest, FailedCompletionsNeverTouchCalibratorEwmas)
{
    // Unit-level proof on the facade: a MediaError completion and a
    // host-retried completion both carry retry-loop latency; neither
    // may move any estimate.
    SsdCheck check(usableFeatures());
    const sim::SimDuration readBefore = check.calibrator().readService();
    const sim::SimDuration flushBefore = check.calibrator().flushOverhead();

    const auto req = makeRead4k(1);
    const Prediction pred = check.predict(req, sim::kTimeZero);
    // Failed completion with a 50ms retry-loop latency.
    EXPECT_TRUE(check.onComplete(req, pred, sim::kTimeZero,
                                 sim::kTimeZero + milliseconds(50),
                                 IoStatus::MediaError, 1));
    // Recovered-after-retries completion (Ok but attempts > 1).
    EXPECT_TRUE(check.onComplete(req, pred, sim::kTimeZero,
                                 sim::kTimeZero + milliseconds(80),
                                 IoStatus::Ok, 3));
    EXPECT_EQ(check.calibrator().readService(), readBefore);
    EXPECT_EQ(check.calibrator().flushOverhead(), flushBefore);

    // A clean completion still calibrates as before.
    check.onComplete(req, pred, sim::kTimeZero,
                     sim::kTimeZero + microseconds(120), IoStatus::Ok, 1);
    EXPECT_NE(check.calibrator().readService(), readBefore);
}

TEST(FaultE2eTest, TransientReadErrorsRetriedAndExcluded)
{
    // 30% of reads complete as MediaError; the resilient path retries
    // (each retry redraws, so most requests recover).
    ssd::SsdConfig cfg = e2eCfg();
    cfg.faults.name = "flaky";
    cfg.faults.readUncProbability = 0.3;
    cfg.faults.readUncHardFraction = 1.0;
    ssd::SsdDevice dev(cfg);
    dev.precondition();
    ResilientDevice rdev(dev);

    ssd::SsdDevice cleanDev(e2eCfg());
    cleanDev.precondition();

    SsdCheck faulty(usableFeatures());
    SsdCheck clean(usableFeatures());

    sim::SimTime t;
    uint64_t taintedSeen = 0;
    for (uint64_t i = 0; i < 4000; ++i) {
        const auto req = makeRead4k((i * 37) % cfg.userCapacityPages);
        const Prediction pf = faulty.predict(req, t);
        faulty.onSubmit(req, t);
        const auto res = rdev.submit(req, t);
        faulty.onComplete(req, pf, res.submitTime, res.completeTime,
                          res.status, res.attempts);
        if (!res.clean())
            ++taintedSeen;

        const Prediction pc = clean.predict(req, t);
        clean.onSubmit(req, t);
        const auto cres = cleanDev.submit(req, t);
        clean.onComplete(req, pc, cres.submitTime, cres.completeTime,
                         cres.status, cres.attempts);
        t = res.completeTime + microseconds(10);
    }

    // The host actually retried and mostly recovered.
    EXPECT_GT(rdev.counters().mediaErrors, 100u);
    EXPECT_GT(rdev.counters().retries, 100u);
    EXPECT_GT(rdev.counters().recovered, 100u);
    EXPECT_GT(taintedSeen, 100u);

    // Tainted completions carry retry latency ~350us+backoff each; if
    // they leaked into the EWMA the read-service estimate would blow
    // up. It must stay in the same band as on a clean device.
    const double faultyEst =
        static_cast<double>(faulty.calibrator().readService());
    const double cleanEst =
        static_cast<double>(clean.calibrator().readService());
    EXPECT_LT(faultyEst, cleanEst + static_cast<double>(microseconds(40)));
    // And prediction stays alive and well-formed.
    EXPECT_TRUE(faulty.enabled());
    const Prediction p = faulty.predict(makeRead4k(0), t);
    EXPECT_GE(p.eet, 0);
}

// ---------------------------------------------------------------------
// Criterion 2: grown bad blocks raise GC pressure.
// ---------------------------------------------------------------------

TEST(FaultE2eTest, GrownBadBlocksIncreaseGcFrequency)
{
    const auto trace =
        workload::buildRandomWriteTrace(40000, 16 * 1024, 11);

    auto runWith = [&](double eraseFailP, double programFailP,
                       uint64_t *retired) {
        ssd::SsdConfig cfg = e2eCfg();
        if (eraseFailP > 0 || programFailP > 0) {
            cfg.faults.name = "wearout";
            cfg.faults.eraseFailProbability = eraseFailP;
            cfg.faults.programFailProbability = programFailP;
        }
        ssd::SsdDevice dev(cfg);
        dev.precondition();
        usecases::runClosedLoop({{.trace = &trace, .dev = &dev}},
                                sim::kTimeZero);
        if (retired != nullptr)
            *retired = dev.faultCounters().blocksRetired;
        return dev.totalCounters().gcInvocations;
    };

    uint64_t retired = 0;
    const uint64_t gcClean = runWith(0.0, 0.0, nullptr);
    const uint64_t gcWorn = runWith(0.25, 0.05, &retired);
    EXPECT_GT(retired, 0u);
    EXPECT_GT(gcClean, 0u);
    // Retired blocks shrink effective overprovisioning, so the same
    // write stream needs measurably more GC invocations.
    EXPECT_GT(gcWorn, gcClean + gcClean / 20); // >5% more
}

// ---------------------------------------------------------------------
// Criterion 3: firmware drift degrades accuracy; calibrator responds.
// ---------------------------------------------------------------------

TEST(FaultE2eTest, FirmwareDriftDegradesAccuracyAndCalibratorResponds)
{
    // Learn how many requests diagnosis consumes on this config so the
    // drift point can be placed after diagnosis + phase one.
    ssd::SsdDevice probe(ssd::makePreset(ssd::SsdModel::A));
    core::DiagnosisRunner probeRunner(probe, core::DiagnosisConfig{});
    probeRunner.extractFeatures();
    const uint64_t diagRequests = probe.requestsServed();

    const uint64_t phaseRequests = 30000;
    ssd::SsdConfig cfg = ssd::makePreset(ssd::SsdModel::A);
    cfg.faults.name = "drift";
    cfg.faults.driftAfterRequests = diagRequests + phaseRequests + 100;
    cfg.faults.driftKind = ssd::DriftKind::ShrinkBuffer;
    cfg.faults.driftBufferFactor = 0.25;
    ssd::SsdDevice dev(cfg);

    core::DiagnosisRunner runner(dev, core::DiagnosisConfig{});
    const FeatureSet fs = runner.extractFeatures();
    ASSERT_TRUE(fs.bufferModelUsable());
    SsdCheck check(fs);

    const auto tracePre = workload::buildRwMixedTrace(
        phaseRequests, dev.capacityPages(), 77);
    const auto tracePost = workload::buildRwMixedTrace(
        phaseRequests, dev.capacityPages(), 78);

    sim::SimTime t = runner.now();
    const auto accPre =
        recovery::evaluatePredictionAccuracy(dev, check, tracePre, t, &t);
    ASSERT_EQ(dev.faultCounters().driftEvents, 0u)
        << "drift must not fire before phase one ends";
    const auto accPost =
        recovery::evaluatePredictionAccuracy(dev, check, tracePost, t, &t);
    ASSERT_EQ(dev.faultCounters().driftEvents, 1u);

    // Phase one matches the diagnosed model; after the buffer shrinks
    // 4x mid-phase-two, flush-point predictions misfire and HL recall
    // drops substantially.
    EXPECT_GT(accPre.hlAccuracy(), 0.6);
    EXPECT_LT(accPost.hlAccuracy(), accPre.hlAccuracy() - 0.1);
    EXPECT_GT(accPost.hlTotal, 100u);

    // The calibrator noticed through the rolling-accuracy machinery:
    // GC-history resets and/or the harmless-disable path.
    EXPECT_TRUE(check.calibrator().historyResets() > 0 ||
                check.calibrator().lowAccuracyStreak() > 0 ||
                !check.enabled());

    // And the model never goes ill-formed: predictions stay finite and
    // classification keeps working.
    const Prediction p = check.predict(makeRead4k(0), t);
    EXPECT_GE(p.eet, 0);
    if (!check.enabled()) {
        EXPECT_FALSE(p.hl); // harmlessly turned off => NL everywhere
    }
    EXPECT_TRUE(check.classifyActual(makeRead4k(0), milliseconds(10)));
}

} // namespace
} // namespace ssdcheck
