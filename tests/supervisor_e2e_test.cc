/**
 * @file End-to-end health-supervisor recovery (the PR's acceptance
 * criterion):
 *
 * Under the `drift` fault profile a mid-run firmware update shrinks
 * the write buffer 4x, collapsing HL prediction accuracy. With the
 * supervisor attached, the drift is detected, the model quarantined
 * (conservative NL), the buffer feature re-diagnosed online — probe
 * I/O interleaved with the live workload, never pausing it — and the
 * rebuilt model hot-swapped in. Post-recovery accuracy must come back
 * to within a few points of the pre-drift run, while an identical run
 * without the supervisor stays collapsed for good.
 */
#include <gtest/gtest.h>

#include "blockdev/resilient_device.h"
#include "core/health_supervisor.h"
#include "core/ssdcheck.h"
#include "recovery/shard.h"
#include "ssd/presets.h"
#include "ssd/ssd_device.h"
#include "workload/synthetic.h"

namespace ssdcheck {
namespace {

using core::AccuracyResult;
using core::FeatureSet;
using core::HealthState;
using core::HealthSupervisor;
using core::SsdCheck;

constexpr uint64_t kPhaseRequests = 15000;
constexpr uint64_t kDriftPhaseRequests = 40000;

/** Preset A with the buffer shrinking 4x early in the drift phase. */
ssd::SsdConfig
driftedCfg()
{
    ssd::SsdConfig cfg = ssd::makePreset(ssd::SsdModel::A);
    cfg.faults.name = "drift";
    cfg.faults.driftAfterRequests = kPhaseRequests + 5000;
    cfg.faults.driftKind = ssd::DriftKind::ShrinkBuffer;
    cfg.faults.driftBufferFactor = 0.25;
    return cfg;
}

/** Diagnose once on a healthy twin (same model, no faults). */
FeatureSet
diagnoseTwin()
{
    ssd::SsdConfig clean = driftedCfg();
    clean.faults = ssd::FaultProfile{};
    ssd::SsdDevice cleanDev(clean);
    core::DiagnosisRunner runner(cleanDev, core::DiagnosisConfig{});
    return runner.extractFeatures();
}

struct E2eOutcome
{
    AccuracyResult pre, drift, post;
    HealthState finalState = HealthState::Healthy;
    core::HealthCounters counters;
    uint32_t swapPages = 0;
    sim::SimTime start, end;
};

/** Three-phase run: pre-drift, drift + (maybe) repair, post. */
E2eOutcome
runThreePhases(bool withSupervisor)
{
    const FeatureSet fs = diagnoseTwin();
    EXPECT_TRUE(fs.bufferModelUsable());

    ssd::SsdDevice dev(driftedCfg());
    dev.precondition(); // instant prefill; no requests consumed
    blockdev::ResilientDevice rdev(dev);

    SsdCheck check(fs);
    std::unique_ptr<HealthSupervisor> sup;
    if (withSupervisor)
        sup = std::make_unique<HealthSupervisor>(check, rdev);

    const auto tracePre = workload::buildRwMixedTrace(
        kPhaseRequests, dev.capacityPages(), 77);
    const auto traceDrift = workload::buildRwMixedTrace(
        kDriftPhaseRequests, dev.capacityPages(), 78);
    const auto tracePost = workload::buildRwMixedTrace(
        kPhaseRequests, dev.capacityPages(), 79);

    E2eOutcome out;
    sim::SimTime t;
    out.start = t;
    out.pre = recovery::evaluatePredictionAccuracy(rdev, check, tracePre,
                                                   t, &t, sup.get());
    EXPECT_EQ(dev.faultCounters().driftEvents, 0u)
        << "drift must not fire before phase one ends";
    out.drift = recovery::evaluatePredictionAccuracy(
        rdev, check, traceDrift, t, &t, sup.get());
    EXPECT_EQ(dev.faultCounters().driftEvents, 1u);
    out.post = recovery::evaluatePredictionAccuracy(rdev, check, tracePost,
                                                    t, &t, sup.get());
    out.end = t;
    if (sup) {
        out.finalState = sup->state();
        out.counters = sup->counters();
        out.swapPages = sup->lastSwapPages();
    }
    return out;
}

TEST(SupervisorE2eTest, OnlineRediagnosisRestoresAccuracyAfterDrift)
{
    const E2eOutcome run = runThreePhases(true);

    // Phase one: the diagnosed model works.
    EXPECT_GT(run.pre.hlAccuracy(), 0.6);
    EXPECT_GT(run.post.hlTotal, 100u);

    // The supervisor walked the whole loop: confirmed drift,
    // re-diagnosed online, hot-swapped, and survived probation.
    EXPECT_GE(run.counters.degradedEntries, 1u);
    EXPECT_GE(run.counters.rediagnoseAttempts, 1u);
    EXPECT_GE(run.counters.hotSwaps, 1u);
    EXPECT_TRUE(run.finalState == HealthState::Healthy ||
                run.finalState == HealthState::Recovered)
        << "final state: " << core::toString(run.finalState);

    // The re-diagnosed buffer is the post-drift one: preset A's
    // 62-page buffer shrank 4x, so the swap must land near 15 pages —
    // far below the stale feature.
    EXPECT_GE(run.swapPages, 4u);
    EXPECT_LT(run.swapPages, 31u);

    // Acceptance: post-recovery accuracy within 5 points of pre-drift.
    EXPECT_GE(run.post.hlAccuracy(), run.pre.hlAccuracy() - 0.05)
        << "pre " << run.pre.hlAccuracy() << " post "
        << run.post.hlAccuracy();

    // Probe I/O stayed inside its device-time budget (small slack:
    // the budget is checked before each submission, so at most one
    // blocked probe can overshoot).
    const double budget = core::HealthSupervisorConfig{}.probeBudgetFraction;
    const sim::SimDuration elapsed = run.end - run.start;
    EXPECT_GT(run.counters.probesIssued, 0u);
    EXPECT_LE(static_cast<double>(run.counters.probeBusyNs),
              budget * static_cast<double>(elapsed) +
                  static_cast<double>(sim::milliseconds(100)));
}

TEST(SupervisorE2eTest, UnsupervisedRunStaysCollapsed)
{
    const E2eOutcome run = runThreePhases(false);
    EXPECT_GT(run.pre.hlAccuracy(), 0.6);
    // Without the supervisor the stale model never comes back: HL
    // recall stays far below the pre-drift level (or the calibrator
    // harmlessly disabled it, which also means no HL recall).
    EXPECT_LT(run.post.hlAccuracy(), run.pre.hlAccuracy() - 0.2);
}

} // namespace
} // namespace ssdcheck
