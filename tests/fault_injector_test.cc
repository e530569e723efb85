/**
 * @file Unit and device-level tests for ssd/fault_injector.h:
 * deterministic draws, profile presets, and the injected behaviors
 * (UNC latency spikes, MediaError completions, block retirement,
 * stalls, firmware drift) as seen through SsdDevice.
 */
#include <gtest/gtest.h>

#include "sim/rng.h"
#include "recovery/state_io.h"
#include "ssd/fault_injector.h"
#include "ssd/presets.h"
#include "ssd/ssd_device.h"
#include "usecases/runner.h"
#include "workload/synthetic.h"

namespace ssdcheck::ssd {
namespace {

using blockdev::IoStatus;
using blockdev::makeRead4k;
using blockdev::makeWrite4k;
using sim::microseconds;
using sim::milliseconds;

/** Small deterministic single-bus device (mirrors ssd_device_test). */
SsdConfig
faultTestCfg()
{
    SsdConfig c;
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

TEST(FaultInjectorTest, InertProfileDrawsNothing)
{
    FaultInjector fi(FaultProfile{}, sim::Rng(1));
    for (int i = 0; i < 1000; ++i) {
        const ReadFault rf = fi.onRead();
        EXPECT_EQ(rf.retries, 0u);
        EXPECT_FALSE(rf.hard);
        EXPECT_FALSE(fi.programFails());
        EXPECT_FALSE(fi.eraseFails());
        EXPECT_EQ(fi.stallFor(), 0);
        EXPECT_FALSE(fi.driftDue(i));
    }
    EXPECT_EQ(fi.counters().readUncTransient, 0u);
    EXPECT_EQ(fi.counters().stalls, 0u);
    EXPECT_TRUE(fi.profile().inert());
}

TEST(FaultInjectorTest, DrawsAreDeterministicPerSeed)
{
    FaultProfile p;
    p.readUncProbability = 0.3;
    p.readUncHardFraction = 0.2;
    p.stallProbability = 0.1;
    FaultInjector a(p, sim::Rng(7));
    FaultInjector b(p, sim::Rng(7));
    for (int i = 0; i < 500; ++i) {
        const ReadFault ra = a.onRead();
        const ReadFault rb = b.onRead();
        EXPECT_EQ(ra.retries, rb.retries);
        EXPECT_EQ(ra.hard, rb.hard);
        EXPECT_EQ(a.stallFor(), b.stallFor());
    }
    EXPECT_EQ(a.counters().readUncTransient, b.counters().readUncTransient);
    EXPECT_EQ(a.counters().readUncHard, b.counters().readUncHard);
}

TEST(FaultInjectorTest, CertainUncAlwaysRetriesWithinBounds)
{
    FaultProfile p;
    p.readUncProbability = 1.0;
    p.readRetryMax = 4;
    FaultInjector fi(p, sim::Rng(3));
    for (int i = 0; i < 200; ++i) {
        const ReadFault rf = fi.onRead();
        EXPECT_GE(rf.retries, 1u);
        EXPECT_LE(rf.retries, 4u);
        EXPECT_FALSE(rf.hard);
    }
    EXPECT_EQ(fi.counters().readUncTransient, 200u);
    EXPECT_EQ(fi.counters().readUncHard, 0u);
}

TEST(FaultInjectorTest, HardFractionExhaustsAllRetries)
{
    FaultProfile p;
    p.readUncProbability = 1.0;
    p.readUncHardFraction = 1.0;
    p.readRetryMax = 4;
    FaultInjector fi(p, sim::Rng(3));
    const ReadFault rf = fi.onRead();
    EXPECT_TRUE(rf.hard);
    EXPECT_EQ(rf.retries, 4u);
    EXPECT_EQ(fi.counters().readUncHard, 1u);
}

TEST(FaultInjectorTest, StallsStayWithinConfiguredRange)
{
    FaultProfile p;
    p.stallProbability = 1.0;
    p.stallMin = milliseconds(50);
    p.stallMax = milliseconds(400);
    FaultInjector fi(p, sim::Rng(9));
    for (int i = 0; i < 100; ++i) {
        const sim::SimDuration d = fi.stallFor();
        EXPECT_GE(d, milliseconds(50));
        EXPECT_LE(d, milliseconds(400));
    }
    EXPECT_EQ(fi.counters().stalls, 100u);
}

TEST(FaultInjectorTest, DriftFiresExactlyOnce)
{
    FaultProfile p;
    p.driftAfterRequests = 100;
    p.driftKind = DriftKind::ShrinkBuffer;
    FaultInjector fi(p, sim::Rng(1));
    EXPECT_FALSE(fi.driftDue(99));
    EXPECT_TRUE(fi.driftDue(100));
    EXPECT_FALSE(fi.driftDue(101)); // one-shot
    EXPECT_EQ(fi.counters().driftEvents, 1u);
}

TEST(FaultInjectorTest, PresetLookup)
{
    FaultProfile p;
    EXPECT_TRUE(faultProfileByName("none", &p));
    EXPECT_TRUE(p.inert());
    EXPECT_TRUE(faultProfileByName("flaky-reads", &p));
    EXPECT_GT(p.readUncProbability, 0.0);
    EXPECT_TRUE(faultProfileByName("hostile", &p));
    EXPECT_FALSE(p.inert());
    EXPECT_FALSE(faultProfileByName("no-such-profile", &p));
    EXPECT_FALSE(allFaultProfiles().empty());
    // Every preset must pass config validation.
    for (const auto &preset : allFaultProfiles()) {
        SsdConfig cfg = faultTestCfg();
        cfg.faults = preset;
        EXPECT_NO_THROW(SsdDevice dev(cfg)) << preset.name;
    }
}

// ---------------------------------------------------------------------
// Device-level injection behavior.
// ---------------------------------------------------------------------

TEST(FaultInjectorDeviceTest, UncReadsSurfaceAsLatencySpikes)
{
    SsdConfig clean = faultTestCfg();
    SsdConfig faulty = faultTestCfg();
    faulty.faults.name = "all-unc";
    faulty.faults.readUncProbability = 1.0;
    faulty.faults.readRetryCost = microseconds(350);

    SsdDevice cdev(clean);
    SsdDevice fdev(faulty);
    cdev.precondition();
    fdev.precondition();

    const auto cres = cdev.submit(makeRead4k(42), sim::kTimeZero);
    const auto fres = fdev.submit(makeRead4k(42), sim::kTimeZero);
    EXPECT_EQ(cres.status, IoStatus::Ok);
    EXPECT_EQ(fres.status, IoStatus::Ok); // transient: recovered in-device
    // The in-device retry loop is visible only as added latency.
    EXPECT_GE(fres.latency(), cres.latency() + microseconds(350));
    EXPECT_GE(fdev.faultCounters().readUncTransient, 1u);
}

TEST(FaultInjectorDeviceTest, HardUncCompletesAsMediaError)
{
    SsdConfig cfg = faultTestCfg();
    cfg.faults.name = "hard-unc";
    cfg.faults.readUncProbability = 1.0;
    cfg.faults.readUncHardFraction = 1.0;
    SsdDevice dev(cfg);
    dev.precondition();
    const auto res = dev.submit(makeRead4k(7), sim::kTimeZero);
    EXPECT_EQ(res.status, IoStatus::MediaError);
    EXPECT_FALSE(res.ok());
    // Even a failed read pays the full retry loop before giving up.
    EXPECT_GE(res.latency(),
              static_cast<sim::SimDuration>(cfg.faults.readRetryMax) *
                  cfg.faults.readRetryCost);
    EXPECT_EQ(dev.faultCounters().readUncHard, 1u);
}

TEST(FaultInjectorDeviceTest, StallsDelayCompletion)
{
    SsdConfig cfg = faultTestCfg();
    cfg.faults.name = "always-stall";
    cfg.faults.stallProbability = 1.0;
    cfg.faults.stallMin = milliseconds(50);
    cfg.faults.stallMax = milliseconds(60);
    SsdDevice dev(cfg);
    dev.precondition();
    const auto res = dev.submit(makeRead4k(1), sim::kTimeZero);
    EXPECT_EQ(res.status, IoStatus::Ok);
    EXPECT_GE(res.latency(), milliseconds(50));
    EXPECT_EQ(dev.faultCounters().stalls, 1u);
}

TEST(FaultInjectorDeviceTest, WearoutRetiresBlocks)
{
    SsdConfig cfg = faultTestCfg();
    cfg.faults.name = "wearout";
    cfg.faults.programFailProbability = 0.05;
    cfg.faults.eraseFailProbability = 0.2;
    SsdDevice dev(cfg);
    dev.precondition();
    const auto trace =
        workload::buildRandomWriteTrace(40000, cfg.userCapacityPages, 5);
    usecases::runClosedLoop({{.trace = &trace, .dev = &dev}},
                            sim::kTimeZero);
    EXPECT_GT(dev.faultCounters().blocksRetired, 0u);
    EXPECT_EQ(dev.totalCounters().retiredBlocks,
              dev.faultCounters().blocksRetired);
    // Data-path integrity survives retirement: pages remain readable.
    uint64_t payload = 0;
    EXPECT_TRUE(dev.peekPage(1, &payload));
}

TEST(FaultInjectorDeviceTest, BufferDriftMutatesDeviceConfig)
{
    SsdConfig cfg = faultTestCfg();
    cfg.faults.name = "drift";
    cfg.faults.driftAfterRequests = 64;
    cfg.faults.driftKind = DriftKind::ShrinkBuffer;
    cfg.faults.driftBufferFactor = 0.5;
    SsdDevice dev(cfg);
    dev.precondition();
    const uint64_t before = dev.config().bufferBytes;
    for (uint64_t i = 0; i < 128; ++i)
        dev.submit(makeWrite4k(i), sim::kTimeZero + milliseconds(i));
    EXPECT_EQ(dev.faultCounters().driftEvents, 1u);
    EXPECT_EQ(dev.config().bufferBytes, before / 2);
}

TEST(FaultInjectorTest, AllPresetProfilesValidate)
{
    for (const auto &p : allFaultProfiles())
        EXPECT_EQ(p.validate(), "") << p.name;
    EXPECT_EQ(FaultProfile{}.validate(), "");
}

TEST(FaultInjectorTest, ValidateRejectsMalformedProfiles)
{
    FaultProfile p;
    p.name = "broken";

    p.readUncProbability = -0.1;
    EXPECT_NE(p.validate().find("readUncProbability"), std::string::npos);
    p.readUncProbability = 1.5;
    EXPECT_NE(p.validate().find("readUncProbability"), std::string::npos);
    p.readUncProbability = 0.5;
    EXPECT_EQ(p.validate(), "");

    p.stallProbability = 2.0;
    EXPECT_NE(p.validate().find("stallProbability"), std::string::npos);
    p.stallProbability = 0.0;

    p.stallMin = milliseconds(100);
    p.stallMax = milliseconds(50);
    EXPECT_NE(p.validate().find("stallMax"), std::string::npos);
    p.stallMax = milliseconds(100);
    EXPECT_EQ(p.validate(), "");

    p.stallMin = -1;
    EXPECT_NE(p.validate().find("stallMin"), std::string::npos);
    p.stallMin = 0;

    p.driftAfterRequests = 100;
    p.driftKind = DriftKind::None;
    EXPECT_NE(p.validate().find("driftKind"), std::string::npos);
    p.driftKind = DriftKind::ShrinkBuffer;
    p.driftBufferFactor = 0.0;
    EXPECT_NE(p.validate().find("driftBufferFactor"), std::string::npos);
    p.driftBufferFactor = 0.5;
    EXPECT_EQ(p.validate(), "");

    // The message names the profile so operators know which config
    // (CLI flag, test fixture) to fix.
    p.eraseFailProbability = -1.0;
    EXPECT_NE(p.validate().find("broken"), std::string::npos);
}

TEST(FaultInjectorDeviceTest, ReadTriggerDriftFlipsFlag)
{
    SsdConfig cfg = faultTestCfg();
    cfg.faults.name = "drift-rt";
    cfg.faults.driftAfterRequests = 10;
    cfg.faults.driftKind = DriftKind::ToggleReadTrigger;
    SsdDevice dev(cfg);
    dev.precondition();
    const bool before = dev.config().readTriggerFlush;
    for (uint64_t i = 0; i < 20; ++i)
        dev.submit(makeWrite4k(i), sim::kTimeZero + milliseconds(i));
    EXPECT_EQ(dev.config().readTriggerFlush, !before);
}


// -- correlated faults: regimes, phases, clusters ---------------------

TEST(FaultInjectorRegimeTest, BeginRequestIsDrawNeutralWithoutRegimes)
{
    // Profiles without regimes must keep their historical random
    // stream layout bit-for-bit: beginRequest draws nothing.
    FaultProfile p;
    p.readUncProbability = 0.3;
    p.stallProbability = 0.1;
    FaultInjector withBegin(p, sim::Rng(7));
    FaultInjector without(p, sim::Rng(7));
    for (uint64_t i = 1; i <= 300; ++i) {
        withBegin.beginRequest(i);
        const ReadFault ra = withBegin.onRead();
        const ReadFault rb = without.onRead();
        EXPECT_EQ(ra.retries, rb.retries);
        EXPECT_EQ(ra.hard, rb.hard);
        EXPECT_EQ(withBegin.stallFor(), without.stallFor());
    }
    EXPECT_EQ(withBegin.rng().draws(), without.rng().draws());
    EXPECT_EQ(withBegin.counters().burstEntries, 0u);
    EXPECT_EQ(withBegin.counters().burstRequests, 0u);
}

TEST(FaultInjectorRegimeTest, BurstMultipliesRatesWhileActive)
{
    // A certain, permanent burst that multiplies a 0.5 base rate into
    // a certainty: every read inside the burst is UNC.
    FaultProfile p;
    p.readUncProbability = 0.5;
    p.regime.enterBurst = 1.0;
    p.regime.exitBurst = 1e-12; // Effectively never leaves.
    p.regime.uncFactor = 2.0;
    ASSERT_EQ(p.validate(), "");
    FaultInjector fi(p, sim::Rng(5));
    EXPECT_FALSE(fi.bursting());
    for (uint64_t i = 1; i <= 50; ++i) {
        fi.beginRequest(i);
        EXPECT_TRUE(fi.bursting());
        const ReadFault rf = fi.onRead();
        EXPECT_GE(rf.retries, 1u) << "request " << i;
    }
    EXPECT_EQ(fi.counters().burstEntries, 1u);
    EXPECT_EQ(fi.counters().burstRequests, 50u);
    EXPECT_EQ(fi.counters().readUncTransient, 50u);
}

TEST(FaultInjectorRegimeTest, StallFactorMultipliesStallRateInBurst)
{
    FaultProfile p;
    p.stallProbability = 0.5;
    p.stallMin = milliseconds(1);
    p.stallMax = milliseconds(2);
    p.regime.enterBurst = 1.0;
    p.regime.exitBurst = 1e-12;
    p.regime.stallFactor = 2.0; // 0.5 * 2 = certain stall.
    FaultInjector fi(p, sim::Rng(11));
    for (uint64_t i = 1; i <= 20; ++i) {
        fi.beginRequest(i);
        EXPECT_GT(fi.stallFor(), 0) << "request " << i;
    }
    EXPECT_EQ(fi.counters().stalls, 20u);
}

TEST(FaultInjectorRegimeTest, PhaseWindowsScheduleStorms)
{
    // Calm [1,10), storm [10,20), calm again from 20: the phase's
    // certain-burst regime governs only its window, and leaving the
    // window ends any burst in progress.
    FaultProfile p;
    p.readUncProbability = 0.5;
    FaultPhase storm;
    storm.fromRequest = 10;
    storm.toRequest = 20;
    storm.regime.enterBurst = 1.0;
    storm.regime.exitBurst = 1e-12;
    storm.regime.uncFactor = 2.0;
    p.phases.push_back(storm);
    ASSERT_EQ(p.validate(), "");
    FaultInjector fi(p, sim::Rng(13));
    for (uint64_t i = 1; i <= 30; ++i) {
        fi.beginRequest(i);
        const bool inStorm = i >= 10 && i < 20;
        EXPECT_EQ(fi.bursting(), inStorm) << "request " << i;
        const ReadFault rf = fi.onRead();
        if (inStorm) {
            EXPECT_GE(rf.retries, 1u) << "request " << i;
        }
    }
    EXPECT_EQ(fi.counters().burstRequests, 10u);
}

TEST(FaultInjectorClusterTest, ClusterTargetsItsPageRangeOnly)
{
    // No global UNC rate; a scratched region [100, 110) fails every
    // read that lands inside it.
    FaultProfile p;
    UncCluster c;
    c.firstPage = 100;
    c.pages = 10;
    c.probability = 1.0;
    p.uncClusters.push_back(c);
    ASSERT_EQ(p.validate(), "");
    EXPECT_FALSE(p.inert());
    FaultInjector fi(p, sim::Rng(17));
    for (int i = 0; i < 50; ++i) {
        EXPECT_EQ(fi.onRead(5).retries, 0u);      // Outside.
        EXPECT_GE(fi.onRead(105).retries, 1u);    // Inside.
        EXPECT_EQ(fi.onRead(110).retries, 0u);    // One past the end.
    }
    EXPECT_EQ(fi.counters().clusterUncReads, 50u);
    EXPECT_EQ(fi.counters().readUncTransient, 50u);
}

TEST(FaultInjectorRegimeTest, ValidateRejectsMalformedCorrelatedFaults)
{
    FaultProfile p;
    p.name = "broken";
    p.regime.enterBurst = 0.5;
    p.regime.exitBurst = 0.0; // Active regime must be able to exit.
    EXPECT_NE(p.validate().find("transition"), std::string::npos);
    p.regime.exitBurst = 0.1;
    p.regime.uncFactor = -1.0;
    EXPECT_NE(p.validate().find("factors"), std::string::npos);
    p.regime.uncFactor = 1.0;
    EXPECT_EQ(p.validate(), "");

    FaultPhase ph;
    ph.fromRequest = 10;
    ph.toRequest = 10; // Empty window.
    p.phases.push_back(ph);
    EXPECT_NE(p.validate().find("phase window"), std::string::npos);
    p.phases.clear();

    UncCluster c;
    c.pages = 0;
    p.uncClusters.push_back(c);
    EXPECT_NE(p.validate().find("uncCluster"), std::string::npos);
    p.uncClusters[0].pages = 4;
    p.uncClusters[0].probability = 2.0;
    EXPECT_NE(p.validate().find("probability"), std::string::npos);
    p.uncClusters[0].probability = 0.5;
    EXPECT_EQ(p.validate(), "");
}

TEST(FaultInjectorRegimeTest, StormsPresetValidatesAndBursts)
{
    FaultProfile p;
    ASSERT_TRUE(faultProfileByName("storms", &p));
    EXPECT_TRUE(p.regime.active());
    EXPECT_FALSE(p.inert());
    // Long enough runs must actually enter bursts.
    FaultInjector fi(p, sim::Rng(21));
    for (uint64_t i = 1; i <= 20000; ++i) {
        fi.beginRequest(i);
        fi.onRead(i % 4096);
    }
    EXPECT_GT(fi.counters().burstEntries, 0u);
    EXPECT_GT(fi.counters().burstRequests,
              fi.counters().burstEntries); // Bursts dwell.
}

// -- snapshot/restore replay equivalence (recovery subsystem) ---------

TEST(FaultInjectorSnapshotTest, RestoreResumesIdenticalDrawStream)
{
    FaultProfile prof;
    prof.name = "snap";
    prof.readUncProbability = 0.1;
    prof.readUncHardFraction = 0.2;
    prof.programFailProbability = 0.05;
    prof.eraseFailProbability = 0.05;
    prof.stallProbability = 0.02;
    prof.driftAfterRequests = 500;
    prof.driftKind = DriftKind::ShrinkBuffer;

    FaultInjector a(prof, sim::Rng(77));
    // Advance through a mixed draw pattern, including the drift point.
    for (uint64_t i = 0; i < 300; ++i) {
        a.onRead();
        a.programFails();
        a.eraseFails();
        a.stallFor();
        if (a.driftDue(i * 2))
            a.noteBlockRetired();
    }

    recovery::StateWriter w;
    a.saveState(w);

    // Restore into a fresh injector built from the SAME profile (the
    // profile is config, enforced by the snapshot's config hash) but a
    // different stream position.
    FaultInjector b(prof, sim::Rng(1));
    b.onRead();
    recovery::StateReader r(w.bytes().data(), w.bytes().size());
    ASSERT_TRUE(b.loadState(r));
    EXPECT_TRUE(r.atEnd());

    EXPECT_EQ(b.driftFired(), a.driftFired());
    EXPECT_EQ(b.counters().readUncTransient, a.counters().readUncTransient);
    EXPECT_EQ(b.counters().readUncHard, a.counters().readUncHard);
    EXPECT_EQ(b.counters().programFailures, a.counters().programFailures);
    EXPECT_EQ(b.counters().eraseFailures, a.counters().eraseFailures);
    EXPECT_EQ(b.counters().blocksRetired, a.counters().blocksRetired);
    EXPECT_EQ(b.counters().stalls, a.counters().stalls);
    EXPECT_EQ(b.rng().draws(), a.rng().draws());

    // The continued streams must be draw-for-draw identical.
    for (uint64_t i = 0; i < 500; ++i) {
        const ReadFault fa = a.onRead();
        const ReadFault fb = b.onRead();
        EXPECT_EQ(fa.retries, fb.retries);
        EXPECT_EQ(fa.hard, fb.hard);
        EXPECT_EQ(a.programFails(), b.programFails());
        EXPECT_EQ(a.eraseFails(), b.eraseFails());
        EXPECT_EQ(a.stallFor(), b.stallFor());
    }
    EXPECT_EQ(b.counters().stalls, a.counters().stalls);
}

TEST(FaultInjectorSnapshotTest, RestorePreservesBurstStateMidStorm)
{
    FaultProfile prof;
    prof.name = "snap-burst";
    prof.readUncProbability = 0.05;
    prof.regime.enterBurst = 0.05;
    prof.regime.exitBurst = 0.02;
    prof.regime.uncFactor = 10.0;

    FaultInjector a(prof, sim::Rng(31));
    uint64_t idx = 1;
    // Advance until a burst is in progress, so the snapshot captures
    // the mid-storm Markov state, not just the calm default.
    while (!a.bursting()) {
        ASSERT_LT(idx, 10000u) << "seed never entered a burst";
        a.beginRequest(idx);
        a.onRead(idx % 1024);
        ++idx;
    }

    recovery::StateWriter w;
    a.saveState(w);
    FaultInjector b(prof, sim::Rng(1));
    recovery::StateReader r(w.bytes().data(), w.bytes().size());
    ASSERT_TRUE(b.loadState(r));
    EXPECT_TRUE(r.atEnd());
    EXPECT_TRUE(b.bursting());
    EXPECT_EQ(b.counters().burstEntries, a.counters().burstEntries);
    EXPECT_EQ(b.counters().burstRequests, a.counters().burstRequests);

    // The continued regime evolution is transition-for-transition
    // identical, including burst exits and re-entries.
    for (uint64_t i = 0; i < 2000; ++i, ++idx) {
        a.beginRequest(idx);
        b.beginRequest(idx);
        EXPECT_EQ(a.bursting(), b.bursting()) << "request " << idx;
        const ReadFault fa = a.onRead(idx % 1024);
        const ReadFault fb = b.onRead(idx % 1024);
        EXPECT_EQ(fa.retries, fb.retries);
        EXPECT_EQ(fa.hard, fb.hard);
    }
    EXPECT_EQ(b.counters().burstEntries, a.counters().burstEntries);
}

TEST(FaultInjectorSnapshotTest, LoadStateFailsOnTruncatedBytes)
{
    FaultProfile prof;
    prof.name = "snap";
    prof.readUncProbability = 0.1;
    FaultInjector a(prof, sim::Rng(3));
    for (int i = 0; i < 10; ++i)
        a.onRead();
    recovery::StateWriter w;
    a.saveState(w);
    FaultInjector b(prof, sim::Rng(3));
    recovery::StateReader r(w.bytes().data(), w.size() / 2);
    EXPECT_FALSE(b.loadState(r));
}

} // namespace
} // namespace ssdcheck::ssd
