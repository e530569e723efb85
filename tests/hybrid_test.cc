/** @file Unit tests for usecases/hybrid.h (Hybrid PAS tiering). */
#include <gtest/gtest.h>

#include "core/ssdcheck.h"
#include "nvm/nvm_device.h"
#include "ssd/fault_injector.h"
#include "ssd/ssd_device.h"
#include "usecases/hybrid.h"
#include "workload/synthetic.h"

namespace ssdcheck::usecases {
namespace {

using blockdev::makeRead4k;
using blockdev::makeWrite4k;
using sim::microseconds;
using sim::milliseconds;
using sim::SimTime;

ssd::SsdConfig
ssdCfg()
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

nvm::NvmConfig
nvmCfg(uint64_t pages)
{
    nvm::NvmConfig c;
    c.capacityPages = pages;
    c.jitterSigma = 0.0;
    return c;
}

core::FeatureSet
features()
{
    core::FeatureSet fs;
    fs.bufferBytes = 8 * 4096;
    fs.bufferType = core::BufferTypeFeature::Back;
    fs.flushAlgorithms.fullTrigger = true;
    fs.observedFlushOverheadNs = milliseconds(2);
    return fs;
}

TEST(HybridTierTest, BaselineAbsorbsWritesUntilFull)
{
    ssd::SsdDevice ssd(ssdCfg());
    nvm::NvmDevice nvm(nvmCfg(16));
    HybridConfig cfg;
    cfg.drainPeriod = sim::seconds(100); // effectively no drain
    HybridTier tier(ssd, nvm, nullptr, HybridMode::Baseline, cfg);

    SimTime t;
    for (uint64_t p = 0; p < 16; ++p) {
        const auto res = tier.submit(makeWrite4k(p), t);
        EXPECT_LT(res.latency(), microseconds(10)) << p; // NVM speed
        t = res.completeTime;
    }
    EXPECT_TRUE(nvm.full());
    // Next write spills to the SSD (backpressure).
    const auto res = tier.submit(makeWrite4k(99), t);
    EXPECT_GE(res.latency(), microseconds(20));
    EXPECT_EQ(tier.backpressureWrites(), 1u);
    EXPECT_EQ(tier.ssdDirectWrites(), 1u);
}

TEST(HybridTierTest, DrainMovesPagesToSsd)
{
    ssd::SsdDevice ssd(ssdCfg());
    nvm::NvmDevice nvm(nvmCfg(64));
    HybridConfig cfg;
    cfg.drainPeriod = milliseconds(1);
    cfg.drainBatchPages = 4;
    cfg.drainThresholdFraction = 0.0; // drain whenever dirty
    HybridTier tier(ssd, nvm, nullptr, HybridMode::Baseline, cfg);

    SimTime t;
    for (uint64_t p = 0; p < 8; ++p)
        t = tier.submit(makeWrite4k(p), t).completeTime;
    EXPECT_EQ(nvm.dirtyPages(), 8u);
    // Let the background thread catch up by touching the tier later.
    tier.submit(makeRead4k(100), t + milliseconds(10));
    EXPECT_LT(nvm.dirtyPages(), 8u);
    // Drained pages are now on the SSD.
    uint64_t payload = 0;
    EXPECT_TRUE(ssd.peekPage(0, &payload));
}

TEST(HybridTierTest, ReadsServedFromNvmWhenDirty)
{
    ssd::SsdDevice ssd(ssdCfg());
    ssd.precondition();
    nvm::NvmDevice nvm(nvmCfg(64));
    HybridConfig cfg;
    cfg.drainPeriod = sim::seconds(100);
    HybridTier tier(ssd, nvm, nullptr, HybridMode::Baseline, cfg);

    SimTime t = tier.submit(makeWrite4k(5), sim::kTimeZero).completeTime;
    const auto hit = tier.submit(makeRead4k(5), t);
    EXPECT_LT(hit.latency(), microseconds(10));
    const auto miss = tier.submit(makeRead4k(6), hit.completeTime);
    EXPECT_GT(miss.latency(), microseconds(50));
}

TEST(HybridTierTest, HybridPasSplitsNlWritesByWeight)
{
    ssd::SsdDevice ssd(ssdCfg());
    nvm::NvmDevice nvm(nvmCfg(100000));
    core::SsdCheck check(features());
    HybridConfig cfg;
    cfg.bufferWeight = 0.5;
    cfg.drainPeriod = sim::seconds(100);
    HybridTier tier(ssd, nvm, &check, HybridMode::HybridPas, cfg);

    SimTime t;
    const int n = 4000;
    sim::Rng rng(3);
    for (int i = 0; i < n; ++i) {
        const auto res =
            tier.submit(makeWrite4k(rng.nextBelow(8192)), t);
        t = res.completeTime;
    }
    const double nvmShare =
        static_cast<double>(nvm.totalWritesAbsorbed()) / n;
    // NL writes split ~50/50; HL-predicted ones all go to NVM, so the
    // share sits at or slightly above the weight.
    EXPECT_GT(nvmShare, 0.45);
    EXPECT_LT(nvmShare, 0.65);
    EXPECT_GT(tier.ssdDirectWrites(), 0u);
}

TEST(HybridTierTest, HybridReducesNvmPressureVsBaseline)
{
    const int n = 3000;
    auto run = [&](HybridMode mode) {
        ssd::SsdDevice ssd(ssdCfg());
        nvm::NvmDevice nvm(nvmCfg(256));
        core::SsdCheck check(features());
        HybridConfig cfg;
        cfg.bufferWeight = 0.5;
        cfg.drainPeriod = milliseconds(1);
        cfg.drainBatchPages = 8;
        HybridTier tier(ssd, nvm, mode == HybridMode::HybridPas ? &check
                                                                : nullptr,
                        mode, cfg);
        SimTime t;
        sim::Rng rng(5);
        for (int i = 0; i < n; ++i)
            t = tier.submit(makeWrite4k(rng.nextBelow(8192)), t)
                    .completeTime;
        return tier.nvmWritePages();
    };
    EXPECT_LT(run(HybridMode::HybridPas), run(HybridMode::Baseline));
}

TEST(HybridTierTest, SsdWriteInvalidatesStaleNvmCopy)
{
    // A newer copy written to the SSD must invalidate the dirty NVM
    // copy, or a later drain would clobber the new data.
    ssd::SsdDevice ssd(ssdCfg());
    nvm::NvmDevice nvm(nvmCfg(4));
    HybridConfig cfg;
    cfg.drainPeriod = sim::seconds(100); // manual drain control
    HybridTier tier(ssd, nvm, nullptr, HybridMode::Baseline, cfg);

    SimTime t;
    // Fill the NVM: pages 0..3 dirty.
    for (uint64_t p = 0; p < 4; ++p)
        t = tier.submit(makeWrite4k(p), t).completeTime;
    ASSERT_TRUE(nvm.full());
    // Rewrite page 1: pool full -> routed to the SSD; the stale NVM
    // copy must be dropped.
    t = tier.submit(makeWrite4k(1), t).completeTime;
    EXPECT_FALSE(nvm.holds(1));
    // Draining everything never returns page 1.
    const auto drained = nvm.takeDirty(10);
    for (const uint64_t p : drained)
        EXPECT_NE(p, 1u);
}

TEST(HybridTierTest, FailedSsdCompletionsDoNotTrainTheModel)
{
    // A failed SSD completion carries no service time: only the ok
    // ones may reach the calibrator. Every SSD failure here is a hard
    // UNC read, which the device counts.
    ssd::SsdConfig c = ssdCfg();
    ASSERT_TRUE(ssd::faultProfileByName("hostile", &c.faults));
    ssd::SsdDevice ssd(c);
    ssd.precondition();
    nvm::NvmDevice nvm(nvmCfg(64));
    core::SsdCheck check(features());
    HybridTier tier(ssd, nvm, &check, HybridMode::HybridPas);
    const auto trace = workload::buildRwMixedTrace(20000, 8192, 3);

    const uint64_t observed0 = check.calibrator().observations();
    const uint64_t served0 = ssd.requestsServed();
    const uint64_t failed0 = ssd.faultCounters().readUncHard;
    SimTime t;
    for (const auto &rec : trace.records())
        t = tier.submit(rec.req, t).completeTime;
    const uint64_t failed = ssd.faultCounters().readUncHard - failed0;
    ASSERT_GT(failed, 0u);
    EXPECT_EQ(check.calibrator().observations() - observed0,
              ssd.requestsServed() - served0 - failed);
}

TEST(HybridTierTest, ModelScoresExactlyTheSsdRequests)
{
    // Foreground misses and background drain writes both reach the
    // SSD, and each one is scored; NVM-served requests are not.
    ssd::SsdDevice ssd(ssdCfg());
    nvm::NvmDevice nvm(nvmCfg(256));
    core::SsdCheck check(features());
    HybridTier tier(ssd, nvm, &check, HybridMode::HybridPas);
    const auto trace = workload::buildRwMixedTrace(5000, 8192, 4);
    for (const auto &rec : trace.records())
        ASSERT_NE(rec.req.type, blockdev::IoType::Trim);

    const uint64_t served0 = ssd.requestsServed();
    SimTime t;
    for (const auto &rec : trace.records())
        t = tier.submit(rec.req, t).completeTime;
    const core::AccuracyResult &acc = check.accuracy();
    EXPECT_GT(nvm.totalWritesAbsorbed(), 0u);
    EXPECT_EQ(acc.nlTotal + acc.hlTotal + acc.faulted,
              ssd.requestsServed() - served0);
}

TEST(HybridTierTest, PurgeClearsBothTiers)
{
    ssd::SsdDevice ssd(ssdCfg());
    nvm::NvmDevice nvm(nvmCfg(64));
    HybridTier tier(ssd, nvm, nullptr, HybridMode::Baseline, {});
    SimTime t = tier.submit(makeWrite4k(5), sim::kTimeZero).completeTime;
    tier.purge(t);
    EXPECT_EQ(nvm.dirtyPages(), 0u);
    uint64_t payload = 0;
    EXPECT_FALSE(ssd.peekPage(5, &payload));
}

TEST(HybridTierTest, Names)
{
    ssd::SsdDevice ssd(ssdCfg());
    nvm::NvmDevice nvm(nvmCfg(64));
    HybridTier base(ssd, nvm, nullptr, HybridMode::Baseline, {});
    EXPECT_NE(base.name().find("baseline"), std::string::npos);
}

} // namespace
} // namespace ssdcheck::usecases
