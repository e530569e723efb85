/**
 * @file End-to-end integration tests: full pipelines combining the
 * use cases with diagnosis and the runtime model — regression guards
 * for the headline claims (VA-LVM isolation, PAS tail reduction,
 * Hybrid-PAS steady throughput).
 */
#include <gtest/gtest.h>

#include "core/ssdcheck.h"
#include "nvm/nvm_device.h"
#include "recovery/shard.h"
#include "ssd/presets.h"
#include "ssd/ssd_device.h"
#include "usecases/hybrid.h"
#include "usecases/lvm.h"
#include "usecases/pas.h"
#include "usecases/runner.h"
#include "usecases/scheduler.h"
#include "workload/snia_synth.h"
#include "workload/synthetic.h"

namespace ssdcheck {
namespace {

using core::FeatureSet;
using core::SsdCheck;
using ssd::makePreset;
using ssd::SsdDevice;
using ssd::SsdModel;
using usecases::HybridConfig;
using usecases::HybridMode;
using usecases::HybridTier;

/** Multi-tenant read+write pair on SSD D: VA-LVM must beat Linear. */
TEST(EndToEndTest, VaLvmIsolatesTenantsOnSsdD)
{
    const auto writeTrace = workload::buildSniaTrace(
        workload::SniaWorkload::Web, 12 * 1024, 0.02, 1);
    const auto readTrace = workload::buildSniaTrace(
        workload::SniaWorkload::Exch, 12 * 1024, 0.01, 2);

    auto runPair = [&](bool volumeAware) {
        SsdDevice dev(makePreset(SsdModel::D));
        dev.precondition();
        auto vols = volumeAware
                        ? usecases::makeVolumeAwareVolumes(
                              dev, dev.config().volumeBits)
                        : usecases::makeLinearVolumes(dev, 2);
        return usecases::runClosedLoop(
            {{.trace = &readTrace, .dev = vols[0].get(), .name = "read"},
             // The writer loops: sustained colocation pressure.
             {.trace = &writeTrace,
              .dev = vols[1].get(),
              .name = "write",
              .loop = true}},
            sim::kTimeZero);
    };

    const auto linear = runPair(false);
    const auto va = runPair(true);
    // The read-intensive tenant must gain throughput and shed tail
    // latency under VA-LVM (paper Fig. 12 direction).
    EXPECT_GT(va[0].throughputMbps(), linear[0].throughputMbps() * 1.2);
    EXPECT_LT(va[0].readLatency.percentile(99.5),
              linear[0].readLatency.percentile(99.5));
}

/** PAS must cut the read tail vs noop on a fore/read-trigger device. */
TEST(EndToEndTest, PasReducesReadTailOnSsdF)
{
    auto trace = workload::buildSniaTrace(workload::SniaWorkload::Build,
                                          32 * 1024, 0.05, 3);
    auto runWith = [&](bool pas) {
        SsdDevice dev(makePreset(SsdModel::F));
        core::DiagnosisRunner runner(dev, core::DiagnosisConfig{});
        const FeatureSet fs = runner.extractFeatures();
        SsdCheck check(fs);
        auto paced = trace;
        sim::Rng rng(4);
        paced.assignPoissonArrivals(5000.0, rng);
        if (pas) {
            usecases::PasScheduler sched(check);
            return usecases::runScheduled(dev, sched, paced, runner.now(),
                                          &check);
        }
        usecases::NoopScheduler sched;
        return usecases::runScheduled(dev, sched, paced, runner.now(),
                                      &check);
    };
    const auto noop = runWith(false);
    const auto pas = runWith(true);
    EXPECT_LT(pas.stream.readLatency.percentile(98),
              noop.stream.readLatency.percentile(98));
}

/** Ideal PAS bounds SSDcheck-driven PAS (paper Fig. 14 "ideal"). */
TEST(EndToEndTest, IdealPasAtLeastAsGoodAsPas)
{
    auto trace = workload::buildSniaTrace(workload::SniaWorkload::Exch,
                                          32 * 1024, 0.01, 5);
    SsdDevice devP(makePreset(SsdModel::G));
    core::DiagnosisRunner runnerP(devP, core::DiagnosisConfig{});
    const FeatureSet fs = runnerP.extractFeatures();
    SsdCheck check(fs);
    auto paced = trace;
    sim::Rng rng(6);
    paced.assignPoissonArrivals(5000.0, rng);
    usecases::PasScheduler pas(check);
    const auto pasRes =
        usecases::runScheduled(devP, pas, paced, runnerP.now(), &check);

    // Match device states: the PAS device ended its diagnosis on a
    // sequential fill, so give the ideal run the same starting point.
    SsdDevice devI(makePreset(SsdModel::G));
    core::DiagnosisRunner runnerI(devI, core::DiagnosisConfig{});
    runnerI.sequentialFill();
    usecases::IdealPasScheduler ideal(devI);
    const auto idealRes =
        usecases::runScheduled(devI, ideal, paced, runnerI.now(), nullptr);

    // Ideal (oracle) tail latency is no worse than 1.3x PAS's tail —
    // i.e. PAS pays a bounded misprediction cost (paper §V-D).
    EXPECT_LT(idealRes.stream.readLatency.percentile(98),
              static_cast<double>(
                  pasRes.stream.readLatency.percentile(98)) * 1.3);
}

/**
 * Hybrid PAS vs the always-NVM baseline (Fig. 15): the baseline rides
 * the NVM until the pool exhausts and then collapses onto the
 * irregular SSD; Hybrid PAS is consistent from the start, matches the
 * collapsed baseline's steady state, eliminates backpressure events,
 * and carries less NVM pressure. (Steady-state *throughput* parity is
 * a conservation property of a closed loop — see EXPERIMENTS.md.)
 */
TEST(EndToEndTest, HybridPasConsistentAndBaselineCliffs)
{
    const auto trace =
        workload::buildRandomWriteTrace(100000, 128 * 1024, 7);
    struct Out
    {
        double firstThirdMbps = 0.0;
        double lastThirdMbps = 0.0;
        uint64_t nvmPressure = 0;
        uint64_t backpressure = 0;
    };
    auto run = [&](HybridMode mode) {
        SsdDevice ssd(makePreset(SsdModel::C));
        core::DiagnosisRunner runner(ssd, core::DiagnosisConfig{});
        const FeatureSet fs = runner.extractFeatures();
        runner.precondition(); // GC steady state for both modes
        SsdCheck check(fs);
        nvm::NvmConfig ncfg;
        ncfg.capacityPages = 4096;
        nvm::NvmDevice nvm(ncfg);
        HybridConfig hcfg;
        hcfg.bufferWeight = 0.15; // W*R <= drain at our scaled rates
        hcfg.drainPeriod = sim::microseconds(800);
        hcfg.drainBatchPages = 1;
        HybridTier tier(ssd, nvm,
                        mode == HybridMode::HybridPas ? &check : nullptr,
                        mode, hcfg);
        const auto res = usecases::runClosedLoop(
            {{.trace = &trace,
              .dev = &tier,
              .thinktime = sim::microseconds(100)}},
            runner.now())[0];
        Out out;
        const size_t w = res.timeline.numWindows();
        size_t n1 = 0, n3 = 0;
        // "First" = the opening NVM era (a few 100ms windows).
        for (size_t i = 0; i < std::min<size_t>(5, w / 3); ++i, ++n1)
            out.firstThirdMbps += res.timeline.mbps(i);
        for (size_t i = (w * 2) / 3; i < w; ++i, ++n3)
            out.lastThirdMbps += res.timeline.mbps(i);
        out.firstThirdMbps /= static_cast<double>(std::max<size_t>(1, n1));
        out.lastThirdMbps /= static_cast<double>(std::max<size_t>(1, n3));
        out.nvmPressure = tier.nvmWritePages();
        out.backpressure = tier.backpressureWrites();
        return out;
    };
    const auto baseline = run(HybridMode::Baseline);
    const auto hybrid = run(HybridMode::HybridPas);

    // (a) The baseline cliffs hard once the NVM pool exhausts.
    EXPECT_GT(baseline.firstThirdMbps, baseline.lastThirdMbps * 2.0);
    // (b) Hybrid PAS is consistent: no comparable collapse.
    EXPECT_LT(hybrid.firstThirdMbps, hybrid.lastThirdMbps * 1.8);
    // (c) Its steady state at least matches the collapsed baseline.
    EXPECT_GT(hybrid.lastThirdMbps, baseline.lastThirdMbps * 0.9);
    // (d) Selective delivery removes backpressure and NVM pressure.
    EXPECT_LT(hybrid.backpressure, baseline.backpressure / 4 + 1);
    EXPECT_LT(hybrid.nvmPressure, baseline.nvmPressure);
}

/** The full quickstart pipeline stays healthy on every preset. */
class PipelineTest : public ::testing::TestWithParam<SsdModel>
{
};

TEST_P(PipelineTest, DiagnoseModelPredict)
{
    SsdDevice dev(makePreset(GetParam()));
    core::DiagnosisRunner runner(dev, core::DiagnosisConfig{});
    const FeatureSet fs = runner.extractFeatures();
    ASSERT_TRUE(fs.bufferModelUsable()) << fs.summary();
    SsdCheck check(fs);
    EXPECT_TRUE(check.enabled());
    const auto trace =
        workload::buildRwMixedTrace(30000, dev.capacityPages(), 11);
    const auto acc =
        recovery::evaluatePredictionAccuracy(dev, check, trace,
                                             runner.now());
    EXPECT_GT(acc.nlAccuracy(), 0.9);
    EXPECT_TRUE(check.enabled()); // never auto-disabled on its own fleet
}

INSTANTIATE_TEST_SUITE_P(AllPresets, PipelineTest,
                         ::testing::ValuesIn(ssd::allModels()),
                         [](const auto &info) {
                             return "SSD_" + ssd::toString(info.param);
                         });

} // namespace
} // namespace ssdcheck
