/** @file Tests for the model-component ablation switches. */
#include <gtest/gtest.h>

#include "core/ssdcheck.h"
#include "recovery/shard.h"
#include "ssd/presets.h"
#include "ssd/ssd_device.h"
#include "workload/synthetic.h"

namespace ssdcheck::core {
namespace {

using recovery::evaluatePredictionAccuracy;

FeatureSet
twoVolumeFeatures()
{
    FeatureSet fs;
    fs.allocationVolumeBits = {17};
    fs.gcVolumeBits = {17};
    fs.bufferBytes = 128 * 1024;
    fs.bufferType = BufferTypeFeature::Back;
    fs.flushAlgorithms.fullTrigger = true;
    fs.observedFlushOverheadNs = sim::microseconds(400);
    return fs;
}

TEST(AblationTest, VolumeModelOffCollapsesToOneVolume)
{
    RuntimeConfig rc;
    rc.useVolumeModel = false;
    SsdCheck check(twoVolumeFeatures(), rc);
    ASSERT_NE(check.engine(), nullptr);
    EXPECT_EQ(check.engine()->numVolumes(), 1u);
}

TEST(AblationTest, VolumeModelOnUsesDiagnosedBits)
{
    SsdCheck check(twoVolumeFeatures());
    ASSERT_NE(check.engine(), nullptr);
    EXPECT_EQ(check.engine()->numVolumes(), 2u);
}

TEST(AblationTest, GcModelOffNeverExpectsGc)
{
    RuntimeConfig rc;
    rc.useGcModel = false;
    SsdCheck check(twoVolumeFeatures(), rc);
    // Feed plenty of observed GC events: still no expectation.
    Prediction hl;
    hl.hl = true;
    for (int i = 0; i < 50; ++i) {
        check.onSubmit(blockdev::makeWrite4k(0), sim::SimTime{i * 1000});
        check.onComplete(blockdev::makeWrite4k(0), hl,
                         sim::SimTime{i * 1000},
                         sim::SimTime{i * 1000} + sim::milliseconds(20));
    }
    EXPECT_FALSE(check.engine()->gcModel(0).gcExpectedOnNextFlush());
}

TEST(AblationTest, CalibratorOffSkipsResync)
{
    RuntimeConfig rc;
    rc.useCalibrator = false;
    SsdCheck check(twoVolumeFeatures(), rc);
    // Two consecutive unexpected HL writes would normally resync the
    // buffer counter to zero; with the calibrator off they must not.
    check.onSubmit(blockdev::makeWrite4k(0), sim::kTimeZero);
    check.onSubmit(blockdev::makeWrite4k(1), sim::kTimeZero);
    Prediction nl; // predicted NL, observed HL
    check.onComplete(blockdev::makeWrite4k(2), nl, sim::kTimeZero,
                     sim::kTimeZero + sim::microseconds(900));
    check.onComplete(blockdev::makeWrite4k(3), nl,
                     sim::kTimeZero + sim::milliseconds(1),
                     sim::kTimeZero + sim::milliseconds(2));
    EXPECT_EQ(check.engine()->wbModel(0).counter(), 2u);
}

TEST(AblationTest, VolumeModelMattersOnMultiVolumeDevice)
{
    // End-to-end: on SSD E (4 volumes), disabling the volume model
    // must wreck HL accuracy (paper §V-B: "extremely low").
    auto run = [&](bool useVolumeModel) {
        ssd::SsdDevice dev(ssd::makePreset(ssd::SsdModel::E));
        DiagnosisRunner runner(dev, DiagnosisConfig{});
        const FeatureSet fs = runner.extractFeatures();
        RuntimeConfig rc;
        rc.useVolumeModel = useVolumeModel;
        SsdCheck check(fs, rc);
        const auto trace = workload::buildRwMixedTrace(
            80000, dev.capacityPages(), 21);
        return evaluatePredictionAccuracy(dev, check, trace, runner.now())
            .hlAccuracy();
    };
    const double with = run(true);
    const double without = run(false);
    EXPECT_GT(with, without * 2.0);
    EXPECT_LT(without, 0.25);
}

} // namespace
} // namespace ssdcheck::core
