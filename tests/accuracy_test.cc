/**
 * @file Integration tests: prediction accuracy floors per device
 * (Fig. 11 regression guards).
 */
#include <gtest/gtest.h>

#include <ostream>

#include "core/ssdcheck.h"
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

struct Floors
{
    SsdModel model;
    double nlFloor;
    double hlFloor;
};

// gtest would otherwise print the raw bytes of Floors, padding included,
// and those uninitialized bytes end up in the listed test names.
void PrintTo(const Floors &f, std::ostream *os)
{
    *os << "SSD " << ssd::toString(f.model) << " (NL > " << f.nlFloor
        << ", HL > " << f.hlFloor << ")";
}

class AccuracyFloorTest : public ::testing::TestWithParam<Floors>
{
};

TEST_P(AccuracyFloorTest, RwMixedMeetsFloors)
{
    const Floors f = GetParam();
    SsdDevice dev(makePreset(f.model));
    DiagnosisRunner runner(dev, DiagnosisConfig{});
    const FeatureSet fs = runner.extractFeatures();
    ASSERT_TRUE(fs.bufferModelUsable());
    SsdCheck check(fs);
    const auto trace = workload::buildRwMixedTrace(
        120000, dev.capacityPages(), 77);
    const AccuracyResult acc =
        evaluatePredictionAccuracy(dev, check, trace, runner.now());
    EXPECT_GT(acc.nlAccuracy(), f.nlFloor) << ssd::toString(f.model);
    EXPECT_GT(acc.hlAccuracy(), f.hlFloor) << ssd::toString(f.model);
    EXPECT_GT(acc.hlTotal, 100u); // the workload must exercise HL paths
}

// Floors sit safely below the measured values (see EXPERIMENTS.md)
// while still catching regressions of the model.
INSTANTIATE_TEST_SUITE_P(
    Fig11, AccuracyFloorTest,
    ::testing::Values(Floors{SsdModel::A, 0.99, 0.70},
                      Floors{SsdModel::B, 0.99, 0.70},
                      Floors{SsdModel::C, 0.99, 0.55},
                      Floors{SsdModel::D, 0.98, 0.45},
                      Floors{SsdModel::E, 0.98, 0.25},
                      Floors{SsdModel::F, 0.95, 0.90},
                      Floors{SsdModel::G, 0.95, 0.90}),
    [](const auto &info) { return "SSD_" + ssd::toString(info.param.model); });

TEST(AccuracyTest, DisabledCheckPredictsEverythingNl)
{
    SsdDevice dev(makePreset(SsdModel::A));
    dev.precondition();
    FeatureSet empty; // no usable buffer model
    SsdCheck check(empty);
    EXPECT_FALSE(check.enabled());
    const auto trace =
        workload::buildRwMixedTrace(20000, dev.capacityPages(), 3);
    const AccuracyResult acc =
        evaluatePredictionAccuracy(dev, check, trace, sim::kTimeZero);
    // Harmless: NL perfect, HL entirely missed.
    EXPECT_DOUBLE_EQ(acc.nlAccuracy(), 1.0);
    EXPECT_DOUBLE_EQ(acc.hlAccuracy(), 0.0);
}

TEST(AccuracyTest, ResultArithmetic)
{
    AccuracyResult r;
    r.nlTotal = 90;
    r.nlCorrect = 81;
    r.hlTotal = 10;
    r.hlCorrect = 7;
    EXPECT_DOUBLE_EQ(r.nlAccuracy(), 0.9);
    EXPECT_DOUBLE_EQ(r.hlAccuracy(), 0.7);
    EXPECT_DOUBLE_EQ(r.hlFraction(), 0.1);
    const AccuracyResult empty;
    EXPECT_DOUBLE_EQ(empty.nlAccuracy(), 1.0);
    EXPECT_DOUBLE_EQ(empty.hlAccuracy(), 1.0);
    EXPECT_DOUBLE_EQ(empty.hlFraction(), 0.0);
}

TEST(AccuracyTest, WriteIntensiveTraceKeepsNlHigh)
{
    SsdDevice dev(makePreset(SsdModel::A));
    DiagnosisRunner runner(dev, DiagnosisConfig{});
    const FeatureSet fs = runner.extractFeatures();
    SsdCheck check(fs);
    const auto trace = workload::buildSniaTrace(
        workload::SniaWorkload::Web, dev.capacityPages(), 0.03);
    const AccuracyResult acc =
        evaluatePredictionAccuracy(dev, check, trace, runner.now());
    EXPECT_GT(acc.nlAccuracy(), 0.98);
}

TEST(AccuracyTest, NvmBackedSsdPredictable)
{
    // Paper §VI claim, end to end: diagnosis + model on the
    // NVM-medium device reach useful accuracy.
    SsdDevice dev(ssd::makeNvmBackedSsd());
    DiagnosisRunner runner(dev, DiagnosisConfig{});
    const FeatureSet fs = runner.extractFeatures();
    ASSERT_TRUE(fs.bufferModelUsable());
    SsdCheck check(fs);
    const auto trace =
        workload::buildRwMixedTrace(80000, dev.capacityPages(), 13);
    const AccuracyResult acc =
        evaluatePredictionAccuracy(dev, check, trace, runner.now());
    EXPECT_GT(acc.nlAccuracy(), 0.98);
    EXPECT_GT(acc.hlAccuracy(), 0.5);
    EXPECT_GT(acc.hlTotal, 50u);
}

TEST(AccuracyTest, EndTimeReported)
{
    SsdDevice dev(makePreset(SsdModel::A));
    dev.precondition();
    FeatureSet fs;
    fs.bufferBytes = 248 * 1024;
    fs.bufferType = BufferTypeFeature::Back;
    fs.flushAlgorithms.fullTrigger = true;
    SsdCheck check(fs);
    const auto trace =
        workload::buildRandomWriteTrace(1000, dev.capacityPages(), 5);
    sim::SimTime end;
    evaluatePredictionAccuracy(dev, check, trace,
                               sim::kTimeZero + sim::seconds(1), &end);
    EXPECT_GT(end, sim::kTimeZero + sim::seconds(1));
}

} // namespace
} // namespace ssdcheck::core
