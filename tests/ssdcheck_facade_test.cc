/** @file Unit tests for the core/ssdcheck.h facade. */
#include <gtest/gtest.h>

#include "core/ssdcheck.h"
#include "ssd/presets.h"
#include "ssd/ssd_device.h"

namespace ssdcheck::core {
namespace {

using blockdev::makeRead4k;
using blockdev::makeWrite4k;
using sim::microseconds;
using sim::milliseconds;

FeatureSet
usableFeatures()
{
    FeatureSet fs;
    fs.bufferBytes = 16 * 4096;
    fs.bufferType = BufferTypeFeature::Back;
    fs.flushAlgorithms.fullTrigger = true;
    fs.observedFlushOverheadNs = milliseconds(1);
    return fs;
}

TEST(SsdCheckFacadeTest, UnusableFeaturesDisablePrediction)
{
    SsdCheck check(FeatureSet{});
    EXPECT_FALSE(check.enabled());
    EXPECT_EQ(check.engine(), nullptr);
    // Predictions are harmless NL.
    const Prediction p = check.predict(makeRead4k(1), sim::kTimeZero);
    EXPECT_FALSE(p.hl);
    // Completions still classify correctly.
    EXPECT_TRUE(check.onComplete(makeRead4k(1), p, sim::kTimeZero,
                                 sim::kTimeZero + milliseconds(5)));
    EXPECT_FALSE(check.onComplete(makeRead4k(1), p, sim::kTimeZero,
                                  sim::kTimeZero + microseconds(100)));
}

TEST(SsdCheckFacadeTest, UsableFeaturesEnablePrediction)
{
    SsdCheck check(usableFeatures());
    EXPECT_TRUE(check.enabled());
    ASSERT_NE(check.engine(), nullptr);
    EXPECT_EQ(check.engine()->numVolumes(), 1u);
}

TEST(SsdCheckFacadeTest, GcThresholdAdaptsToObservedFlushOverhead)
{
    // Default gc threshold is 3ms; with a diagnosed 2.5ms flush
    // overhead it must scale to 3x that so long flushes are not
    // mistaken for GC.
    FeatureSet fs = usableFeatures();
    fs.observedFlushOverheadNs = sim::microseconds(2500);
    SsdCheck check(fs);
    EXPECT_EQ(check.monitor().thresholds().gc, 3 * sim::microseconds(2500));

    // A small flush overhead keeps the configured default.
    FeatureSet fs2 = usableFeatures();
    fs2.observedFlushOverheadNs = sim::microseconds(400);
    SsdCheck check2(fs2);
    EXPECT_EQ(check2.monitor().thresholds().gc, milliseconds(3));
}

TEST(SsdCheckFacadeTest, SeededFlushOverheadReachesCalibrator)
{
    FeatureSet fs = usableFeatures();
    fs.observedFlushOverheadNs = milliseconds(7);
    SsdCheck check(fs);
    EXPECT_EQ(check.calibrator().flushOverhead(), milliseconds(7));
}

TEST(SsdCheckFacadeTest, ClassifyActualUsesThresholds)
{
    SsdCheck check(usableFeatures());
    EXPECT_FALSE(check.classifyActual(makeRead4k(0), microseconds(250)));
    EXPECT_TRUE(check.classifyActual(makeRead4k(0), microseconds(251)));
}

TEST(SsdCheckFacadeTest, UnusableModelScoresEveryCompletionAsNl)
{
    SsdCheck check(FeatureSet{});
    ASSERT_EQ(check.engine(), nullptr);
    const auto req = makeRead4k(1);
    const Prediction p = check.predict(req, sim::kTimeZero);
    ASSERT_FALSE(p.hl);
    check.onComplete(req, p, sim::kTimeZero,
                     sim::kTimeZero + microseconds(100)); // NL
    check.onComplete(req, p, sim::kTimeZero,
                     sim::kTimeZero + milliseconds(5)); // HL
    check.onComplete(req, p, sim::kTimeZero,
                     sim::kTimeZero + milliseconds(5),
                     blockdev::IoStatus::MediaError, 1); // faulted
    check.onComplete(req, p, sim::kTimeZero,
                     sim::kTimeZero + microseconds(100),
                     blockdev::IoStatus::Ok, 2); // retried: faulted
    const AccuracyResult want{1, 1, 1, 0, 2};
    EXPECT_EQ(check.accuracy(), want);
}

TEST(SsdCheckFacadeTest, HotSwapKeepsAccuracy)
{
    SsdCheck check(usableFeatures());
    sim::SimTime t;
    for (int i = 0; i < 64; ++i) {
        const auto req = makeWrite4k(i);
        const Prediction p = check.predict(req, t);
        check.onSubmit(req, t);
        const sim::SimDuration lat =
            i % 16 == 15 ? milliseconds(1) : microseconds(40);
        check.onComplete(req, p, t, t + lat);
        t += lat;
    }
    const AccuracyResult before = check.accuracy();
    ASSERT_EQ(before.nlTotal + before.hlTotal, 64u);
    ASSERT_GT(before.hlTotal, 0u);
    check.hotSwapModel(usableFeatures());
    EXPECT_EQ(check.accuracy(), before);
}

TEST(SsdCheckFacadeTest, PredictIsSideEffectFree)
{
    SsdCheck check(usableFeatures());
    for (int i = 0; i < 100; ++i)
        check.predict(makeWrite4k(i), sim::SimTime{i});
    // No submissions happened: the buffer counter is untouched.
    EXPECT_EQ(check.engine()->wbModel(0).counter(), 0u);
}

TEST(SsdCheckFacadeTest, AutoDisableAfterSustainedFailure)
{
    RuntimeConfig rc;
    rc.calibrator.disableAccuracy = 0.5;
    rc.calibrator.disableAfter = 200;
    rc.calibrator.minHlEvents = 10;
    rc.accuracyWindow = 100;
    SsdCheck check(usableFeatures(), rc);
    // Stream of HL completions the model never predicted.
    Prediction nl;
    sim::SimTime t;
    for (int i = 0; i < 600 && check.enabled(); ++i) {
        t += milliseconds(1);
        check.onComplete(makeRead4k(5), nl, t, t + microseconds(800));
    }
    EXPECT_FALSE(check.enabled());
    // Harmlessly off: everything predicted NL now.
    EXPECT_FALSE(check.predict(makeRead4k(5), t).hl);
}

} // namespace
} // namespace ssdcheck::core
