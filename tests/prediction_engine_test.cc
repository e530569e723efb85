/** @file Unit tests for core/prediction_engine.h (EBT/EET logic). */
#include <gtest/gtest.h>

#include "blockdev/request.h"
#include "core/prediction_engine.h"

namespace ssdcheck::core {
namespace {

using blockdev::makeRead4k;
using blockdev::makeWrite4k;
using sim::kTimeZero;
using sim::microseconds;
using sim::milliseconds;
using sim::SimTime;

FeatureSet
backFeatures()
{
    FeatureSet fs;
    fs.bufferBytes = 4 * 4096; // 4-page buffer for short tests
    fs.bufferType = BufferTypeFeature::Back;
    fs.flushAlgorithms.fullTrigger = true;
    fs.observedFlushOverheadNs = milliseconds(2);
    return fs;
}

class EngineTest : public ::testing::Test
{
  protected:
    EngineTest()
        : calib_(), monitor_(), engine_(backFeatures(), calib_, monitor_)
    {
        calib_.seedFlushOverhead(milliseconds(2));
    }

    Calibrator calib_;
    LatencyMonitor monitor_;
    PredictionEngine engine_;
};

TEST_F(EngineTest, FreshEngineSingleVolume)
{
    EXPECT_EQ(engine_.numVolumes(), 1u);
    EXPECT_EQ(engine_.ebt(0), kTimeZero);
}

TEST_F(EngineTest, PlainWritePredictedNl)
{
    const Prediction p = engine_.predict(makeWrite4k(0), kTimeZero + microseconds(100));
    EXPECT_FALSE(p.hl);
    EXPECT_FALSE(p.flushExpected);
    EXPECT_EQ(p.eet, calib_.writeService());
}

TEST_F(EngineTest, FlushExpectedAtBufferCapacity)
{
    for (int i = 0; i < 3; ++i)
        engine_.onSubmit(makeWrite4k(i), kTimeZero + microseconds(i * 10));
    const Prediction p = engine_.predict(makeWrite4k(3), kTimeZero + microseconds(40));
    EXPECT_TRUE(p.flushExpected);
    // Back type: the triggering write itself is not delayed.
    EXPECT_FALSE(p.hl);
}

TEST_F(EngineTest, FlushRaisesEbtAndBlocksPredictedReads)
{
    for (int i = 0; i < 4; ++i)
        engine_.onSubmit(makeWrite4k(i), kTimeZero + microseconds(i * 10));
    EXPECT_GT(engine_.ebt(0), kTimeZero + microseconds(30));
    const Prediction p = engine_.predict(makeRead4k(100), kTimeZero + microseconds(40));
    EXPECT_TRUE(p.hl); // read during the predicted flush window
    EXPECT_GT(p.eet, microseconds(250));
}

TEST_F(EngineTest, ReadAfterPredictedFlushEndIsNl)
{
    for (int i = 0; i < 4; ++i)
        engine_.onSubmit(makeWrite4k(i), kTimeZero + microseconds(i * 10));
    const SimTime after = engine_.ebt(0) + microseconds(10);
    const Prediction p = engine_.predict(makeRead4k(100), after);
    EXPECT_FALSE(p.hl);
}

TEST_F(EngineTest, ForeTypeTriggerWritePredictedHl)
{
    FeatureSet fs = backFeatures();
    fs.bufferType = BufferTypeFeature::Fore;
    Calibrator calib;
    calib.seedFlushOverhead(milliseconds(2));
    LatencyMonitor monitor;
    PredictionEngine eng(fs, calib, monitor);
    for (int i = 0; i < 3; ++i)
        eng.onSubmit(makeWrite4k(i), kTimeZero + microseconds(i * 10));
    const Prediction p = eng.predict(makeWrite4k(3), kTimeZero + microseconds(40));
    EXPECT_TRUE(p.flushExpected);
    EXPECT_TRUE(p.hl); // fore: ack waits for the flush
}

TEST_F(EngineTest, ReadTriggerPredictsHlReadOnNonEmptyBuffer)
{
    FeatureSet fs = backFeatures();
    fs.flushAlgorithms.readTrigger = true;
    Calibrator calib;
    calib.seedFlushOverhead(milliseconds(2));
    LatencyMonitor monitor;
    PredictionEngine eng(fs, calib, monitor);
    eng.onSubmit(makeWrite4k(0), kTimeZero);
    const Prediction p = eng.predict(makeRead4k(9), kTimeZero + microseconds(10));
    EXPECT_TRUE(p.hl);
    EXPECT_TRUE(p.flushExpected);
    // Submitting the read consumes the modeled buffer and starts the
    // assumed flush; once that window passes, reads are NL again.
    eng.onSubmit(makeRead4k(9), kTimeZero + microseconds(10));
    const Prediction during = eng.predict(makeRead4k(9), kTimeZero + microseconds(20));
    EXPECT_TRUE(during.hl); // still inside the flush EBT window
    EXPECT_FALSE(during.flushExpected); // but no new flush expected
    const Prediction after =
        eng.predict(makeRead4k(9), eng.ebt(0) + microseconds(10));
    EXPECT_FALSE(after.hl);
}

TEST_F(EngineTest, VolumeSelectorRoutesByBits)
{
    FeatureSet fs = backFeatures();
    fs.allocationVolumeBits = {10};
    Calibrator calib;
    LatencyMonitor monitor;
    PredictionEngine eng(fs, calib, monitor);
    EXPECT_EQ(eng.numVolumes(), 2u);
    blockdev::IoRequest vol1 = makeWrite4k((1ULL << 10) / 8);
    EXPECT_EQ(eng.volumeOf(makeWrite4k(0)), 0u);
    EXPECT_EQ(eng.volumeOf(vol1), 1u);
    // Filling volume 0's buffer must not move volume 1's EBT.
    for (int i = 0; i < 4; ++i)
        eng.onSubmit(makeWrite4k(i), kTimeZero + microseconds(i));
    EXPECT_GT(eng.ebt(0), kTimeZero);
    EXPECT_EQ(eng.ebt(1), kTimeZero);
}

TEST_F(EngineTest, GcUnionBitsUsedForVolumes)
{
    FeatureSet fs = backFeatures();
    fs.allocationVolumeBits = {10};
    fs.gcVolumeBits = {10, 12};
    Calibrator calib;
    LatencyMonitor monitor;
    PredictionEngine eng(fs, calib, monitor);
    EXPECT_EQ(eng.numVolumes(), 4u);
}

TEST_F(EngineTest, OnCompleteClassifiesAndCalibrates)
{
    const auto w = makeWrite4k(0);
    const Prediction p = engine_.predict(w, kTimeZero);
    engine_.onSubmit(w, kTimeZero);
    const bool hl =
        engine_.onComplete(w, p, {kTimeZero, kTimeZero + microseconds(40)});
    EXPECT_FALSE(hl);
    // NL write observation moved the write-service EWMA toward 40us.
    EXPECT_NE(calib_.writeService(),
              CalibratorConfig{}.initialWriteService);
}

TEST_F(EngineTest, UnexpectedHlStreakResyncsBufferCounter)
{
    // Two consecutive unexpected HL completions reset the counter.
    engine_.onSubmit(makeWrite4k(0), kTimeZero);
    engine_.onSubmit(makeWrite4k(1), kTimeZero);
    EXPECT_EQ(engine_.wbModel(0).counter(), 2u);
    Prediction nl;
    nl.hl = false;
    engine_.onComplete(makeWrite4k(2), nl,
                       {kTimeZero + microseconds(10),
                        kTimeZero + microseconds(800)});
    EXPECT_EQ(engine_.wbModel(0).counter(), 2u); // first strike only
    engine_.onComplete(makeWrite4k(3), nl,
                       {kTimeZero + microseconds(900),
                        kTimeZero + microseconds(1700)});
    EXPECT_EQ(engine_.wbModel(0).counter(), 0u); // resynced
}

TEST_F(EngineTest, CorrectHlPredictionClearsStreak)
{
    engine_.onSubmit(makeWrite4k(0), kTimeZero);
    Prediction nl;
    nl.hl = false;
    Prediction hl;
    hl.hl = true;
    engine_.onComplete(makeWrite4k(1), nl,
                       {kTimeZero, kTimeZero + microseconds(800)});
    engine_.onComplete(makeRead4k(2), hl,
                       {kTimeZero + microseconds(900),
                        kTimeZero + microseconds(1900)});
    engine_.onComplete(makeWrite4k(3), nl,
                       {kTimeZero + microseconds(2000),
                        kTimeZero + microseconds(2800)});
    // Streak was interrupted: still only one strike, no resync.
    EXPECT_EQ(engine_.wbModel(0).counter(), 1u);
}

TEST_F(EngineTest, NlReadPullsBackOverpredictedEbt)
{
    for (int i = 0; i < 4; ++i)
        engine_.onSubmit(makeWrite4k(i), kTimeZero);
    const SimTime inflatedEbt = engine_.ebt(0);
    ASSERT_GT(inflatedEbt, kTimeZero);
    // An NL read completing earlier proves the device is idle.
    Prediction p;
    p.hl = false;
    engine_.onComplete(makeRead4k(50), p,
                       {kTimeZero + microseconds(10),
                        kTimeZero + microseconds(100)});
    EXPECT_LE(engine_.ebt(0), kTimeZero + microseconds(100));
}

TEST_F(EngineTest, GcObservationFeedsGcModel)
{
    Prediction p;
    p.hl = true;
    engine_.onComplete(makeWrite4k(0), p,
                       {kTimeZero, kTimeZero + milliseconds(20)});
    EXPECT_EQ(engine_.gcModel(0).history().size(), 1u);
}

} // namespace
} // namespace ssdcheck::core
