#include "core/prediction_engine.h"

#include <algorithm>
#include <cassert>

#include "recovery/state_io.h"

namespace ssdcheck::core {

PredictionEngine::PredictionEngine(const FeatureSet &features,
                                   Calibrator &calibrator,
                                   LatencyMonitor &monitor,
                                   GcModelConfig gcCfg, Options options)
    : features_(features), volumeBits_(features.volumeBits()),
      calibrator_(calibrator), monitor_(monitor), options_(options),
      fore_(features.bufferType == BufferTypeFeature::Fore)
{
    if (!options_.useVolumeModel)
        volumeBits_.clear(); // treat the device as one volume
    if (!options_.useGcModel)
        gcCfg.minHistory = ~0u; // prediction threshold never reached
    assert(features.bufferModelUsable());
    const uint32_t n = 1u << volumeBits_.size();
    volumes_.reserve(n);
    for (uint32_t v = 0; v < n; ++v) {
        volumes_.push_back(VolumeState{
            WriteBufferModel(features.bufferPages(),
                             features.flushAlgorithms.readTrigger),
            GcModel(gcCfg), SecondaryModel(gcCfg), sim::kTimeZero});
    }
}

uint32_t
PredictionEngine::volumeOf(const blockdev::IoRequest &req) const
{
    return volumeIndexOf(volumeBits_, req.lba);
}

Prediction
PredictionEngine::predict(const blockdev::IoRequest &req,
                          sim::SimTime now) const
{
    const VolumeState &s = volumes_[volumeOf(req)];
    const sim::SimDuration queueWait =
        std::max<sim::SimDuration>(0, s.ebt - now);

    Prediction p;
    if (req.isWrite()) {
        const sim::SimDuration svc = calibrator_.writeService();
        if (s.wb.wouldFlushOnWrite(req.pages())) {
            p.flushExpected = true;
            p.gcExpected = options_.useSecondaryModel
                               ? s.sec.eventExpectedOnNextFlush()
                               : s.gc.gcExpectedOnNextFlush();
            if (fore_) {
                // Fore buffers acknowledge after the flush (and any
                // GC riding on it).
                p.eet = queueWait + calibrator_.flushOverhead() +
                        (p.gcExpected ? calibrator_.gcOverhead() : 0) + svc;
            } else {
                // Back buffers only stall on backpressure: the prior
                // flush/GC still occupying the NAND.
                p.eet = queueWait + svc;
            }
        } else {
            p.eet = svc;
        }
        p.hl = p.eet > monitor_.thresholds().write;
    } else {
        const sim::SimDuration svc = calibrator_.readService();
        if (s.wb.wouldFlushOnRead()) {
            p.flushExpected = true;
            p.gcExpected = options_.useSecondaryModel
                               ? s.sec.eventExpectedOnNextFlush()
                               : s.gc.gcExpectedOnNextFlush();
            p.eet = queueWait + calibrator_.flushOverhead() +
                    (p.gcExpected ? calibrator_.gcOverhead() : 0) + svc;
        } else {
            p.eet = queueWait + svc;
        }
        p.hl = p.eet > monitor_.thresholds().read;
    }
    return p;
}

void
PredictionEngine::applyFlush(VolumeState &s, sim::SimTime now)
{
    // Charge the GC overhead at most once per expected GC cycle;
    // otherwise consecutive flushes past the interval quantile stack
    // 30ms charges and EBT runs away on write-only streams.
    sim::SimDuration gcCharge = 0;
    if (options_.useSecondaryModel) {
        if (s.sec.eventExpectedOnNextFlush() && !s.gcCharged) {
            gcCharge = s.sec.expectedOverhead();
            s.gcCharged = true;
        }
        s.sec.onFlush();
    } else if (s.gc.gcExpectedOnNextFlush() && !s.gcCharged) {
        gcCharge = calibrator_.gcOverhead();
        s.gcCharged = true;
    }
    s.gc.onFlush();
    const sim::SimTime flushStart = std::max(now, s.ebt);
    s.ebt = flushStart + calibrator_.flushOverhead() + gcCharge;
}

void
PredictionEngine::onSubmit(const blockdev::IoRequest &req, sim::SimTime now)
{
    VolumeState &s = volumes_[volumeOf(req)];
    // A pending GC charge whose busy window has fully passed was
    // either avoided (the host steered around it) or wrong; allow the
    // next expected GC to be charged again.
    if (s.gcCharged && now > s.ebt)
        s.gcCharged = false;
    bool flushed = false;
    if (req.isWrite())
        flushed = s.wb.onWriteSubmitted(req.pages());
    else if (req.isRead())
        flushed = s.wb.onReadSubmitted();
    if (flushed)
        applyFlush(s, now);
}

bool
PredictionEngine::onComplete(const blockdev::IoRequest &req,
                             const Prediction &pred,
                             const blockdev::IoResult &res)
{
    VolumeState &s = volumes_[volumeOf(req)];
    const sim::SimDuration latency = res.latency();
    const bool actualHl = monitor_.isHighLatency(req, latency);

    // Failed or host-retried exchanges carry retry-loop and backoff
    // time, not device service time. Letting them into the EWMAs
    // would poison every later EET; letting them into the accuracy
    // window would charge the model for the device's errors.
    if (!res.clean())
        return actualHl;

    // Calibration: route the observation to the right estimator.
    if (monitor_.isGcEvent(latency)) {
        calibrator_.observeGcEvent(latency);
        s.gc.onGcObserved();
        if (options_.useSecondaryModel)
            s.sec.onEventObserved(latency);
        s.gcCharged = false; // the expected GC materialized
    } else if (actualHl) {
        calibrator_.observeFlushEvent(latency);
    } else if (req.isRead()) {
        calibrator_.observeNlRead(latency);
    } else if (req.isWrite()) {
        calibrator_.observeNlWrite(latency);
    }

    if (!options_.useCalibrator) {
        monitor_.record(pred.hl, actualHl);
        return actualHl;
    }

    if (actualHl) {
        // The device was demonstrably busy until this completion.
        s.ebt = std::max(s.ebt, res.completeTime);
        // Buffer-model discrepancy (paper §III-C2): HL requests the
        // model did not expect mean flushes are happening off-phase —
        // resynchronize the counter. One unexpected HL can be a
        // one-off unmodeled stall (resetting on those would wreck a
        // correct phase), but a true phase error produces an
        // unexpected HL on *every* flush, so two in a row without a
        // correct HL prediction in between is the resync trigger.
        if (!pred.hl) {
            // GC-class events also ride on a flush, so they resync
            // the counter just as well.
            if (++s.unexpectedHlStreak >= 2) {
                s.wb.resetCounter();
                s.unexpectedHlStreak = 0;
                calibrator_.noteBufferResync();
            }
        } else {
            s.unexpectedHlStreak = 0; // phase confirmed
        }
    } else if (req.isRead()) {
        // An NL read that touched NAND proves the volume is idle now;
        // pull back any over-predicted busy window (e.g. a GC that
        // did not materialize).
        s.ebt = std::min(s.ebt, res.completeTime);
    }

    monitor_.record(pred.hl, actualHl);
    if (calibrator_.onAccuracySample(monitor_.rollingHlAccuracy(),
                                     monitor_.rollingHlCount())) {
        for (auto &v : volumes_) {
            v.gc.resetHistory();
            v.sec.resetHistory();
        }
    }
    return actualHl;
}

sim::SimTime
PredictionEngine::ebt(uint32_t volume) const
{
    assert(volume < volumes_.size());
    return volumes_[volume].ebt;
}

const GcModel &
PredictionEngine::gcModel(uint32_t volume) const
{
    assert(volume < volumes_.size());
    return volumes_[volume].gc;
}

const WriteBufferModel &
PredictionEngine::wbModel(uint32_t volume) const
{
    assert(volume < volumes_.size());
    return volumes_[volume].wb;
}

const SecondaryModel &
PredictionEngine::secondaryModel(uint32_t volume) const
{
    assert(volume < volumes_.size());
    return volumes_[volume].sec;
}

void
PredictionEngine::saveState(recovery::StateWriter &w) const
{
    w.u32(static_cast<uint32_t>(volumes_.size()));
    for (const VolumeState &s : volumes_) {
        s.wb.saveState(w);
        s.gc.saveState(w);
        s.sec.saveState(w);
        w.i64(s.ebt.ns());
        w.u32(s.unexpectedHlStreak);
        w.boolean(s.gcCharged);
    }
}

bool
PredictionEngine::loadState(recovery::StateReader &r)
{
    const uint32_t n = r.u32();
    if (r.ok() && n != volumes_.size()) {
        r.fail("engine volume count does not match restored features");
        return false;
    }
    for (VolumeState &s : volumes_) {
        if (!s.wb.loadState(r) || !s.gc.loadState(r) ||
            !s.sec.loadState(r))
            return false;
        s.ebt = sim::SimTime{r.i64()};
        s.unexpectedHlStreak = r.u32();
        s.gcCharged = r.boolean();
    }
    return r.ok();
}

} // namespace ssdcheck::core
