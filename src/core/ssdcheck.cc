#include "core/ssdcheck.h"

#include <algorithm>

#include "recovery/state_io.h"

namespace ssdcheck::core {

namespace {

/**
 * GC events must be separable from plain buffer flushes by latency
 * (paper fn. 2). A fixed bound misclassifies devices whose flushes
 * are long, so scale the bound with the flush overhead the diagnosis
 * observed (mean blocked-request latency is about half the flush
 * window, so 3x clears the whole window with margin).
 */
LatencyThresholds
adaptThresholds(LatencyThresholds t, const FeatureSet &fs)
{
    if (fs.observedFlushOverheadNs > 0)
        t.gc = std::max<sim::SimDuration>(t.gc,
                                          3 * fs.observedFlushOverheadNs);
    return t;
}

} // namespace

SsdCheck::SsdCheck(FeatureSet features, RuntimeConfig cfg)
    : features_(std::move(features)), cfg_(cfg), calibrator_(cfg.calibrator),
      monitor_(adaptThresholds(cfg.thresholds, features_),
               cfg.accuracyWindow)
{
    rebuildEngine();
}

void
SsdCheck::rebuildEngine()
{
    engine_.reset();
    if (!features_.bufferModelUsable())
        return;
    calibrator_.seedFlushOverhead(features_.observedFlushOverheadNs);
    PredictionEngine::Options opts;
    opts.useVolumeModel = cfg_.useVolumeModel;
    opts.useGcModel = cfg_.useGcModel;
    opts.useCalibrator = cfg_.useCalibrator;
    opts.useSecondaryModel = cfg_.useSecondaryModel;
    engine_ = std::make_unique<PredictionEngine>(features_, calibrator_,
                                                 monitor_, cfg_.gcModel,
                                                 opts);
}

void
SsdCheck::hotSwapModel(FeatureSet features)
{
    features_ = std::move(features);
    // The old window scored the old model; the replacement must be
    // judged (and its probation measured) on its own completions.
    monitor_ = LatencyMonitor(adaptThresholds(cfg_.thresholds, features_),
                              cfg_.accuracyWindow);
    calibrator_.onModelSwap();
    rebuildEngine();
    degraded_ = false;
    // The replacement model may classify GC at a different threshold;
    // keep the audit's drift bound in sync.
    if (audit_ != nullptr)
        audit_->setGcThreshold(monitor_.thresholds().gc);
}

void
SsdCheck::forceDisable()
{
    calibrator_.forceDisable();
    degraded_ = false;
}

Prediction
SsdCheck::predict(const blockdev::IoRequest &req, sim::SimTime now) const
{
    if (!enabled() || degraded_) {
        // Harmlessly disabled (or quarantined by the health
        // supervisor): everything reads as normal latency.
        Prediction p;
        p.eet = req.isWrite() ? calibrator_.writeService()
                              : calibrator_.readService();
        p.hl = false;
        return p;
    }
    return engine_->predict(req, now);
}

void
SsdCheck::onSubmit(const blockdev::IoRequest &req, sim::SimTime now)
{
    if (engine_ != nullptr)
        engine_->onSubmit(req, now);
}

bool
SsdCheck::onComplete(const blockdev::IoRequest &req, const Prediction &pred,
                     sim::SimTime submit, sim::SimTime complete,
                     blockdev::IoStatus status, uint32_t attempts)
{
    const blockdev::IoResult res{submit, complete, status, attempts};
    const bool actualHl = engine_ != nullptr
                              ? engine_->onComplete(req, pred, res)
                              : classifyActual(req, res.latency());
    // Error-path exchanges measure the resilience layer, not the
    // prediction model; keep recall clean of them.
    if (!res.clean()) {
        ++acc_.faulted;
    } else if (actualHl) {
        ++acc_.hlTotal;
        acc_.hlCorrect += pred.hl ? 1 : 0;
    } else {
        ++acc_.nlTotal;
        acc_.nlCorrect += pred.hl ? 0 : 1;
    }
    if (trace_ != nullptr || audit_ != nullptr)
        observeCompletion(req, pred, res, actualHl);
    return actualHl;
}

void
SsdCheck::attachObservability(const obs::Sink &sink)
{
    trace_ = sink.trace;
    audit_ = sink.audit;
    if (audit_ != nullptr)
        audit_->setGcThreshold(monitor_.thresholds().gc);
    if (sink.metrics != nullptr)
        calibrator_.exportMetrics(*sink.metrics, {});
}

void
SsdCheck::observeCompletion(const blockdev::IoRequest &req,
                            const Prediction &pred,
                            const blockdev::IoResult &res, bool actualHl)
{
    const sim::SimDuration actual = res.latency();
    if (trace_ != nullptr) {
        obs::TraceArg *a = trace_->completeFill(
            "model", "model.predict",
            obs::TraceTrack{obs::kHostPid, obs::kHostModelTid},
            res.submitTime, actual, 3);
        a[0] = {"pred_hl", pred.hl ? 1 : 0};
        a[1] = {"actual_hl", actualHl ? 1 : 0};
        a[2] = {"eet_ns", pred.eet};
    }
    if (audit_ != nullptr) {
        obs::AuditRecord r;
        r.submit = res.submitTime;
        r.actualNs = actual;
        r.predictedEetNs = pred.eet;
        r.type = static_cast<uint8_t>(req.type);
        r.status = static_cast<uint8_t>(res.status);
        r.attempts = res.attempts;
        r.predictedHl = pred.hl;
        r.actualHl = actualHl;
        r.flushExpected = pred.flushExpected;
        r.gcExpected = pred.gcExpected;
        if (engine_ != nullptr) {
            const uint32_t v = engine_->volumeOf(req);
            r.volume = v;
            r.bufferCounter = engine_->wbModel(v).counter();
            r.bufferSize = engine_->wbModel(v).size();
            r.gcIntervalCounter = engine_->gcModel(v).intervalCounter();
        }
        r.flushEstimateNs = calibrator_.flushOverhead();
        r.gcEstimateNs = calibrator_.gcOverhead();
        audit_->add(r);
    }
}

bool
SsdCheck::classifyActual(const blockdev::IoRequest &req,
                         sim::SimDuration latency) const
{
    return monitor_.isHighLatency(req, latency);
}

bool
SsdCheck::enabled() const
{
    return engine_ != nullptr && calibrator_.predictionEnabled();
}

void
SsdCheck::saveState(recovery::StateWriter &w) const
{
    core::saveState(features_, w);
    calibrator_.saveState(w);
    monitor_.saveState(w);
    w.boolean(engine_ != nullptr);
    if (engine_ != nullptr)
        engine_->saveState(w);
    w.boolean(degraded_);
}

bool
SsdCheck::loadState(recovery::StateReader &r)
{
    FeatureSet fs;
    if (!core::loadState(fs, r))
        return false;
    // Rebuild exactly as hotSwapModel() does, then overwrite the
    // rebuilt components with the snapshot's state in place (the
    // engine references calibrator_ and monitor_ by address, so both
    // must be restored after the rebuild, not swapped out).
    features_ = std::move(fs);
    monitor_ = LatencyMonitor(adaptThresholds(cfg_.thresholds, features_),
                              cfg_.accuracyWindow);
    rebuildEngine();
    if (audit_ != nullptr)
        audit_->setGcThreshold(monitor_.thresholds().gc);
    if (!calibrator_.loadState(r) || !monitor_.loadState(r))
        return false;
    const bool hasEngine = r.boolean();
    if (r.ok() && hasEngine != (engine_ != nullptr)) {
        r.fail("snapshot engine presence contradicts restored features");
        return false;
    }
    if (engine_ != nullptr && !engine_->loadState(r))
        return false;
    degraded_ = r.boolean();
    return r.ok();
}

void
AccuracyResult::saveState(recovery::StateWriter &w) const
{
    w.u64(nlTotal);
    w.u64(nlCorrect);
    w.u64(hlTotal);
    w.u64(hlCorrect);
    w.u64(faulted);
}

void
AccuracyResult::loadState(recovery::StateReader &r)
{
    nlTotal = r.u64();
    nlCorrect = r.u64();
    hlTotal = r.u64();
    hlCorrect = r.u64();
    faulted = r.u64();
}

} // namespace ssdcheck::core
