/**
 * @file
 * The SSDcheck facade: the public API of the paper's contribution.
 *
 * Typical use:
 *
 *   DiagnosisRunner runner(device, {});              // §III-B snippets
 *   SsdCheck check(runner.extractFeatures());        // §III-C model
 *   ...
 *   auto pred = check.predict(req, now);             // query
 *   check.onSubmit(req, now);                        // host issues req
 *   auto res = device.submit(req, now);
 *   check.onComplete(req, pred, now, res.completeTime);
 *   ...
 *   check.accuracy().hlAccuracy();                   // §V-B recall
 *
 * When the diagnosis could not build a usable model (bufferBytes == 0)
 * or the calibrator turned prediction off, predict() returns NL for
 * everything — the paper's "harmlessly disabled" behaviour.
 *
 * Threading: an SsdCheck is thread-confined — exactly one shard task
 * (or the single CLI thread) owns it, its device and its supervisor.
 * In particular the hot-swap path (setDegraded / hotSwapModel /
 * forceDisable) mutates engine_, features_ and the calibrator with no
 * lock: it is "atomic" in the transactional sense (the model is
 * coherent before and after), not the concurrency sense. Do not call
 * it from another thread; shared cross-thread state belongs behind
 * the annotated core::Mutex (core/annotations.h), checked by
 * -Werror=thread-safety on Clang.
 */
#pragma once

#include <memory>
#include <optional>

#include "blockdev/block_device.h"
#include "core/accuracy.h"
#include "core/calibrator.h"
#include "core/diagnosis.h"
#include "core/feature_set.h"
#include "core/latency_monitor.h"
#include "core/prediction_engine.h"
#include "obs/sink.h"

namespace ssdcheck::recovery {
class StateWriter;
class StateReader;
} // namespace ssdcheck::recovery

namespace ssdcheck::core {

/** Runtime-framework configuration. */
struct RuntimeConfig
{
    LatencyThresholds thresholds;
    GcModelConfig gcModel;
    CalibratorConfig calibrator;
    uint32_t accuracyWindow = 2000;

    /**
     * Ablation switches (used by bench_ablation_model and the tests;
     * all on in normal operation):
     *  - useVolumeModel: route requests through the diagnosed volume
     *    bits; off = model the device as one volume (paper §V-B notes
     *    accuracy on SSD D/E is "extremely low" without it).
     *  - useGcModel: history-based GC prediction; off = never charge
     *    GC overhead into EBT.
     *  - useCalibrator: runtime resynchronization (buffer-counter
     *    resync, EBT corrections, history resets); off = the static
     *    model runs open-loop.
     */
    bool useVolumeModel = true;
    bool useGcModel = true;
    bool useCalibrator = true;
    /** §VI future work: two-cluster secondary-feature model. */
    bool useSecondaryModel = false;
};

/** Diagnosis + runtime model behind one object. */
class SsdCheck
{
  public:
    /** Build the runtime framework from extracted features. */
    explicit SsdCheck(FeatureSet features, RuntimeConfig cfg = {});

    /** Predict the latency of @p req if submitted at @p now. */
    Prediction predict(const blockdev::IoRequest &req,
                       sim::SimTime now) const;

    /** Account a request the host actually submitted. */
    void onSubmit(const blockdev::IoRequest &req, sim::SimTime now);

    /**
     * Account and score a completion — the one scorer. A completion
     * that is not IoResult::clean() (failed, or re-issued by a host
     * resilience layer) is classified and counted as faulted, but
     * never pollutes the calibrator's EWMAs or the rolling-accuracy
     * window; every other completion scores @p pred into accuracy().
     * @return the actual NL/HL classification of the request.
     */
    bool onComplete(const blockdev::IoRequest &req, const Prediction &pred,
                    sim::SimTime submit, sim::SimTime complete,
                    blockdev::IoStatus status = blockdev::IoStatus::Ok,
                    uint32_t attempts = 1);

    /**
     * Confusion counts of every completion scored so far, under any
     * model: also while the model is unusable, degraded or disabled
     * (its NL answers are scored), and across hotSwapModel().
     */
    const AccuracyResult &accuracy() const { return acc_; }

    /** Restore counts a checkpoint carried beside the model state. */
    void restoreAccuracy(const AccuracyResult &acc) { acc_ = acc; }

    /** Classify a latency without updating any state. */
    bool classifyActual(const blockdev::IoRequest &req,
                        sim::SimDuration latency) const;

    /** True while the model is usable and not auto-disabled. */
    bool enabled() const;

    // -- health-supervisor hooks ------------------------------------------
    /**
     * Quarantine (or release) the model. While degraded predict()
     * answers conservative NL for everything — the harmlessly-disabled
     * behaviour — but the engine keeps observing completions so its
     * state stays warm for a possible hot-swap.
     */
    void setDegraded(bool on) { degraded_ = on; }
    bool degraded() const { return degraded_; }

    /**
     * Atomically replace the model with freshly re-diagnosed
     * @p features: rebuilds the engine, re-adapts the monitor's
     * thresholds, clears the rolling-accuracy window and re-arms the
     * calibrator. Also clears degraded mode.
     */
    void hotSwapModel(FeatureSet features);

    /** Permanently disable prediction (re-diagnosis exhausted). */
    void forceDisable();

    const FeatureSet &features() const { return features_; }
    const LatencyMonitor &monitor() const { return monitor_; }
    const Calibrator &calibrator() const { return calibrator_; }

    /** Engine introspection (tests); null when the model is unusable. */
    const PredictionEngine *engine() const { return engine_.get(); }

    /**
     * Attach observability targets (cold path, before the run):
     * exports calibrator estimates onto the registry, emits a
     * model.predict span per completion on the host model track, and
     * feeds the audit log one record per completion (predicted class
     * vs actual latency vs the model state the engine saw).
     */
    void attachObservability(const obs::Sink &sink);

    /**
     * Serialize the whole runtime model: features (which may have been
     * hot-swapped and are no longer derivable from diagnosis),
     * calibrator, rolling-accuracy window, engine state and the
     * degraded flag.
     */
    void saveState(recovery::StateWriter &w) const;

    /**
     * Restore state saved by saveState(): rebuilds the engine from the
     * restored features (hot-swap path), then overwrites calibrator,
     * monitor and engine state in place.
     */
    bool loadState(recovery::StateReader &r);

  private:
    void rebuildEngine();

    /** Feed the trace/audit pillars one completed request. */
    void observeCompletion(const blockdev::IoRequest &req,
                           const Prediction &pred,
                           const blockdev::IoResult &res, bool actualHl);

    FeatureSet features_;
    RuntimeConfig cfg_; // snapshot:skip(construction-time config; loadState only validates it against the checkpoint)
    Calibrator calibrator_;
    LatencyMonitor monitor_;
    std::unique_ptr<PredictionEngine> engine_;
    bool degraded_ = false;
    AccuracyResult acc_; // snapshot:skip(run-cumulative counts, not model state: the Shard writes them as its Accuracy section and restores them through restoreAccuracy)

    // Observability (null until attachObservability()).
    obs::TraceRecorder *trace_ = nullptr; // snapshot:skip(non-owning observability hook, re-attached after restore)
    obs::AuditLog *audit_ = nullptr; // snapshot:skip(non-owning audit sink, re-attached after restore; loadState only resets its dedup cursor)
};

} // namespace ssdcheck::core

