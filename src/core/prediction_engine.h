/**
 * @file
 * Prediction engine (paper §III-C2, Fig. 8).
 *
 * Per internal volume it keeps a buffer counter (WriteBufferModel), a
 * GC interval model (GcModel) and the Estimated Block Time (EBT) — the
 * time until which the volume's NAND is predicted busy. A query
 * computes the Estimated End Time (EET) for an incoming request from
 * EBT and the calibrated overheads; EET above the latency threshold
 * classifies the request HL.
 *
 * predict() is side-effect free so schedulers can query requests they
 * may reorder or not submit; onSubmit() applies the state transition
 * for requests actually issued; onComplete() feeds the calibrator and
 * the GC observer.
 */
#pragma once

#include <cstdint>
#include <vector>

#include "blockdev/request.h"
#include "core/calibrator.h"
#include "core/feature_set.h"
#include "core/gc_model.h"
#include "core/secondary_model.h"
#include "core/latency_monitor.h"
#include "core/wb_model.h"
#include "sim/sim_time.h"

namespace ssdcheck::recovery {
class StateWriter;
class StateReader;
} // namespace ssdcheck::recovery

namespace ssdcheck::core {

/** One latency prediction (returned to the host, Fig. 8 step 4). */
struct Prediction
{
    sim::SimDuration eet = 0;  ///< Predicted latency (EET).
    bool hl = false;           ///< EET above the threshold.
    bool flushExpected = false;///< A buffer flush is expected.
    bool gcExpected = false;   ///< A GC invocation is expected.
};

/** Model-component switches for ablation studies (see RuntimeConfig). */
struct EngineOptions
{
    bool useVolumeModel = true;
    bool useGcModel = true;
    bool useCalibrator = true;
    /**
     * Paper §VI future work: model secondary features (SLC-cache
     * migration) as a second long-event cluster with its own interval
     * history. Off by default to match the published model.
     */
    bool useSecondaryModel = false;
};

/** Volume selector + per-volume models + EBT (paper Fig. 8). */
class PredictionEngine
{
  public:
    using Options = EngineOptions;

    PredictionEngine(const FeatureSet &features, Calibrator &calibrator,
                     LatencyMonitor &monitor, GcModelConfig gcCfg = {},
                     EngineOptions options = {});

    /** Predict the latency of @p req if submitted at @p now. */
    Prediction predict(const blockdev::IoRequest &req,
                       sim::SimTime now) const;

    /** Account a request actually submitted at @p now. */
    void onSubmit(const blockdev::IoRequest &req, sim::SimTime now);

    /**
     * Account a completion: classification, calibration, GC
     * observation, model resync.
     *
     * A completion that is not @p res.clean() measures the error
     * path, not the device's service behaviour: it is classified and
     * returned but never fed to the calibrator EWMAs, the accuracy
     * window, or the EBT/buffer state.
     *
     * @param pred the prediction returned for this request.
     * @return the actual NL/HL classification.
     */
    bool onComplete(const blockdev::IoRequest &req, const Prediction &pred,
                    const blockdev::IoResult &res);

    /** Volume index of a request (volume selector, Fig. 8 step 1). */
    uint32_t volumeOf(const blockdev::IoRequest &req) const;

    /** Number of modeled volumes. */
    uint32_t numVolumes() const
    {
        return static_cast<uint32_t>(volumes_.size());
    }

    /** Current EBT of a volume (tests/introspection). */
    sim::SimTime ebt(uint32_t volume) const;

    /** GC model of a volume (tests/introspection). */
    const GcModel &gcModel(uint32_t volume) const;

    /** Buffer model of a volume (tests/introspection). */
    const WriteBufferModel &wbModel(uint32_t volume) const;

    /** Secondary-feature model of a volume (tests/introspection). */
    const SecondaryModel &secondaryModel(uint32_t volume) const;

    /** Serialize per-volume model state (EBT, counters, histories). */
    void saveState(recovery::StateWriter &w) const;

    /** Restore state saved by saveState() (same features/options). */
    bool loadState(recovery::StateReader &r);

  private:
    struct VolumeState
    {
        WriteBufferModel wb;
        GcModel gc;
        SecondaryModel sec;
        sim::SimTime ebt;
        uint32_t unexpectedHlStreak = 0;
        bool gcCharged = false; ///< A pending (unconfirmed) GC charge.
    };

    /** Apply an assumed flush at @p now to volume @p s. */
    void applyFlush(VolumeState &s, sim::SimTime now);

    FeatureSet features_; // snapshot:skip(construction-time feature set; restore re-runs diagnosis or replays the saved features)
    std::vector<uint32_t> volumeBits_; // snapshot:skip(derived from the feature set in the constructor)
    Calibrator &calibrator_; // snapshot:skip(ctor-wired reference; the restore harness rebuilds the object graph)
    LatencyMonitor &monitor_; // snapshot:skip(ctor-wired reference; the restore harness rebuilds the object graph)
    Options options_; // snapshot:skip(construction-time config; restore constructs an identical engine before loadState)
    bool fore_; // snapshot:skip(derived from the feature set in the constructor)
    std::vector<VolumeState> volumes_;
};

} // namespace ssdcheck::core

