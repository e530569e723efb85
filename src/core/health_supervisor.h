/**
 * @file
 * Model-health supervisor: drift detection, online re-diagnosis and
 * degraded-mode recovery for one SsdCheck instance.
 *
 * The paper's runtime model assumes the diagnosed features stay valid.
 * Firmware drift breaks that assumption: after a buffer-resize or
 * flush-algorithm change the model keeps predicting from stale
 * features and either stays wrong forever or gets harmlessly disabled
 * and never comes back. The supervisor closes that loop with a
 * per-device health state machine
 *
 *     Healthy -> Suspect -> Degraded -> Rediagnosing
 *                                         -> Recovered -> Healthy
 *                                         -> Disabled  (terminal)
 *
 * driven by three independent drift detectors:
 *  - rolling-HL-accuracy collapse (the latency monitor's window),
 *  - buffer-resync churn (the calibrator resynchronizes the buffer
 *    counter far more often than a correct model needs), and
 *  - a chi-squared shift test comparing the recent latency histogram
 *    against a calibration-era baseline.
 *
 * On confirmed drift the supervisor quarantines the model (SsdCheck
 * degraded mode: every prediction is a conservative NL, the paper's
 * harmless-disable behaviour) and re-runs the drift-sensitive part of
 * the §III-B diagnosis *online*: probe I/O is interleaved with the
 * live workload through whatever (usually resilient) device path the
 * host already uses, rate-limited to a configurable fraction of
 * device time, while flush-boundary events from both probe and
 * workload completions rebuild the write-buffer feature. A successful
 * estimate hot-swaps the FeatureSet/PredictionEngine inside the
 * facade; a probation window must then hold before the device counts
 * as recovered. Repeated failed re-diagnoses end in Disabled — the
 * supervisor never flaps a hopeless model back in.
 *
 * Threading: a supervisor, the facade it repairs and the device it
 * probes form ONE thread-confined simulation — the grid layer gives
 * every shard its own replica of all three, so no field here is
 * mutex-guarded and none may be annotated "thread-safe" instead of
 * staying confined (see core/annotations.h and DESIGN.md "Static
 * analysis & determinism invariants"). Cross-thread state lives only
 * in perf::ThreadPool, where it is Clang-thread-safety-annotated.
 */
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "blockdev/block_device.h"
#include "core/ssdcheck.h"
#include "sim/rng.h"
#include "sim/sim_time.h"
#include "stats/histogram.h"

namespace ssdcheck::recovery {
class StateWriter;
class StateReader;
} // namespace ssdcheck::recovery

namespace ssdcheck::core {

/** Per-device model-health state. */
enum class HealthState : uint8_t
{
    Healthy,      ///< Model trusted; detectors armed.
    Suspect,      ///< A detector fired; awaiting confirmation.
    Degraded,     ///< Drift confirmed; model quarantined (NL-only).
    Rediagnosing, ///< Probe I/O rebuilding the buffer feature.
    Recovered,    ///< Hot-swapped model on probation.
    Disabled,     ///< Re-diagnosis exhausted; terminal NL-only.
};

/** Human-readable name of a HealthState. */
std::string toString(HealthState s);

/** Supervisor tunables. */
struct HealthSupervisorConfig
{
    // -- detector cadence -------------------------------------------------
    /** Clean completions between detector sweeps. */
    uint32_t evalInterval = 200;
    /** Completions captured into the calibration-era baseline
     *  histogram before the shift test arms. */
    uint32_t baselineSamples = 2000;

    // -- drift detectors --------------------------------------------------
    /** Rolling HL accuracy below this reads as a collapse. */
    double suspectHlAccuracy = 0.40;
    /** Minimum HL events in the rolling window before acting. */
    uint32_t minHlEvents = 20;
    /** Buffer resyncs within one sweep interval that read as churn. */
    uint32_t suspectResyncBurst = 5;
    /** Chi-squared p-value below which the latency histogram has
     *  shifted versus the calibration-era baseline. Strict, because
     *  the test runs every sweep and workload phase changes are not
     *  drift. */
    double shiftPValue = 1e-6;
    /** Recent-histogram mass required before the shift test runs. */
    uint64_t minShiftSamples = 500;
    /** Consecutive firing sweeps to confirm Suspect -> Degraded. */
    uint32_t confirmSweeps = 2;
    /** Consecutive clean sweeps to clear Suspect -> Healthy. */
    uint32_t clearSweeps = 3;

    // -- online re-diagnosis ----------------------------------------------
    /** Probe busy-time budget as a fraction of elapsed device time. */
    double probeBudgetFraction = 0.10;
    /** Probe submissions per pump() call (budget permitting). */
    uint32_t probesPerPump = 2;
    /** Flush-boundary events needed before estimating the period. */
    uint32_t probeFlushEvents = 24;
    /** Buffer sizes below this many pages are treated as noise. */
    uint32_t minBufferPages = 4;
    /** Volume writes per attempt before the attempt counts as failed. */
    uint64_t maxProbeWritesPerAttempt = 20000;
    /** Failed re-diagnosis attempts before the terminal Disabled. */
    uint32_t maxRediagnoses = 3;

    // -- probation --------------------------------------------------------
    /** Clean completions the hot-swapped model must survive. */
    uint32_t probationWindow = 1500;
    /** Rolling HL accuracy the probation window must end at. */
    double probationHlAccuracy = 0.50;

    // -- shift-test histogram shape --------------------------------------
    sim::SimDuration histBinWidth = sim::microseconds(100);
    uint32_t histBins = 40;

    uint64_t probeSeed = 0x5afe;
};

/** Cumulative supervisor observability counters. */
struct HealthCounters
{
    uint64_t sweeps = 0;             ///< Detector sweeps run.
    uint64_t accuracyCollapses = 0;  ///< Accuracy detector firings.
    uint64_t resyncChurnAlarms = 0;  ///< Resync-churn detector firings.
    uint64_t latencyShiftAlarms = 0; ///< Chi-squared detector firings.
    uint64_t suspectEntries = 0;     ///< Transitions into Suspect.
    uint64_t falseAlarms = 0;        ///< Suspect cleared back to Healthy.
    uint64_t degradedEntries = 0;    ///< Confirmed drifts.
    uint64_t rediagnoseAttempts = 0; ///< Probe campaigns started.
    uint64_t rediagnoseFailures = 0; ///< Probe campaigns that gave up.
    uint64_t hotSwaps = 0;           ///< Models atomically replaced.
    uint64_t relapses = 0;           ///< Recovered -> Suspect.
    uint64_t recoveries = 0;         ///< Probations passed (-> Healthy).
    uint64_t probesIssued = 0;       ///< Probe requests submitted.
    uint64_t probeWrites = 0;
    uint64_t probeReads = 0;
    sim::SimDuration probeBusyNs = 0; ///< Device time consumed by probes.
    uint64_t probesDeferred = 0;     ///< Probe slots skipped for budget.
};

/**
 * Watches one SsdCheck instance, confirms drift, and repairs the
 * model online through the device path the host already uses.
 *
 * Wiring: after every completed workload request call onCompletion()
 * (with the classification SsdCheck::onComplete returned); between
 * requests give the supervisor the bus with pump(), which may issue
 * rate-limited probe I/O and returns the advanced virtual time.
 */
class HealthSupervisor
{
  public:
    /**
     * @param check the facade to supervise (degraded-mode switches
     *        and model hot-swaps are applied to it).
     * @param dev the device path probe I/O goes through — pass the
     *        same (resilient) device the workload uses.
     */
    HealthSupervisor(SsdCheck &check, blockdev::BlockDevice &dev,
                     HealthSupervisorConfig cfg = {});

    /** Observe one completed workload request (post onComplete). */
    void onCompletion(const blockdev::IoRequest &req, bool actualHl,
                      const blockdev::IoResult &res);

    /**
     * Offer the supervisor the bus at @p now. While Rediagnosing this
     * issues up to probesPerPump probe requests, subject to the
     * probe-time budget.
     * @return the virtual time after any probe I/O (>= now).
     */
    sim::SimTime pump(sim::SimTime now);

    HealthState state() const { return state_; }
    const HealthCounters &counters() const { return counters_; }
    const HealthSupervisorConfig &config() const { return cfg_; }

    /** Buffer pages of the last hot-swapped model (0 = none yet). */
    uint32_t lastSwapPages() const { return swapPages_; }

    /** Re-diagnosis flush events collected in the current attempt. */
    size_t pendingFlushEvents() const { return eventCounts_.size(); }

    /** Multi-line operator report (CLI health section). */
    std::string report() const;

    /**
     * Attach observability targets (cold path, before the run):
     * exports the health counters and the state-machine value onto the
     * registry and emits a sup.state instant on the host supervisor
     * track at every state transition.
     */
    void attachObservability(const obs::Sink &sink);

    /**
     * Serialize the complete supervisor state: state machine, probe
     * stream, detector histograms and re-diagnosis progress.
     */
    void saveState(recovery::StateWriter &w) const;

    /** Restore state saved by saveState() (same configuration). */
    bool loadState(recovery::StateReader &r);

  private:
    void sweep();
    bool detectorsFire();
    void enterSuspect();
    void enterDegraded();
    void beginAttempt();
    void attemptFailed();
    void observeFlushSignal(const blockdev::IoRequest &req,
                            sim::SimDuration latency);
    void maybeResolveAttempt();
    void hotSwap(uint32_t pages, sim::SimDuration meanSpike);
    bool probeBudgetAllows(sim::SimTime now) const;
    sim::SimTime issueProbe(sim::SimTime now);
    bool inProbeVolume(uint64_t lba) const;

    SsdCheck &check_; // snapshot:skip(ctor-wired reference; the restore harness rebuilds the object graph)
    blockdev::BlockDevice &dev_; // snapshot:skip(ctor-wired reference; the restore harness rebuilds the object graph)
    HealthSupervisorConfig cfg_; // snapshot:skip(construction-time config; restore constructs an identical supervisor before loadState)
    sim::Rng rng_;

    HealthState state_ = HealthState::Healthy;
    HealthCounters counters_;

    // Detector state.
    stats::Histogram baseline_;
    stats::Histogram recent_;
    uint64_t baselineCount_ = 0;
    uint64_t lastResyncs_ = 0;
    uint64_t completions_ = 0;
    uint32_t confirmStreak_ = 0;
    uint32_t clearStreak_ = 0;

    // Probe/re-diagnosis state.
    std::vector<uint32_t> probeVolumeBits_;
    uint64_t volumeWrites_ = 0;
    std::vector<uint64_t> eventCounts_;
    std::vector<sim::SimDuration> eventLats_;
    bool inSpike_ = false;
    bool probeWriteNext_ = true;
    uint32_t swapPages_ = 0;

    // Probation state.
    uint64_t completionsAtRecovery_ = 0;

    // Time accounting for the probe budget.
    bool started_ = false;
    sim::SimTime firstSeen_;

    // Observability (null until attachObservability()). Transitions
    // are traced lazily: the timed entry points compare against the
    // last traced state, so the state machine itself needs no
    // timestamps threaded through.
    obs::TraceRecorder *trace_ = nullptr; // snapshot:skip(non-owning observability hook, re-attached after restore)
    HealthState lastTracedState_ = HealthState::Healthy; // snapshot:skip(trace-dedup cursor; loadState re-primes it from the restored state)

    /** Emit a sup.state instant when the state changed since the last
     *  traced one (called from the timed entry points). */
    void traceState(sim::SimTime now)
    {
        if (trace_ == nullptr || state_ == lastTracedState_)
            return;
        lastTracedState_ = state_;
        trace_->instant(
            "sup", "sup.state",
            obs::TraceTrack{obs::kHostPid, obs::kHostSupervisorTid}, now,
            {{"state", static_cast<int64_t>(state_)}});
    }
};

} // namespace ssdcheck::core

