#include "core/health_supervisor.h"

#include <sstream>
#include <utility>

#include "core/diagnosis.h"
#include "stats/chi_squared.h"

#include "recovery/state_io.h"

namespace ssdcheck::core {

using blockdev::IoRequest;
using blockdev::IoResult;
using blockdev::IoType;
using blockdev::kSectorsPerPage;

std::string
toString(HealthState s)
{
    switch (s) {
      case HealthState::Healthy:
        return "healthy";
      case HealthState::Suspect:
        return "suspect";
      case HealthState::Degraded:
        return "degraded";
      case HealthState::Rediagnosing:
        return "rediagnosing";
      case HealthState::Recovered:
        return "recovered";
      case HealthState::Disabled:
        return "disabled";
    }
    return "?";
}

HealthSupervisor::HealthSupervisor(SsdCheck &check,
                                   blockdev::BlockDevice &dev,
                                   HealthSupervisorConfig cfg)
    : check_(check), dev_(dev), cfg_(cfg), rng_(cfg.probeSeed),
      baseline_(0, cfg.histBinWidth, cfg.histBins),
      recent_(0, cfg.histBinWidth, cfg.histBins),
      probeVolumeBits_(check.features().volumeBits())
{
}

void
HealthSupervisor::onCompletion(const IoRequest &req, bool actualHl,
                               const IoResult &res)
{
    if (!started_) {
        started_ = true;
        firstSeen_ = res.submitTime;
    }
    if (state_ == HealthState::Disabled)
        return;
    // Tainted completions measure the error path, not the device;
    // the detectors and the re-diagnosis must not see them (the same
    // rule SsdCheck::onComplete applies to the calibrator).
    if (!res.clean())
        return;
    ++completions_;

    const sim::SimDuration lat = res.latency();
    if (baselineCount_ < cfg_.baselineSamples) {
        baseline_.add(lat);
        ++baselineCount_;
    } else {
        recent_.add(lat);
    }

    if (state_ == HealthState::Rediagnosing &&
        inProbeVolume(req.lba)) {
        if (req.isWrite())
            volumeWrites_ += req.pages();
        observeFlushSignal(req, lat);
        maybeResolveAttempt();
    }
    (void)actualHl; // classification arrives via the monitor's window

    if (completions_ % cfg_.evalInterval == 0)
        sweep();
    traceState(res.completeTime);
}

bool
HealthSupervisor::detectorsFire()
{
    bool fired = false;

    // Detector 1: rolling HL accuracy collapse.
    const LatencyMonitor &mon = check_.monitor();
    if (mon.rollingHlCount() >= cfg_.minHlEvents &&
        mon.rollingHlAccuracy() < cfg_.suspectHlAccuracy) {
        ++counters_.accuracyCollapses;
        fired = true;
    }

    // Detector 2: buffer-resync churn. A phase-correct model resyncs
    // rarely; a wrong buffer size resyncs on every few flushes.
    const uint64_t resyncs = check_.calibrator().bufferResyncs();
    if (resyncs - lastResyncs_ >= cfg_.suspectResyncBurst) {
        ++counters_.resyncChurnAlarms;
        fired = true;
    }
    lastResyncs_ = resyncs;

    // Detector 3: latency-histogram shift against the calibration-era
    // baseline (e.g. a shrunk buffer quadruples the flush rate, which
    // moves completion mass into the flush-latency bins long before
    // accuracy statistics converge).
    if (baselineCount_ >= cfg_.baselineSamples &&
        recent_.total() >= cfg_.minShiftSamples) {
        const auto shift = stats::chiSquaredTwoSample(baseline_, recent_);
        if (shift.valid && shift.pValue < cfg_.shiftPValue) {
            ++counters_.latencyShiftAlarms;
            fired = true;
        }
        recent_.clear();
    }
    return fired;
}

void
HealthSupervisor::sweep()
{
    ++counters_.sweeps;
    switch (state_) {
      case HealthState::Healthy:
        if (detectorsFire())
            enterSuspect();
        break;
      case HealthState::Suspect:
        if (detectorsFire()) {
            clearStreak_ = 0;
            if (++confirmStreak_ >= cfg_.confirmSweeps)
                enterDegraded();
        } else {
            confirmStreak_ = 0;
            if (++clearStreak_ >= cfg_.clearSweeps) {
                state_ = HealthState::Healthy;
                ++counters_.falseAlarms;
            }
        }
        break;
      case HealthState::Degraded:
      case HealthState::Rediagnosing:
        // Quarantined: every prediction is a forced NL, so the
        // accuracy window is meaningless here. pump() drives repair.
        break;
      case HealthState::Recovered: {
        if (detectorsFire()) {
            // Probation relapse — a second drift (or a bad swap).
            ++counters_.relapses;
            enterSuspect();
            break;
        }
        const uint64_t onProbation = completions_ - completionsAtRecovery_;
        const LatencyMonitor &mon = check_.monitor();
        const bool accuracyOk =
            mon.rollingHlCount() < cfg_.minHlEvents ||
            mon.rollingHlAccuracy() >= cfg_.probationHlAccuracy;
        if (onProbation >= cfg_.probationWindow && accuracyOk) {
            state_ = HealthState::Healthy;
            ++counters_.recoveries;
        }
        break;
      }
      case HealthState::Disabled:
        break;
    }
}

void
HealthSupervisor::enterSuspect()
{
    state_ = HealthState::Suspect;
    ++counters_.suspectEntries;
    confirmStreak_ = 1;
    clearStreak_ = 0;
}

void
HealthSupervisor::enterDegraded()
{
    state_ = HealthState::Degraded;
    ++counters_.degradedEntries;
    // Quarantine: conservative NL fallback so the use cases stay
    // correct (paper's harmless-disable behaviour) while we repair.
    check_.setDegraded(true);
}

void
HealthSupervisor::beginAttempt()
{
    ++counters_.rediagnoseAttempts;
    volumeWrites_ = 0;
    eventCounts_.clear();
    eventLats_.clear();
    inSpike_ = false;
}

void
HealthSupervisor::attemptFailed()
{
    ++counters_.rediagnoseFailures;
    if (counters_.rediagnoseFailures >= cfg_.maxRediagnoses) {
        // The device no longer exposes a learnable buffer phase:
        // permanent harmless-disable rather than probe forever.
        state_ = HealthState::Disabled;
        check_.forceDisable();
        return;
    }
    beginAttempt();
}

void
HealthSupervisor::observeFlushSignal(const IoRequest &req,
                                     sim::SimDuration latency)
{
    // Flush boundaries surface as HL completions (flushes block both
    // probe reads and the workload's own requests; GC rides on a
    // flush, so GC-class events mark a boundary just as well). One
    // event per contiguous blocked window, positioned on the volume
    // write counter — exactly the event train the §III-B
    // background_read_test feeds estimateFlushPeriod().
    const bool hl = check_.monitor().isHighLatency(req, latency);
    if (hl) {
        if (!inSpike_) {
            eventCounts_.push_back(volumeWrites_);
            eventLats_.push_back(latency);
            inSpike_ = true;
        }
    } else {
        inSpike_ = false;
    }
}

void
HealthSupervisor::maybeResolveAttempt()
{
    if (eventCounts_.size() >= cfg_.probeFlushEvents) {
        const FlushPeriodEstimate est = estimateFlushPeriod(
            eventCounts_, eventLats_, cfg_.minBufferPages);
        if (est.pages > 0) {
            hotSwap(est.pages, est.meanSpikeLatency);
            return;
        }
    }
    if (volumeWrites_ > cfg_.maxProbeWritesPerAttempt)
        attemptFailed();
}

void
HealthSupervisor::hotSwap(uint32_t pages, sim::SimDuration meanSpike)
{
    FeatureSet fs = check_.features();
    fs.bufferBytes = static_cast<uint64_t>(pages) * blockdev::kPageSize;
    if (meanSpike > 0)
        fs.observedFlushOverheadNs = meanSpike;
    check_.hotSwapModel(std::move(fs));
    ++counters_.hotSwaps;
    swapPages_ = pages;
    probeVolumeBits_ = check_.features().volumeBits();

    // Fresh probation: the detectors must judge the new model on its
    // own evidence, so the baseline histogram rebuilds from scratch.
    baseline_.clear();
    recent_.clear();
    baselineCount_ = 0;
    lastResyncs_ = check_.calibrator().bufferResyncs();
    inSpike_ = false;
    completionsAtRecovery_ = completions_;
    state_ = HealthState::Recovered;
}

bool
HealthSupervisor::probeBudgetAllows(sim::SimTime now) const
{
    const sim::SimDuration elapsed = now - firstSeen_;
    if (elapsed <= 0)
        return false;
    return static_cast<double>(counters_.probeBusyNs) <
           cfg_.probeBudgetFraction * static_cast<double>(elapsed);
}

bool
HealthSupervisor::inProbeVolume(uint64_t lba) const
{
    return volumeIndexOf(probeVolumeBits_, lba) == 0;
}

sim::SimTime
HealthSupervisor::issueProbe(sim::SimTime now)
{
    IoRequest req;
    // Alternate writes (keep the buffer filling even under read-heavy
    // workloads) and reads (the flush-blocked spike samplers).
    if (probeWriteNext_) {
        req.type = IoType::Write;
        req.lba = randomVolume0Lba(dev_, rng_, probeVolumeBits_, false);
    } else {
        req.type = IoType::Read;
        req.lba = randomVolume0Lba(dev_, rng_, probeVolumeBits_, true);
    }
    probeWriteNext_ = !probeWriteNext_;
    req.sectors = kSectorsPerPage;

    const IoResult res = dev_.submit(req, now);
    ++counters_.probesIssued;
    if (req.isWrite())
        ++counters_.probeWrites;
    else
        ++counters_.probeReads;
    counters_.probeBusyNs += res.latency();

    if (res.clean()) {
        if (req.isWrite())
            volumeWrites_ += req.pages();
        observeFlushSignal(req, res.latency());
        maybeResolveAttempt();
    }
    return res.completeTime;
}

sim::SimTime
HealthSupervisor::pump(sim::SimTime now)
{
    if (!started_) {
        started_ = true;
        firstSeen_ = now;
    }
    if (state_ == HealthState::Degraded) {
        state_ = HealthState::Rediagnosing;
        beginAttempt();
    }
    if (state_ != HealthState::Rediagnosing) {
        traceState(now);
        return now;
    }
    for (uint32_t i = 0; i < cfg_.probesPerPump; ++i) {
        if (state_ != HealthState::Rediagnosing)
            break; // the attempt resolved mid-pump
        if (!probeBudgetAllows(now)) {
            ++counters_.probesDeferred;
            break;
        }
        now = issueProbe(now);
    }
    traceState(now);
    return now;
}

void
HealthSupervisor::attachObservability(const obs::Sink &sink)
{
    trace_ = sink.trace;
    if (sink.metrics == nullptr)
        return;
    obs::Registry &reg = *sink.metrics;
    const obs::Labels labels = {{"device", dev_.name()}};
    reg.exportGauge("sup_state", labels,
                    reinterpret_cast<const uint8_t *>(&state_));
    reg.exportCounter("sup_sweeps", labels, &counters_.sweeps);
    reg.exportCounter("sup_accuracy_collapses", labels,
                      &counters_.accuracyCollapses);
    reg.exportCounter("sup_resync_churn_alarms", labels,
                      &counters_.resyncChurnAlarms);
    reg.exportCounter("sup_latency_shift_alarms", labels,
                      &counters_.latencyShiftAlarms);
    reg.exportCounter("sup_suspect_entries", labels,
                      &counters_.suspectEntries);
    reg.exportCounter("sup_false_alarms", labels, &counters_.falseAlarms);
    reg.exportCounter("sup_degraded_entries", labels,
                      &counters_.degradedEntries);
    reg.exportCounter("sup_rediagnose_attempts", labels,
                      &counters_.rediagnoseAttempts);
    reg.exportCounter("sup_rediagnose_failures", labels,
                      &counters_.rediagnoseFailures);
    reg.exportCounter("sup_hot_swaps", labels, &counters_.hotSwaps);
    reg.exportCounter("sup_relapses", labels, &counters_.relapses);
    reg.exportCounter("sup_recoveries", labels, &counters_.recoveries);
    reg.exportCounter("sup_probes_issued", labels,
                      &counters_.probesIssued);
    reg.exportCounter("sup_probe_writes", labels, &counters_.probeWrites);
    reg.exportCounter("sup_probe_reads", labels, &counters_.probeReads);
    reg.exportGauge("sup_probe_busy_ns", labels, &counters_.probeBusyNs);
    reg.exportCounter("sup_probes_deferred", labels,
                      &counters_.probesDeferred);
}

std::string
HealthSupervisor::report() const
{
    std::ostringstream os;
    os << "health state: " << toString(state_) << "\n";
    os << "detector sweeps: " << counters_.sweeps
       << " (accuracy collapses " << counters_.accuracyCollapses
       << ", resync churn " << counters_.resyncChurnAlarms
       << ", latency shifts " << counters_.latencyShiftAlarms << ")\n";
    os << "suspect entries: " << counters_.suspectEntries
       << " (false alarms " << counters_.falseAlarms << ", confirmed "
       << counters_.degradedEntries << ", relapses "
       << counters_.relapses << ")\n";
    os << "re-diagnoses: " << counters_.rediagnoseAttempts
       << " attempted, " << counters_.rediagnoseFailures << " failed, "
       << counters_.hotSwaps << " hot-swaps";
    if (swapPages_ > 0)
        os << " (last swap: " << swapPages_ << "-page buffer)";
    os << "\n";
    os << "probe i/o: " << counters_.probesIssued << " issued ("
       << counters_.probeWrites << "w/" << counters_.probeReads
       << "r), " << sim::formatDuration(counters_.probeBusyNs)
       << " device time, " << counters_.probesDeferred
       << " deferred for budget\n";
    os << "recoveries: " << counters_.recoveries << "\n";
    return os.str();
}

void
HealthSupervisor::saveState(recovery::StateWriter &w) const
{
    rng_.saveState(w);
    w.u8(static_cast<uint8_t>(state_));
    w.u64(counters_.sweeps);
    w.u64(counters_.accuracyCollapses);
    w.u64(counters_.resyncChurnAlarms);
    w.u64(counters_.latencyShiftAlarms);
    w.u64(counters_.suspectEntries);
    w.u64(counters_.falseAlarms);
    w.u64(counters_.degradedEntries);
    w.u64(counters_.rediagnoseAttempts);
    w.u64(counters_.rediagnoseFailures);
    w.u64(counters_.hotSwaps);
    w.u64(counters_.relapses);
    w.u64(counters_.recoveries);
    w.u64(counters_.probesIssued);
    w.u64(counters_.probeWrites);
    w.u64(counters_.probeReads);
    w.i64(counters_.probeBusyNs);
    w.u64(counters_.probesDeferred);
    baseline_.saveState(w);
    recent_.saveState(w);
    w.u64(baselineCount_);
    w.u64(lastResyncs_);
    w.u64(completions_);
    w.u32(confirmStreak_);
    w.u32(clearStreak_);
    w.u32(static_cast<uint32_t>(probeVolumeBits_.size()));
    for (uint32_t b : probeVolumeBits_)
        w.u32(b);
    w.u64(volumeWrites_);
    w.u32(static_cast<uint32_t>(eventCounts_.size()));
    for (uint64_t e : eventCounts_)
        w.u64(e);
    w.u32(static_cast<uint32_t>(eventLats_.size()));
    for (sim::SimDuration d : eventLats_)
        w.i64(d);
    w.boolean(inSpike_);
    w.boolean(probeWriteNext_);
    w.u32(swapPages_);
    w.u64(completionsAtRecovery_);
    w.boolean(started_);
    w.i64(firstSeen_.ns());
}

bool
HealthSupervisor::loadState(recovery::StateReader &r)
{
    if (!rng_.loadState(r))
        return false;
    const uint8_t state = r.u8();
    if (r.ok() && state > static_cast<uint8_t>(HealthState::Disabled)) {
        r.fail("supervisor state value out of range");
        return false;
    }
    state_ = static_cast<HealthState>(state);
    counters_.sweeps = r.u64();
    counters_.accuracyCollapses = r.u64();
    counters_.resyncChurnAlarms = r.u64();
    counters_.latencyShiftAlarms = r.u64();
    counters_.suspectEntries = r.u64();
    counters_.falseAlarms = r.u64();
    counters_.degradedEntries = r.u64();
    counters_.rediagnoseAttempts = r.u64();
    counters_.rediagnoseFailures = r.u64();
    counters_.hotSwaps = r.u64();
    counters_.relapses = r.u64();
    counters_.recoveries = r.u64();
    counters_.probesIssued = r.u64();
    counters_.probeWrites = r.u64();
    counters_.probeReads = r.u64();
    counters_.probeBusyNs = r.i64();
    counters_.probesDeferred = r.u64();
    if (!baseline_.loadState(r) || !recent_.loadState(r))
        return false;
    baselineCount_ = r.u64();
    lastResyncs_ = r.u64();
    completions_ = r.u64();
    confirmStreak_ = r.u32();
    clearStreak_ = r.u32();
    const uint64_t nBits = r.checkCount(r.u32(), 4);
    if (r.ok() && nBits > 64) {
        r.fail("supervisor probe-volume bit list too long");
        return false;
    }
    probeVolumeBits_.clear();
    for (uint64_t i = 0; i < nBits; ++i)
        probeVolumeBits_.push_back(r.u32());
    volumeWrites_ = r.u64();
    const uint64_t nCounts = r.checkCount(r.u32(), 8);
    eventCounts_.clear();
    for (uint64_t i = 0; i < nCounts; ++i)
        eventCounts_.push_back(r.u64());
    const uint64_t nLats = r.checkCount(r.u32(), 8);
    eventLats_.clear();
    for (uint64_t i = 0; i < nLats; ++i)
        eventLats_.push_back(r.i64());
    inSpike_ = r.boolean();
    probeWriteNext_ = r.boolean();
    swapPages_ = r.u32();
    completionsAtRecovery_ = r.u64();
    started_ = r.boolean();
    firstSeen_ = sim::SimTime{r.i64()};
    // Do not replay a state-transition trace instant for the restored
    // state: the uninterrupted run traced it when it happened.
    lastTracedState_ = state_;
    return r.ok();
}

} // namespace ssdcheck::core
