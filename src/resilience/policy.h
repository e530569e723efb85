/**
 * @file
 * SLO-enforcing resilience policy layer.
 *
 * PolicyDevice sits above blockdev::ResilientDevice and bounds every
 * request's fate before the retry machinery can spend unbounded time
 * on it:
 *
 *  - Deadline budgets: each forwarded request carries an absolute
 *    total-time cap (attempts + backoff + timeout waits), enforced by
 *    ResilientDevice::submitBounded. A request never consumes more
 *    sim time than its budget.
 *  - Hedged reads: when the caller predicts a slow read (or the
 *    rolling p95 says the device is slow), a backup read is issued
 *    after a delay; the first successful completion wins and the
 *    loser is cancelled (accounting only — the simulated device still
 *    did the work, as real hedging cancellation races do). Hedges
 *    draw from a token budget accrued per submission so hedging can
 *    never amplify load beyond a configured fraction.
 *  - Circuit breaker: Closed/Open/HalfOpen per device, driven by a
 *    rolling error+timeout window. Open sheds instantly; HalfOpen
 *    lets a few trial requests through — the HealthSupervisor's
 *    budgeted probe I/O, when the supervisor is stacked on this
 *    device, is exactly such a trial stream.
 *  - Admission control: when the device's completion horizon runs too
 *    far ahead of arrivals (queue buildup), new requests are shed
 *    with Rejected instead of queuing unboundedly.
 *  - Graceful-degradation ladder: Normal → HedgingOff →
 *    WritesDeferred → FailFast, evaluated from the SLO error budget
 *    and floored by the supervisor's health state.
 *
 * Everything is deterministic in sim time: no wall clock, no RNG —
 * the policy's decisions are a pure function of the request stream
 * and the device's (seeded) behavior, which is what lets chaos
 * campaigns assert bit-identical results across --jobs.
 */
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "blockdev/resilient_device.h"
#include "core/health_supervisor.h"
#include "obs/sink.h"

namespace ssdcheck::recovery {
class StateWriter;
class StateReader;
} // namespace ssdcheck::recovery

namespace ssdcheck::resilience {

/** Circuit-breaker state (exported as a uint8 gauge). */
enum class BreakerState : uint8_t
{
    Closed = 0,   ///< Normal forwarding.
    Open = 1,     ///< Shedding; waiting out the cooldown.
    HalfOpen = 2, ///< Probing with a bounded trial stream.
};

/** Human-readable name of a BreakerState. */
std::string toString(BreakerState s);

/** Graceful-degradation ladder rung (exported as a uint8 gauge). */
enum class DegradationLevel : uint8_t
{
    Normal = 0,        ///< SLO intact; all features on.
    HedgingOff = 1,    ///< Error budget half spent: stop hedging.
    WritesDeferred = 2, ///< Budget spent: shed writes, serve reads.
    FailFast = 3,      ///< Budget blown: shed everything, recover.
};

/** Human-readable name of a DegradationLevel. */
std::string toString(DegradationLevel l);

/** Why a request was shed (trace/report detail). */
enum class ShedReason : uint8_t
{
    Overload = 0,      ///< Admission control: backlog bound hit.
    BreakerOpen = 1,   ///< Circuit breaker open.
    WriteDeferred = 2, ///< Ladder at WritesDeferred, request is a write.
    FailFast = 3,      ///< Ladder at FailFast.
};

/** Tunables of one policy stack. All times are sim-time durations. */
struct ResiliencePolicy
{
    std::string name = "off";
    /** Master switch: disabled policies are pure pass-throughs. */
    bool enabled = false;

    // -- deadline budgets ---------------------------------------------
    /** Total-time cap per request, spanning retries (0 = unbounded). */
    sim::SimDuration deadlineBudget = sim::milliseconds(1500);

    // -- hedged reads -------------------------------------------------
    bool hedgeReads = true;
    /** Backup-read delay; 0 derives it from the rolling p95. */
    sim::SimDuration hedgeDelay = 0;
    /** Hedge tokens accrued per submission (1.0 token buys one
     *  hedge), i.e. the max steady-state fraction of hedged reads. */
    double hedgeBudgetFraction = 0.05;

    // -- circuit breaker ----------------------------------------------
    /** Rolling outcome window (clamped to kRingCapacity). */
    uint32_t breakerWindow = 64;
    /** Open when window error rate reaches this. */
    double breakerErrorThreshold = 0.5;
    /** Outcomes required before the rate is trusted. */
    uint32_t breakerMinSamples = 16;
    /** Open dwell before HalfOpen; doubles per reopen (capped 8x). */
    sim::SimDuration breakerCooldown = sim::milliseconds(250);
    /** Consecutive HalfOpen successes that re-close the breaker. */
    uint32_t breakerHalfOpenSuccesses = 4;

    // -- admission control --------------------------------------------
    /** Max device completion-horizon lead over arrivals before new
     *  requests are shed (0 = unbounded queueing). */
    sim::SimDuration maxBacklog = sim::milliseconds(50);

    // -- SLO / degradation ladder -------------------------------------
    /** A forwarded request violates the SLO when it fails or its
     *  exchange latency exceeds this. */
    sim::SimDuration sloLatencyTarget = sim::milliseconds(50);
    /** Fraction of requests allowed to violate (the error budget). */
    double sloErrorBudget = 0.05;
    /** Rolling violation window (clamped to kRingCapacity). */
    uint32_t sloWindow = 256;
    /** Ladder re-evaluation period, in forwarded completions. */
    uint32_t ladderEvalEvery = 64;
    /** FailFast dwell before retrying normal service. */
    sim::SimDuration failFastCooldown = sim::milliseconds(500);

    /** Empty when well-formed, else a message naming the field. */
    std::string validate() const;
};

/** Per-policy accounting (exported as pol_* counters). */
struct PolicyCounters
{
    uint64_t submissions = 0;     ///< Caller-visible requests.
    uint64_t forwarded = 0;       ///< Reached the resilient path.
    uint64_t shedOverload = 0;    ///< Admission-control rejections.
    uint64_t shedBreaker = 0;     ///< Breaker-open rejections.
    uint64_t shedWriteDeferred = 0; ///< Ladder write deferrals.
    uint64_t shedFailFast = 0;    ///< Ladder fail-fast rejections.
    uint64_t hedgesIssued = 0;    ///< Backup reads issued.
    uint64_t hedgeWins = 0;       ///< Backup read beat the primary.
    uint64_t hedgeCancelled = 0;  ///< Losing halves of hedge pairs.
    uint64_t hedgeTokenDenied = 0; ///< Hedge wanted, budget empty.
    uint64_t deadlineExpired = 0; ///< Forwarded requests that expired.
    uint64_t breakerOpens = 0;    ///< Closed/HalfOpen -> Open edges.
    uint64_t breakerReopens = 0;  ///< HalfOpen trial failures.
    uint64_t breakerCloses = 0;   ///< HalfOpen -> Closed recoveries.
    uint64_t breakerTrials = 0;   ///< Requests forwarded as trials.
    uint64_t sloViolations = 0;   ///< Window-fed violation events.
    uint64_t ladderTransitions = 0; ///< Degradation level changes.

    /** Total requests shed for any reason. */
    uint64_t shedTotal() const
    {
        return shedOverload + shedBreaker + shedWriteDeferred +
               shedFailFast;
    }
};

/** SLO-enforcing policy decorator over a ResilientDevice. */
class PolicyDevice : public blockdev::BlockDevice
{
  public:
    /** Rolling-window storage bound; configs clamp to this. */
    static constexpr uint32_t kRingCapacity = 256;
    /** Rolling ok-latency samples kept for the p95 hedge delay. */
    static constexpr uint32_t kLatencySamples = 64;

    /** @param inner the retry/backoff layer (not owned). */
    explicit PolicyDevice(blockdev::ResilientDevice &inner,
                          ResiliencePolicy cfg = {});

    // BlockDevice interface.
    [[nodiscard]] blockdev::IoResult submit(const blockdev::IoRequest &req,
                                            sim::SimTime now) override;
    uint64_t capacitySectors() const override
    {
        return inner_.capacitySectors();
    }
    void purge(sim::SimTime now) override { inner_.purge(now); }
    std::string name() const override { return inner_.name(); }

    /**
     * Submit with a latency hint: @p predictedLatency is the caller's
     * forecast for this request (a prediction-engine HL estimate, a
     * recent p95 — anything monotone in expected slowness; 0 = no
     * hint). Reads predicted slower than the hedge delay are hedged.
     */
    [[nodiscard]] blockdev::IoResult
    submitHinted(const blockdev::IoRequest &req, sim::SimTime now,
                 sim::SimDuration predictedLatency);

    /**
     * Feed the supervisor's health verdict: Degraded, Rediagnosing
     * and Disabled floor the ladder at HedgingOff (the model's
     * predictions are not trustworthy enough to hedge on), without
     * blocking the probe writes re-diagnosis needs.
     */
    void observeHealth(core::HealthState s);

    const ResiliencePolicy &config() const { return cfg_; }
    const PolicyCounters &counters() const { return counters_; }
    BreakerState breakerState() const
    {
        return static_cast<BreakerState>(breakerState_);
    }
    DegradationLevel ladderLevel() const
    {
        return static_cast<DegradationLevel>(ladder_);
    }
    /** Effective hedge delay (configured or p95-derived). */
    sim::SimDuration hedgeDelayEffective() const { return hedgeDelayEff_; }
    /** Largest single-exchange duration seen (budget-domination
     *  witness: never exceeds deadlineBudget when one is set). */
    sim::SimDuration maxExchange() const { return maxExchangeNs_; }
    /** Remaining SLO error budget in ppm of the window (gauge). */
    int64_t errorBudgetPpm() const { return errorBudgetPpm_; }

    /**
     * Attach observability (cold path, before the run): pol_*
     * counters and ladder/breaker/error-budget gauges on the
     * registry, res.shed / res.breaker / res.hedge events on the
     * host resilient trace track.
     */
    void attachObservability(const obs::Sink &sink);

    /** Serialize policy dynamic state (counters, breaker, rings,
     *  tokens, ladder). Config is not serialized — the snapshot's
     *  config hash pins it. */
    void saveState(recovery::StateWriter &w) const;

    /** Restore state saved by saveState(). @return reader still ok. */
    bool loadState(recovery::StateReader &r);

  private:
    [[nodiscard]] blockdev::IoResult shed(const blockdev::IoRequest &req,
                                          sim::SimTime now,
                                          ShedReason reason);
    void feedOutcome(const blockdev::IoResult &res, sim::SimTime now);
    void evalLadder(sim::SimTime now);
    void setLadder(uint8_t level, sim::SimTime now);
    void breakerTransition(uint8_t to, sim::SimTime now);
    sim::SimDuration latencyP95() const;

    blockdev::ResilientDevice &inner_; // snapshot:skip(ctor-wired reference to the wrapped device; the restore harness rebuilds the object graph)
    ResiliencePolicy cfg_; // snapshot:skip(construction-time config; loadState only validates it against the checkpoint)
    PolicyCounters counters_;

    // Breaker.
    uint8_t breakerState_ = 0; ///< BreakerState (uint8 for the gauge).
    sim::SimTime breakerOpenedAt_;
    sim::SimDuration breakerCooldownCur_ = 0;
    uint32_t halfOpenOk_ = 0;
    uint8_t outcomeRing_[kRingCapacity] = {};
    uint32_t outcomeHead_ = 0;
    uint32_t outcomeFilled_ = 0;
    uint32_t outcomeFailures_ = 0; ///< Running failure count in ring.

    // SLO / ladder.
    uint8_t ladder_ = 0; ///< DegradationLevel (uint8 for the gauge).
    uint8_t healthFloor_ = 0;
    uint8_t violationRing_[kRingCapacity] = {};
    uint32_t violationHead_ = 0;
    uint32_t violationFilled_ = 0;
    uint32_t violationCount_ = 0; ///< Running violation count in ring.
    uint32_t evalCountdown_ = 0;
    sim::SimTime failFastUntil_;
    int64_t errorBudgetPpm_ = 0;

    // Hedging.
    int64_t hedgeTokensMicro_ = 0; ///< Fixed-point: 1e6 = one hedge.
    sim::SimDuration hedgeDelayEff_ = 0;
    int64_t latencyRing_[kLatencySamples] = {};
    uint32_t latencyHead_ = 0;
    uint32_t latencyFilled_ = 0;

    // Admission.
    sim::SimTime horizon_; ///< Max completion time seen.
    sim::SimDuration maxExchangeNs_ = 0;

    // Observability (null until attachObservability()).
    obs::TraceRecorder *trace_ = nullptr; // snapshot:skip(non-owning observability hook, re-attached after restore)
};

/** Named policy presets for the CLI / chaos scenarios. */
std::vector<ResiliencePolicy> allResiliencePolicies();

/**
 * Look up a preset by name ("off", "guarded", "strict").
 * @return true and fill @p out when the name is known.
 */
bool resiliencePolicyByName(const std::string &name, ResiliencePolicy *out);

} // namespace ssdcheck::resilience
