#include "resilience/policy.h"

#include <algorithm>

#include "recovery/state_io.h"

namespace ssdcheck::resilience {

namespace {

constexpr int64_t kTokenScale = 1'000'000;    ///< One hedge token.
constexpr int64_t kTokenCapMicro = 10'000'000; ///< Max banked tokens.
constexpr uint8_t kClosed = 0;
constexpr uint8_t kOpen = 1;
constexpr uint8_t kHalfOpen = 2;
constexpr uint8_t kNormal = 0;
constexpr uint8_t kHedgingOff = 1;
constexpr uint8_t kWritesDeferred = 2;
constexpr uint8_t kFailFast = 3;

const obs::TraceTrack kPolicyTrack{obs::kHostPid, obs::kHostResilientTid};

/** Ring push with a running set-bit count; returns nothing. */
void
ringPush(uint8_t *ring, uint32_t window, uint32_t &head, uint32_t &filled,
         uint32_t &count, bool value)
{
    if (filled == window) {
        count -= ring[head];
    } else {
        ++filled;
    }
    ring[head] = value ? 1 : 0;
    count += ring[head];
    head = (head + 1) % window;
}

} // namespace

std::string
toString(BreakerState s)
{
    switch (s) {
      case BreakerState::Closed:
        return "closed";
      case BreakerState::Open:
        return "open";
      case BreakerState::HalfOpen:
        return "half-open";
    }
    return "?";
}

std::string
toString(DegradationLevel l)
{
    switch (l) {
      case DegradationLevel::Normal:
        return "normal";
      case DegradationLevel::HedgingOff:
        return "hedging-off";
      case DegradationLevel::WritesDeferred:
        return "writes-deferred";
      case DegradationLevel::FailFast:
        return "fail-fast";
    }
    return "?";
}

std::string
ResiliencePolicy::validate() const
{
    if (!enabled)
        return {};
    if (deadlineBudget < 0)
        return "policy '" + name + "': deadlineBudget must be >= 0";
    if (hedgeDelay < 0)
        return "policy '" + name + "': hedgeDelay must be >= 0";
    if (hedgeBudgetFraction < 0.0 || hedgeBudgetFraction > 1.0)
        return "policy '" + name +
               "': hedgeBudgetFraction must be within [0, 1]";
    if (breakerWindow == 0 ||
        breakerWindow > PolicyDevice::kRingCapacity)
        return "policy '" + name + "': breakerWindow must be in [1, " +
               std::to_string(PolicyDevice::kRingCapacity) + "]";
    if (breakerErrorThreshold <= 0.0 || breakerErrorThreshold > 1.0)
        return "policy '" + name +
               "': breakerErrorThreshold must be within (0, 1]";
    if (breakerMinSamples == 0 || breakerMinSamples > breakerWindow)
        return "policy '" + name +
               "': breakerMinSamples must be in [1, breakerWindow]";
    if (breakerCooldown <= 0)
        return "policy '" + name + "': breakerCooldown must be > 0";
    if (breakerHalfOpenSuccesses == 0)
        return "policy '" + name +
               "': breakerHalfOpenSuccesses must be > 0";
    if (maxBacklog < 0)
        return "policy '" + name + "': maxBacklog must be >= 0";
    if (sloLatencyTarget <= 0)
        return "policy '" + name + "': sloLatencyTarget must be > 0";
    if (sloErrorBudget <= 0.0 || sloErrorBudget > 1.0)
        return "policy '" + name +
               "': sloErrorBudget must be within (0, 1]";
    if (sloWindow == 0 || sloWindow > PolicyDevice::kRingCapacity)
        return "policy '" + name + "': sloWindow must be in [1, " +
               std::to_string(PolicyDevice::kRingCapacity) + "]";
    if (ladderEvalEvery == 0)
        return "policy '" + name + "': ladderEvalEvery must be > 0";
    if (failFastCooldown <= 0)
        return "policy '" + name + "': failFastCooldown must be > 0";
    return {};
}

PolicyDevice::PolicyDevice(blockdev::ResilientDevice &inner,
                           ResiliencePolicy cfg)
    : inner_(inner), cfg_(std::move(cfg))
{
    breakerCooldownCur_ = cfg_.breakerCooldown;
    evalCountdown_ = cfg_.ladderEvalEvery;
    hedgeDelayEff_ = cfg_.hedgeDelay;
    errorBudgetPpm_ = kTokenScale;
}

blockdev::IoResult
PolicyDevice::submit(const blockdev::IoRequest &req, sim::SimTime now)
{
    return submitHinted(req, now, /*predictedLatency=*/0);
}

blockdev::IoResult
PolicyDevice::shed(const blockdev::IoRequest &req, sim::SimTime now,
                   ShedReason reason)
{
    switch (reason) {
      case ShedReason::Overload:
        ++counters_.shedOverload;
        break;
      case ShedReason::BreakerOpen:
        ++counters_.shedBreaker;
        break;
      case ShedReason::WriteDeferred:
        ++counters_.shedWriteDeferred;
        break;
      case ShedReason::FailFast:
        ++counters_.shedFailFast;
        break;
    }
    if (trace_ != nullptr)
        trace_->instant("res", "res.shed", kPolicyTrack, now,
                        {{"reason", static_cast<int64_t>(reason)},
                         {"write", req.isWrite() ? 1 : 0}});
    blockdev::IoResult res;
    res.submitTime = now;
    res.completeTime = now; // Instant host-side completion.
    res.status = blockdev::IoStatus::Rejected;
    res.attempts = 0;       // The device never saw it.
    return res;
}

void
PolicyDevice::breakerTransition(uint8_t to, sim::SimTime now)
{
    breakerState_ = to;
    if (to == kHalfOpen)
        halfOpenOk_ = 0;
    if (trace_ != nullptr)
        trace_->instant("res", "res.breaker", kPolicyTrack, now,
                        {{"state", static_cast<int64_t>(to)}});
}

void
PolicyDevice::setLadder(uint8_t level, sim::SimTime now)
{
    if (level == ladder_)
        return;
    ladder_ = level;
    ++counters_.ladderTransitions;
    if (trace_ != nullptr)
        trace_->instant("res", "res.ladder", kPolicyTrack, now,
                        {{"level", static_cast<int64_t>(level)}});
}

void
PolicyDevice::observeHealth(core::HealthState s)
{
    // A distrusted model means distrusted predictions: stop hedging on
    // them. Anything stronger (deferring writes) would starve the
    // probe I/O re-diagnosis needs to recover the model.
    const bool distrusted = s == core::HealthState::Degraded ||
                            s == core::HealthState::Rediagnosing ||
                            s == core::HealthState::Disabled;
    healthFloor_ = distrusted ? kHedgingOff : kNormal;
    if (ladder_ < healthFloor_)
        ladder_ = healthFloor_; // Takes effect immediately, silently.
}

sim::SimDuration
PolicyDevice::latencyP95() const
{
    if (latencyFilled_ == 0)
        return 0;
    int64_t sorted[kLatencySamples];
    std::copy(latencyRing_, latencyRing_ + latencyFilled_, sorted);
    // Exact nearest-rank p95 over the window, matching
    // stats::LatencyRecorder::percentile semantics.
    const uint32_t rank =
        (latencyFilled_ * 95 + 99) / 100; // ceil(n * 0.95), 1-based.
    const uint32_t idx = rank == 0 ? 0 : rank - 1;
    std::nth_element(sorted, sorted + idx, sorted + latencyFilled_);
    return sorted[idx];
}

void
PolicyDevice::evalLadder(sim::SimTime now)
{
    // Refresh the adaptive hedge delay from the rolling p95.
    if (cfg_.hedgeDelay == 0)
        hedgeDelayEff_ = latencyP95();

    if (violationFilled_ == 0) {
        errorBudgetPpm_ = kTokenScale;
        return;
    }
    const double rate = static_cast<double>(violationCount_) /
                        static_cast<double>(violationFilled_);
    const double used = rate / cfg_.sloErrorBudget;
    errorBudgetPpm_ = static_cast<int64_t>(
        (1.0 - std::min(used, 1.0)) * static_cast<double>(kTokenScale));

    uint8_t level = kNormal;
    if (used >= 2.0)
        level = kFailFast;
    else if (used >= 1.0)
        level = kWritesDeferred;
    else if (used >= 0.5)
        level = kHedgingOff;
    level = std::max(level, healthFloor_);

    // FailFast is entered with a dwell time; the submit path exits it
    // once the dwell elapses (with a fresh violation window).
    if (level == kFailFast && ladder_ != kFailFast)
        failFastUntil_ = now + cfg_.failFastCooldown;
    setLadder(level, now);
}

void
PolicyDevice::feedOutcome(const blockdev::IoResult &res, sim::SimTime now)
{
    (void)now;
    const bool failure = !res.ok();
    if (res.status == blockdev::IoStatus::Expired)
        ++counters_.deadlineExpired;

    horizon_ = std::max(horizon_, res.completeTime);
    maxExchangeNs_ = std::max(maxExchangeNs_, res.latency());

    if (res.ok()) {
        latencyRing_[latencyHead_] = res.latency();
        latencyHead_ = (latencyHead_ + 1) % kLatencySamples;
        latencyFilled_ = std::min(latencyFilled_ + 1, kLatencySamples);
    }

    // Breaker bookkeeping.
    if (breakerState_ == kHalfOpen) {
        if (failure) {
            ++counters_.breakerReopens;
            breakerCooldownCur_ = std::min(breakerCooldownCur_ * 2,
                                           cfg_.breakerCooldown * 8);
            breakerOpenedAt_ = res.completeTime;
            breakerTransition(kOpen, res.completeTime);
        } else if (++halfOpenOk_ >= cfg_.breakerHalfOpenSuccesses) {
            ++counters_.breakerCloses;
            breakerCooldownCur_ = cfg_.breakerCooldown;
            outcomeHead_ = 0;
            outcomeFilled_ = 0;
            outcomeFailures_ = 0;
            breakerTransition(kClosed, res.completeTime);
        }
    } else if (breakerState_ == kClosed) {
        ringPush(outcomeRing_, cfg_.breakerWindow, outcomeHead_,
                 outcomeFilled_, outcomeFailures_, failure);
        if (outcomeFilled_ >= cfg_.breakerMinSamples &&
            static_cast<double>(outcomeFailures_) >=
                cfg_.breakerErrorThreshold *
                    static_cast<double>(outcomeFilled_)) {
            ++counters_.breakerOpens;
            breakerOpenedAt_ = res.completeTime;
            outcomeHead_ = 0;
            outcomeFilled_ = 0;
            outcomeFailures_ = 0;
            breakerTransition(kOpen, res.completeTime);
        }
    }

    // SLO window + ladder.
    const bool violation =
        failure || res.latency() > cfg_.sloLatencyTarget;
    if (violation)
        ++counters_.sloViolations;
    ringPush(violationRing_, cfg_.sloWindow, violationHead_,
             violationFilled_, violationCount_, violation);
    if (--evalCountdown_ == 0) {
        evalCountdown_ = cfg_.ladderEvalEvery;
        evalLadder(res.completeTime);
    }
}

blockdev::IoResult
PolicyDevice::submitHinted(const blockdev::IoRequest &req, sim::SimTime now,
                           sim::SimDuration predictedLatency)
{
    if (!cfg_.enabled)
        return inner_.submit(req, now);

    ++counters_.submissions;

    // Breaker Open dwell elapses on the arrival clock.
    if (breakerState_ == kOpen &&
        now >= breakerOpenedAt_ + breakerCooldownCur_)
        breakerTransition(kHalfOpen, now);

    const bool trial = breakerState_ == kHalfOpen;
    if (!trial) {
        if (breakerState_ == kOpen)
            return shed(req, now, ShedReason::BreakerOpen);
        if (ladder_ == kFailFast) {
            if (now < failFastUntil_)
                return shed(req, now, ShedReason::FailFast);
            // Dwell over: resume service against a fresh window so the
            // stale storm-era violations cannot re-trip the ladder.
            violationHead_ = 0;
            violationFilled_ = 0;
            violationCount_ = 0;
            setLadder(healthFloor_, now);
        }
        if (cfg_.maxBacklog > 0 && horizon_ - now > cfg_.maxBacklog)
            return shed(req, now, ShedReason::Overload);
        if (ladder_ >= kWritesDeferred && req.isWrite())
            return shed(req, now, ShedReason::WriteDeferred);
    }

    ++counters_.forwarded;
    if (trial)
        ++counters_.breakerTrials;

    // Hedge tokens accrue per forwarded request and are spent one per
    // backup read, bounding hedge amplification by construction.
    hedgeTokensMicro_ = std::min(
        hedgeTokensMicro_ +
            static_cast<int64_t>(cfg_.hedgeBudgetFraction *
                                 static_cast<double>(kTokenScale)),
        kTokenCapMicro);

    const sim::SimTime deadline = cfg_.deadlineBudget > 0
                                      ? now + cfg_.deadlineBudget
                                      : sim::kTimeZero;

    bool wantHedge = !trial && cfg_.hedgeReads && req.isRead() &&
                     ladder_ == kNormal && hedgeDelayEff_ > 0 &&
                     predictedLatency > hedgeDelayEff_ &&
                     (deadline == sim::kTimeZero ||
                      now + hedgeDelayEff_ < deadline);
    if (wantHedge && hedgeTokensMicro_ < kTokenScale) {
        ++counters_.hedgeTokenDenied;
        wantHedge = false;
    }

    blockdev::IoResult res = inner_.submitBounded(req, now, deadline);

    if (wantHedge) {
        hedgeTokensMicro_ -= kTokenScale;
        ++counters_.hedgesIssued;
        const sim::SimTime hedgeStart = now + hedgeDelayEff_;
        blockdev::IoResult backup =
            inner_.submitBounded(req, hedgeStart, deadline);
        const bool backupWins =
            backup.ok() &&
            (!res.ok() || backup.completeTime < res.completeTime);
        // The losing half is cancelled: accounting only — the device
        // did the work, as a real cancellation race would have.
        ++counters_.hedgeCancelled;
        if (trace_ != nullptr)
            trace_->complete(
                "res", "res.hedge", kPolicyTrack, hedgeStart,
                backup.completeTime - hedgeStart,
                {{"win", backupWins ? 1 : 0},
                 {"status", static_cast<int64_t>(backup.status)}});
        if (backupWins) {
            ++counters_.hedgeWins;
            backup.submitTime = now;
            res = backup;
        }
    }

    feedOutcome(res, now);
    return res;
}

void
PolicyDevice::attachObservability(const obs::Sink &sink)
{
    trace_ = sink.trace;
    if (sink.metrics != nullptr) {
        obs::Registry &reg = *sink.metrics;
        const obs::Labels labels = {{"device", inner_.name()}};
        reg.exportCounter("pol_submissions", labels,
                          &counters_.submissions);
        reg.exportCounter("pol_forwarded", labels, &counters_.forwarded);
        reg.exportCounter("pol_shed_overload", labels,
                          &counters_.shedOverload);
        reg.exportCounter("pol_shed_breaker", labels,
                          &counters_.shedBreaker);
        reg.exportCounter("pol_shed_write_deferred", labels,
                          &counters_.shedWriteDeferred);
        reg.exportCounter("pol_shed_fail_fast", labels,
                          &counters_.shedFailFast);
        reg.exportCounter("pol_hedges_issued", labels,
                          &counters_.hedgesIssued);
        reg.exportCounter("pol_hedge_wins", labels, &counters_.hedgeWins);
        reg.exportCounter("pol_hedge_cancelled", labels,
                          &counters_.hedgeCancelled);
        reg.exportCounter("pol_hedge_token_denied", labels,
                          &counters_.hedgeTokenDenied);
        reg.exportCounter("pol_deadline_expired", labels,
                          &counters_.deadlineExpired);
        reg.exportCounter("pol_breaker_opens", labels,
                          &counters_.breakerOpens);
        reg.exportCounter("pol_breaker_reopens", labels,
                          &counters_.breakerReopens);
        reg.exportCounter("pol_breaker_closes", labels,
                          &counters_.breakerCloses);
        reg.exportCounter("pol_breaker_trials", labels,
                          &counters_.breakerTrials);
        reg.exportCounter("pol_slo_violations", labels,
                          &counters_.sloViolations);
        reg.exportCounter("pol_ladder_transitions", labels,
                          &counters_.ladderTransitions);
        reg.exportGauge("pol_ladder_level", labels, &ladder_);
        reg.exportGauge("pol_breaker_state", labels, &breakerState_);
        reg.exportGauge("pol_error_budget_ppm", labels, &errorBudgetPpm_);
        reg.exportGauge("pol_max_exchange_ns", labels, &maxExchangeNs_);
    }
}

void
PolicyDevice::saveState(recovery::StateWriter &w) const
{
    w.u64(counters_.submissions);
    w.u64(counters_.forwarded);
    w.u64(counters_.shedOverload);
    w.u64(counters_.shedBreaker);
    w.u64(counters_.shedWriteDeferred);
    w.u64(counters_.shedFailFast);
    w.u64(counters_.hedgesIssued);
    w.u64(counters_.hedgeWins);
    w.u64(counters_.hedgeCancelled);
    w.u64(counters_.hedgeTokenDenied);
    w.u64(counters_.deadlineExpired);
    w.u64(counters_.breakerOpens);
    w.u64(counters_.breakerReopens);
    w.u64(counters_.breakerCloses);
    w.u64(counters_.breakerTrials);
    w.u64(counters_.sloViolations);
    w.u64(counters_.ladderTransitions);
    w.u8(breakerState_);
    w.i64(breakerOpenedAt_.ns());
    w.i64(breakerCooldownCur_);
    w.u32(halfOpenOk_);
    w.raw(outcomeRing_, kRingCapacity);
    w.u32(outcomeHead_);
    w.u32(outcomeFilled_);
    w.u32(outcomeFailures_);
    w.u8(ladder_);
    w.u8(healthFloor_);
    w.raw(violationRing_, kRingCapacity);
    w.u32(violationHead_);
    w.u32(violationFilled_);
    w.u32(violationCount_);
    w.u32(evalCountdown_);
    w.i64(failFastUntil_.ns());
    w.i64(errorBudgetPpm_);
    w.i64(hedgeTokensMicro_);
    w.i64(hedgeDelayEff_);
    for (uint32_t i = 0; i < kLatencySamples; ++i)
        w.i64(latencyRing_[i]);
    w.u32(latencyHead_);
    w.u32(latencyFilled_);
    w.i64(horizon_.ns());
    w.i64(maxExchangeNs_);
}

bool
PolicyDevice::loadState(recovery::StateReader &r)
{
    counters_.submissions = r.u64();
    counters_.forwarded = r.u64();
    counters_.shedOverload = r.u64();
    counters_.shedBreaker = r.u64();
    counters_.shedWriteDeferred = r.u64();
    counters_.shedFailFast = r.u64();
    counters_.hedgesIssued = r.u64();
    counters_.hedgeWins = r.u64();
    counters_.hedgeCancelled = r.u64();
    counters_.hedgeTokenDenied = r.u64();
    counters_.deadlineExpired = r.u64();
    counters_.breakerOpens = r.u64();
    counters_.breakerReopens = r.u64();
    counters_.breakerCloses = r.u64();
    counters_.breakerTrials = r.u64();
    counters_.sloViolations = r.u64();
    counters_.ladderTransitions = r.u64();
    breakerState_ = r.u8();
    breakerOpenedAt_ = sim::SimTime{r.i64()};
    breakerCooldownCur_ = r.i64();
    halfOpenOk_ = r.u32();
    r.raw(outcomeRing_, kRingCapacity);
    outcomeHead_ = r.u32();
    outcomeFilled_ = r.u32();
    outcomeFailures_ = r.u32();
    ladder_ = r.u8();
    healthFloor_ = r.u8();
    r.raw(violationRing_, kRingCapacity);
    violationHead_ = r.u32();
    violationFilled_ = r.u32();
    violationCount_ = r.u32();
    evalCountdown_ = r.u32();
    failFastUntil_ = sim::SimTime{r.i64()};
    errorBudgetPpm_ = r.i64();
    hedgeTokensMicro_ = r.i64();
    hedgeDelayEff_ = r.i64();
    for (uint32_t i = 0; i < kLatencySamples; ++i)
        latencyRing_[i] = r.i64();
    latencyHead_ = r.u32();
    latencyFilled_ = r.u32();
    horizon_ = sim::SimTime{r.i64()};
    maxExchangeNs_ = r.i64();
    if (r.ok()) {
        if (breakerState_ > kHalfOpen)
            r.fail("policy breaker state out of range");
        else if (ladder_ > kFailFast || healthFloor_ > kFailFast)
            r.fail("policy ladder level out of range");
        else if (outcomeHead_ >= kRingCapacity ||
                 violationHead_ >= kRingCapacity ||
                 latencyHead_ >= kLatencySamples ||
                 outcomeFilled_ > kRingCapacity ||
                 violationFilled_ > kRingCapacity ||
                 latencyFilled_ > kLatencySamples)
            r.fail("policy ring cursor out of range");
        else if (evalCountdown_ == 0 ||
                 evalCountdown_ > cfg_.ladderEvalEvery)
            r.fail("policy eval countdown out of range");
    }
    return r.ok();
}

std::vector<ResiliencePolicy>
allResiliencePolicies()
{
    std::vector<ResiliencePolicy> out;

    // Pass-through: no budgets, no breaker — PR-1 behavior.
    ResiliencePolicy off;
    off.name = "off";
    off.enabled = false;
    out.push_back(off);

    // Production-shaped defaults: generous budgets that only bite
    // when the device is genuinely sick.
    ResiliencePolicy guarded;
    guarded.name = "guarded";
    guarded.enabled = true;
    out.push_back(guarded);

    // Latency-critical serving: tight budgets, aggressive breaker,
    // eager hedging. Expect visible shed rates under faulty devices.
    ResiliencePolicy strict;
    strict.name = "strict";
    strict.enabled = true;
    strict.deadlineBudget = sim::milliseconds(250);
    strict.hedgeBudgetFraction = 0.1;
    strict.breakerErrorThreshold = 0.3;
    strict.breakerMinSamples = 8;
    strict.breakerCooldown = sim::milliseconds(100);
    strict.maxBacklog = sim::milliseconds(20);
    strict.sloLatencyTarget = sim::milliseconds(20);
    strict.sloErrorBudget = 0.02;
    strict.ladderEvalEvery = 32;
    out.push_back(strict);

    return out;
}

bool
resiliencePolicyByName(const std::string &name, ResiliencePolicy *out)
{
    for (auto &p : allResiliencePolicies()) {
        if (p.name == name) {
            if (out != nullptr)
                *out = p;
            return true;
        }
    }
    return false;
}

} // namespace ssdcheck::resilience
