/**
 * @file
 * Host-side resilient I/O path: a BlockDevice decorator implementing
 * bounded retries with capped exponential backoff and timeout
 * classification — the layer the SSDcheck runtime sits on when the
 * device underneath misbehaves.
 *
 * Policy:
 *  - MediaError and Timeout completions are retryable; the request is
 *    re-submitted after a backoff that doubles per attempt up to a
 *    cap. DeviceFault (malformed/rejected command) is permanent and
 *    returned immediately.
 *  - A completion whose device latency exceeds timeoutAfter is
 *    classified Timeout: the host gave up waiting and re-issues. The
 *    classification threshold must sit far above any legitimate
 *    internal event (GC takes tens of milliseconds; the default
 *    threshold is 500ms).
 *  - The returned IoResult spans the whole exchange: submitTime is
 *    the original submission, completeTime the final attempt's
 *    completion, attempts counts submissions. A result that is not
 *    IoResult::clean() is tainted (its latency contains retry loops
 *    and backoff, not device service time): SsdCheck::onComplete
 *    keeps it out of the model and counts it as faulted.
 *
 * Per-status error counters make the device's misbehavior observable
 * to operators (surfaced by the CLI's fault report).
 */
#pragma once

#include <cstdint>
#include <string>

#include "blockdev/block_device.h"
#include "obs/sink.h"

namespace ssdcheck::recovery {
class StateWriter;
class StateReader;
} // namespace ssdcheck::recovery

namespace ssdcheck::blockdev {

/** Retry/backoff/timeout policy of the resilient path. */
struct ResilienceConfig
{
    /** Re-submissions after the first attempt (0 = fail fast). */
    uint32_t maxRetries = 3;
    /** Backoff before the first retry; doubles per further retry. */
    sim::SimDuration backoffBase = sim::microseconds(200);
    /** Upper bound on any single backoff wait. */
    sim::SimDuration backoffCap = sim::milliseconds(20);
    /** Completions slower than this classify as Timeout (0 = off). */
    sim::SimDuration timeoutAfter = sim::milliseconds(500);
};

/** Per-status error accounting of one resilient device. */
struct ResilienceCounters
{
    uint64_t mediaErrors = 0;   ///< MediaError completions seen.
    uint64_t timeouts = 0;      ///< Timeout classifications.
    uint64_t deviceFaults = 0;  ///< Permanent faults (not retried).
    uint64_t retries = 0;       ///< Re-submissions performed.
    uint64_t recovered = 0;     ///< Requests that succeeded on retry.
    uint64_t exhausted = 0;     ///< Requests failed after max retries.
    uint64_t submissions = 0;   ///< Caller-visible requests served.
    /** Caller requests whose exchange saw at least one error. */
    uint64_t erroredRequests = 0;
    /** Exchanges cut short by a deadline budget (submitBounded). */
    uint64_t expired = 0;
    /**
     * Inner-device submissions actually issued (attempts, including
     * retries). Unlike submissions this counts what the device saw:
     * a deadline can expire before the first attempt, so submissions
     * and attemptsIssued move independently.
     */
    uint64_t attemptsIssued = 0;

    /**
     * Fraction of caller requests that saw any error (0 when idle).
     * Counted per request, not per attempt: a single request retried
     * three times is one errored request, so the rate stays in [0, 1]
     * (the old per-attempt numerator could exceed it).
     */
    double errorRate() const
    {
        return submissions == 0 ? 0.0
                                : static_cast<double>(erroredRequests) /
                                      static_cast<double>(submissions);
    }

    /** Total failed attempts observed (any status, per-attempt). */
    uint64_t totalErrors() const
    {
        return mediaErrors + timeouts + deviceFaults;
    }
};

/** Retry/backoff/timeout decorator over any BlockDevice. */
class ResilientDevice : public BlockDevice
{
  public:
    /** @param inner the possibly-faulty device (not owned). */
    explicit ResilientDevice(BlockDevice &inner, ResilienceConfig cfg = {});

    // BlockDevice interface.
    [[nodiscard]] IoResult submit(const IoRequest &req,
                                  sim::SimTime now) override;

    /**
     * Submit with an absolute deadline budget: the whole exchange —
     * attempts, timeout waits, backoff — is capped at @p deadline
     * (0 = unbounded, identical to submit()). The exchange never
     * consumes sim time past the budget: an attempt whose settled
     * time would cross it, or a retry that would start at/after it,
     * returns IoStatus::Expired with completeTime clamped to the
     * budget boundary. A deadline already in the past returns Expired
     * with attempts = 0 and no device submission.
     */
    [[nodiscard]] IoResult submitBounded(const IoRequest &req,
                                         sim::SimTime now,
                                         sim::SimTime deadline);
    uint64_t capacitySectors() const override
    {
        return inner_.capacitySectors();
    }
    void purge(sim::SimTime now) override { inner_.purge(now); }
    std::string name() const override { return inner_.name(); }

    const ResilienceCounters &counters() const { return counters_; }
    const ResilienceConfig &config() const { return cfg_; }

    /** Backoff before retry number @p retry (1-based), capped. */
    sim::SimDuration backoffFor(uint32_t retry) const;

    /**
     * Attach observability targets (cold path, before the run):
     * exports the resilience counters onto the registry under a
     * {device=<name>} label and emits attempt/retry trace spans on the
     * host resilient track — only for abnormal exchanges (any error or
     * more than one attempt), so the healthy hot path stays silent.
     */
    void attachObservability(const obs::Sink &sink);

    /** Serialize counters and the inner-clock high-water mark. */
    void saveState(recovery::StateWriter &w) const;

    /** Restore state saved by saveState(). @return reader still ok. */
    bool loadState(recovery::StateReader &r);

  private:
    BlockDevice &inner_; // snapshot:skip(ctor-wired reference to the wrapped device; the restore harness rebuilds the object graph)
    ResilienceConfig cfg_; // snapshot:skip(construction-time config; restore constructs an identical wrapper before loadState)
    ResilienceCounters counters_;
    /** High-water mark of inner submissions: retries run ahead of the
     *  caller's clock, and the inner device requires nondecreasing
     *  submit times. */
    sim::SimTime innerClock_;

    // Observability (null until attachObservability()).
    obs::TraceRecorder *trace_ = nullptr; // snapshot:skip(non-owning observability hook, re-attached after restore)
};

} // namespace ssdcheck::blockdev

