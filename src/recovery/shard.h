/**
 * @file
 * The one QD1 replay loop. A Shard is a whole host stack — device,
 * resilient path, optional policy layer, optional model and health
 * supervisor, metrics registry, workload cursor — built from one
 * ShardSpec. Each step() is one round of the paper's closed-loop
 * protocol (§V-B): predict the next request, issue it, classify the
 * measured latency, update the model. `ssdcheck run` is a Shard, a
 * chaos campaign shard (resilience/chaos.h) is a Shard plus an outcome
 * digest, and evaluatePredictionAccuracy() runs the same per-request
 * body over a caller-built stack.
 *
 * Every step boundary is a quiescent point: nothing is in flight and
 * the whole simulation state is the components' saveState() state
 * (DESIGN.md "Crash consistency & state serialization").
 * Determinism contract: create(spec) + N steps + checkpoint()
 * produces the same bytes whether the N steps ran in one process or
 * were split across any number of kill/restore cycles — the contract
 * the soak harness (tools/soak) and the resume property test check.
 */
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "blockdev/resilient_device.h"
#include "core/accuracy.h"
#include "core/health_supervisor.h"
#include "core/ssdcheck.h"
#include "obs/registry.h"
#include "obs/sink.h"
#include "recovery/snapshot.h"
#include "recovery/state_io.h"
#include "resilience/policy.h"
#include "ssd/ssd_device.h"
#include "workload/trace.h"

namespace ssdcheck::recovery {

/** How the host clock advances between requests. */
enum class Pacing : uint8_t
{
    Open = 0,   ///< Fixed arrival period; queues can build (overload).
    Closed = 1, ///< Next request waits for the previous completion.
};

/** The layers one request passes through (null = layer absent). */
struct RequestPath
{
    blockdev::BlockDevice &dev; ///< Submit target without a policy layer.
    resilience::PolicyDevice *policy;
    core::SsdCheck *check;
    core::HealthSupervisor *sup;
    obs::TraceRecorder *spans;
    obs::Registry *metrics;
    obs::Histogram hostLatency;
};

/**
 * The host's one per-request body and the only one that feeds the
 * model: Shard::step(), evaluatePredictionAccuracy(),
 * usecases::runScheduled() and usecases::HybridTier all dispatch
 * through it. The model's onComplete scores each prediction into
 * SsdCheck::accuracy().
 * @param arrival the request's arrival time (the clock floor).
 * @param closed closed pacing: the clock advances to the completion.
 * @param t the host clock.
 * @param lastOk latency of the last ok completion: the hedge hint
 *        when there is no model.
 */
[[nodiscard]] blockdev::IoResult
replayRequest(RequestPath &p, const blockdev::IoRequest &req,
              sim::SimTime arrival, bool closed, sim::SimTime &t,
              sim::SimDuration &lastOk);

/** Everything that shapes one shard's deterministic evolution. */
struct ShardSpec
{
    ssd::SsdConfig device; ///< Resolved preset, faults and device seed.
    std::string workload = "RW Mixed"; ///< SNIA workload name.
    double scale = 0.05;               ///< Trace shrink factor.
    /** Policy stack; a disabled policy means no policy layer. */
    resilience::ResiliencePolicy policy;
    /** Diagnose a fault-free twin and predict before every request. */
    bool model = true;
    bool supervisor = false; ///< Health supervisor (needs the model).
    Pacing pacing = Pacing::Closed;
    /** Request i arrives no earlier than origin + i * arrivalPeriod. */
    sim::SimDuration arrivalPeriod = 0;
    int64_t timelineMs = 0; ///< Metrics timeline interval (0 = off).
    /** Canonical text whose FNV-1a is the snapshot config hash. */
    std::string identity;
};

/**
 * The parameters of `ssdcheck run`. Two runs (or one run and a
 * snapshot) are compatible exactly when their canonical() texts match
 * — resuming a snapshot under different params would silently
 * diverge, so the loader refuses it.
 */
struct RunParams
{
    std::string device = "A";       ///< Preset name ("A".."G" or "nvm").
    std::string faults = "none";    ///< Fault-profile name.
    std::string workload = "RW Mixed";
    double scale = 0.05;            ///< Trace shrink factor.
    bool supervisor = false;        ///< Health supervisor attached.
    int64_t timelineMs = 0;         ///< Metrics timeline interval (0=off).
    std::string resilience = "off"; ///< Policy preset ("off" = none).

    /** Canonical text form: the run's ShardSpec::identity. */
    std::string canonical() const;
};

/** One checkpointable QD1 replay (see the file comment). */
class Shard
{
  public:
    /**
     * Build the full host stack for @p spec: resolve the workload
     * name; build the device, its resilient path and policy layer, the
     * model from a clean-twin diagnosis (when spec.model) and the
     * supervisor; attach the metrics registry; then precondition the
     * device and build the trace.
     * @param forResume skip the one-time offline work (clean-twin
     *        diagnosis, preconditioning): every bit of state it
     *        produces is about to be overwritten by restore(). The
     *        model is built around placeholder features that
     *        restore() replaces.
     * @param err receives a description when construction fails.
     * @param sink optional observability beside the shard's own
     *        registry (its metrics member is ignored): a trace
     *        recorder for host.request spans and named tracks, and an
     *        audit log. Neither is serialized, so attaching one cannot
     *        change checkpoint bytes.
     * @return the shard, or nullptr (with @p err set).
     */
    static std::unique_ptr<Shard> create(const ShardSpec &spec,
                                         bool forResume, std::string *err,
                                         const obs::Sink *sink = nullptr);

    /** True when the whole trace has been replayed. */
    bool done() const { return cursor_ >= trace_.size(); }

    /** Replay one request (precondition: !done()). @return its result
     *  (already scored by the model: callers that only drive the run
     *  drop it). */
    [[nodiscard]] blockdev::IoResult step();

    /** Requests replayed so far (the resume point of a snapshot). */
    uint64_t cursor() const { return cursor_; }

    /** Current virtual time (the host clock). */
    sim::SimTime now() const { return t_; }

    /** Arrival-clock origin: the host clock before the first request. */
    sim::SimTime origin() const { return origin_; }

    /** Latency of the last ok completion: the hedge hint when the
     *  shard has no model. */
    sim::SimDuration lastOkLatency() const { return lastOk_; }

    /** Restore origin() and lastOkLatency(), which a caller's own
     *  snapshot section carries (run snapshots need neither). */
    void restorePacing(sim::SimTime origin, sim::SimDuration lastOk)
    {
        origin_ = origin;
        lastOk_ = lastOk;
    }

    /**
     * Serialize the complete shard state at the current request
     * boundary into a snapshot (header: FNV-1a of spec.identity — the
     * compatibility key — cursor and virtual time). A shard with a
     * model also writes the model's accuracy() as the Accuracy
     * section; one without a model writes none.
     */
    Snapshot checkpoint() const;

    /**
     * Restore a parsed snapshot in place. Refuses snapshots whose
     * config hash differs (LoadError::ConfigMismatch) and malformed
     * section payloads (LoadError::Malformed, @p detail says which
     * section and why). On failure the shard must be discarded: state
     * may be partially overwritten.
     * @param forceConfig skip the config-hash comparison (--force):
     *        section-level validation still applies, so structurally
     *        incompatible state fails as Malformed instead.
     */
    [[nodiscard]] LoadError restore(const Snapshot &snap,
                                    std::string *detail,
                                    bool forceConfig = false);

    // -- component access (reports, invariant checks) ---------------------
    const ssd::SsdDevice &device() const { return *dev_; }
    const blockdev::ResilientDevice &resilient() const { return *rdev_; }
    /** Policy layer, or nullptr when the spec's policy is disabled. */
    const resilience::PolicyDevice *policyPtr() const { return pdev_.get(); }
    /** Model, or nullptr when the spec has none. */
    const core::SsdCheck *checkPtr() const { return check_.get(); }
    const core::HealthSupervisor *supervisorPtr() const { return sup_.get(); }
    const obs::Registry &registry() const { return registry_; }
    const workload::Trace &trace() const { return trace_; }

    /** Metrics-registry JSON snapshot at the current virtual time. */
    std::string metricsJson() const { return registry_.toJson(t_); }

  private:
    Shard() = default;

    ShardSpec spec_;
    std::unique_ptr<ssd::SsdDevice> dev_;
    std::unique_ptr<blockdev::ResilientDevice> rdev_;
    std::unique_ptr<resilience::PolicyDevice> pdev_;
    std::unique_ptr<core::SsdCheck> check_;
    std::unique_ptr<core::HealthSupervisor> sup_;
    obs::Registry registry_;
    obs::Histogram hostLatency_;
    obs::TraceRecorder *spans_ = nullptr;
    workload::Trace trace_;
    sim::SimTime t_;
    sim::SimTime origin_;
    sim::SimDuration lastOk_ = 0;
    uint64_t cursor_ = 0;
};

/**
 * Build a run: resolve @p params into a ShardSpec (model on, closed
 * pacing, no arrival period) and Shard::create it.
 * @return nullptr with @p err set on an unknown name, a non-positive
 *         scale or a failed construction.
 */
std::unique_ptr<Shard> createRun(const RunParams &params, bool forResume,
                                 std::string *err,
                                 const obs::Sink *sink = nullptr);

/**
 * Decode section @p id of @p snap through @p fn — the one section
 * loader. CRCs already passed, so every decode failure is semantic.
 * @param name the section's name in @p detail messages.
 * @return MissingSection when absent, Malformed when @p fn's reader
 *         fails or leaves trailing bytes, else Ok.
 */
[[nodiscard]] LoadError
loadSection(const Snapshot &snap, SectionId id, const char *name,
            const std::function<void(StateReader &)> &fn,
            std::string *detail);

/**
 * Replay @p trace at QD1 from @p startTime on a caller-built stack —
 * @p dev takes every submit, @p check predicts before each — through
 * Shard::step()'s per-request body. For callers that carry one model
 * across workloads or diagnose in place.
 * @return what @p check's accuracy() gained over this trace.
 * @param endTime receives the virtual finish time (optional).
 * @param supervisor optional: pumped for probe I/O between requests
 *        and fed every completion.
 * @param sink optional host.request spans, host-latency histogram and
 *        timeline ticks; attaching one never changes the results.
 */
core::AccuracyResult
evaluatePredictionAccuracy(blockdev::BlockDevice &dev, core::SsdCheck &check,
                           const workload::Trace &trace,
                           sim::SimTime startTime,
                           sim::SimTime *endTime = nullptr,
                           core::HealthSupervisor *supervisor = nullptr,
                           const obs::Sink *sink = nullptr);

} // namespace ssdcheck::recovery
