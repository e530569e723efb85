#include "recovery/shard.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <vector>

#include "core/diagnosis.h"
#include "ssd/fault_injector.h"
#include "ssd/presets.h"
#include "workload/snia_synth.h"

namespace ssdcheck::recovery {

namespace {

/** Host-latency histogram bounds (ns): 50µs .. 100ms decades. */
const std::vector<int64_t> kHostLatencyBounds = {
    50'000,     100'000,    250'000,    500'000,    1'000'000,
    2'500'000,  5'000'000,  10'000'000, 25'000'000, 100'000'000};

} // namespace

blockdev::IoResult
replayRequest(RequestPath &p, const blockdev::IoRequest &req,
              sim::SimTime arrival, bool closed, sim::SimTime &t,
              sim::SimDuration &lastOk)
{
    // Open pacing: t is the host submit clock — it follows arrivals
    // even while the device's completion horizon runs ahead (that gap
    // is what admission control measures). Closed pacing folds the
    // previous completion into t below, so max() waits for it here.
    t = std::max(t, arrival);
    if (p.sup != nullptr)
        t = p.sup->pump(t);
    core::Prediction pred{};
    if (p.check != nullptr) {
        pred = p.check->predict(req, t);
        p.check->onSubmit(req, t);
    }
    if (p.policy != nullptr && p.sup != nullptr)
        p.policy->observeHealth(p.sup->state());
    // Without a model the last ok latency is the hedge hint: a crude
    // predictor, but deterministic and monotone in slowness.
    const blockdev::IoResult res =
        p.policy != nullptr
            ? p.policy->submitHinted(req, t,
                                     p.check != nullptr ? pred.eet : lastOk)
            : p.dev.submit(req, t);
    const bool actualHl =
        p.check != nullptr &&
        p.check->onComplete(req, pred, t, res.completeTime, res.status,
                            res.attempts);
    if (p.sup != nullptr)
        p.sup->onCompletion(req, actualHl, res);
    if (p.spans != nullptr) {
        obs::TraceArg *a = p.spans->completeFill(
            "host", "host.request",
            obs::TraceTrack{obs::kHostPid, obs::kHostWorkloadTid}, t,
            res.completeTime - t, 4);
        a[0] = {"lba", static_cast<int64_t>(req.lba)};
        a[1] = {"write", req.isWrite() ? 1 : 0};
        a[2] = {"pred_hl", pred.hl ? 1 : 0};
        a[3] = {"actual_hl", actualHl ? 1 : 0};
    }
    if (p.metrics != nullptr) {
        p.hostLatency.observe(res.completeTime - t);
        p.metrics->tick(res.completeTime);
    }
    if (res.ok())
        lastOk = res.completeTime - t;
    if (closed)
        t = res.completeTime;
    return res;
}

namespace {

/** Name the trace tracks a replay writes to. */
void
nameTracks(obs::TraceRecorder &tr, const ssd::SsdDevice &dev)
{
    tr.setProcessName(obs::kHostPid, "host");
    tr.setProcessName(obs::kDevicePid, "ssd " + dev.name());
    tr.setThreadName({obs::kHostPid, obs::kHostWorkloadTid}, "workload");
    tr.setThreadName({obs::kHostPid, obs::kHostResilientTid},
                     "resilient-io");
    tr.setThreadName({obs::kHostPid, obs::kHostModelTid},
                     "ssdcheck-model");
    tr.setThreadName({obs::kHostPid, obs::kHostSupervisorTid},
                     "supervisor");
    tr.setThreadName({obs::kDevicePid, obs::kDeviceInterfaceTid},
                     "interface");
    for (uint32_t v = 0; v < dev.config().numVolumes(); ++v)
        tr.setThreadName({obs::kDevicePid, v}, "volume " + std::to_string(v));
}

} // namespace

std::string
RunParams::canonical() const
{
    char buf[320];
    std::snprintf(buf, sizeof buf,
                  "device=%s;faults=%s;workload=%s;scale=%.6f;"
                  "supervisor=%d;timeline_ms=%" PRId64 ";resilience=%s",
                  device.c_str(), faults.c_str(), workload.c_str(), scale,
                  supervisor ? 1 : 0, timelineMs, resilience.c_str());
    return buf;
}

std::unique_ptr<Shard>
createRun(const RunParams &params, bool forResume, std::string *err,
          const obs::Sink *sink)
{
    auto fail = [&](const std::string &why) -> std::unique_ptr<Shard> {
        if (err != nullptr)
            *err = why;
        return nullptr;
    };
    ShardSpec spec;
    if (!ssd::presetByName(params.device, &spec.device))
        return fail("unknown device '" + params.device + "'");
    if (!ssd::faultProfileByName(params.faults, &spec.device.faults))
        return fail("unknown fault profile '" + params.faults + "'");
    if (!workload::validScale(params.scale))
        return fail("bad value for --scale: must be in (0, 1]");
    if (!resilience::resiliencePolicyByName(params.resilience, &spec.policy))
        return fail("unknown resilience policy '" + params.resilience +
                    "'");
    spec.workload = params.workload;
    spec.scale = params.scale;
    spec.supervisor = params.supervisor;
    spec.timelineMs = params.timelineMs;
    spec.identity = params.canonical();
    return Shard::create(spec, forResume, err, sink);
}

std::unique_ptr<Shard>
Shard::create(const ShardSpec &spec, bool forResume, std::string *err,
              const obs::Sink *sink)
{
    workload::SniaWorkload w{};
    if (!workload::sniaWorkloadByName(spec.workload, &w)) {
        if (err != nullptr)
            *err = "unknown workload '" + spec.workload + "'";
        return nullptr;
    }
    std::unique_ptr<Shard> s(new Shard());
    s->spec_ = spec;
    s->dev_ = std::make_unique<ssd::SsdDevice>(spec.device);
    s->rdev_ = std::make_unique<blockdev::ResilientDevice>(*s->dev_);
    if (spec.policy.enabled)
        s->pdev_ = std::make_unique<resilience::PolicyDevice>(*s->rdev_,
                                                              spec.policy);
    if (spec.model) {
        if (forResume) {
            // Diagnosis and preconditioning only produce state that
            // restore() is about to overwrite; skip both and let the
            // Model section's features rebuild the engine.
            s->check_ = std::make_unique<core::SsdCheck>(core::FeatureSet{});
        } else {
            // Features come from a healthy twin (same model, no
            // faults): the fault budget lands entirely on the measured
            // run.
            ssd::SsdConfig cleanCfg = spec.device;
            cleanCfg.faults = ssd::FaultProfile{};
            ssd::SsdDevice cleanDev(cleanCfg);
            core::DiagnosisRunner runner(cleanDev, core::DiagnosisConfig{});
            const core::FeatureSet fs = runner.extractFeatures();
            if (!fs.bufferModelUsable()) {
                if (err != nullptr)
                    *err = "no usable buffer model for device '" +
                           spec.device.name + "'; nothing to run";
                return nullptr;
            }
            s->check_ = std::make_unique<core::SsdCheck>(fs);
            s->t_ = runner.now();
        }
        if (spec.supervisor) {
            // With a policy stacked, probes flow through it: supervisor
            // probe I/O is exactly the breaker's HalfOpen trial stream.
            blockdev::BlockDevice &probePath =
                s->pdev_ ? static_cast<blockdev::BlockDevice &>(*s->pdev_)
                         : *s->rdev_;
            s->sup_ = std::make_unique<core::HealthSupervisor>(*s->check_,
                                                               probePath);
        }
    }

    // Metrics are always attached: the registry is part of the
    // checkpointed state and of the final-state comparison. The
    // attach order must be identical on the fresh and resume paths so
    // the registry's registration order (its restore key) matches.
    obs::Sink all = sink != nullptr ? *sink : obs::Sink{};
    all.metrics = &s->registry_;
    s->spans_ = all.trace;
    if (spec.timelineMs > 0)
        s->registry_.enableTimeline(sim::milliseconds(spec.timelineMs));
    s->dev_->attachObservability(all);
    s->rdev_->attachObservability(all);
    if (s->pdev_)
        s->pdev_->attachObservability(all);
    if (s->check_)
        s->check_->attachObservability(all);
    if (s->sup_)
        s->sup_->attachObservability(all);
    if (all.trace != nullptr)
        nameTracks(*all.trace, *s->dev_);
    s->hostLatency_ =
        s->registry_.histogram("host_latency_ns", kHostLatencyBounds);

    if (!forResume)
        s->dev_->precondition();
    s->trace_ =
        workload::buildSniaTrace(w, s->dev_->capacityPages(), spec.scale);
    if (all.audit != nullptr)
        all.audit->reserve(all.audit->size() + s->trace_.size());
    s->origin_ = s->t_;
    return s;
}

blockdev::IoResult
Shard::step()
{
    RequestPath path{*rdev_, pdev_.get(), check_.get(), sup_.get(),
                     spans_, &registry_, hostLatency_};
    const sim::SimTime arrival =
        origin_ + static_cast<sim::SimDuration>(cursor_) * spec_.arrivalPeriod;
    const blockdev::IoRequest req = trace_[cursor_].req;
    const blockdev::IoResult res =
        replayRequest(path, req, arrival, spec_.pacing == Pacing::Closed,
                      t_, lastOk_);
    ++cursor_;
    return res;
}

Snapshot
Shard::checkpoint() const
{
    Snapshot snap;
    snap.begin(fnv1a(spec_.identity), cursor_, t_.ns());
    auto add = [&snap](SectionId id, const auto &layer) {
        StateWriter w;
        layer.saveState(w);
        snap.addSection(id, w.take());
    };
    add(SectionId::Device, *dev_);
    if (check_)
        add(SectionId::Model, *check_);
    if (sup_)
        add(SectionId::Supervisor, *sup_);
    add(SectionId::Resilient, *rdev_);
    if (pdev_)
        add(SectionId::Resilience, *pdev_);
    // The facade's counts: a shard without a model scored nothing.
    if (check_)
        add(SectionId::Accuracy, check_->accuracy());
    add(SectionId::Registry, registry_);
    StateWriter identity;
    identity.str(spec_.identity);
    snap.addSection(SectionId::RunParams, identity.take());
    return snap;
}

LoadError
loadSection(const Snapshot &snap, SectionId id, const char *name,
            const std::function<void(StateReader &)> &fn,
            std::string *detail)
{
    auto explain = [&](const std::string &why) {
        if (detail != nullptr)
            *detail = why;
    };
    const std::vector<uint8_t> *payload = snap.section(id);
    if (payload == nullptr) {
        explain(std::string("required section '") + name + "' is missing");
        return LoadError::MissingSection;
    }
    StateReader r(*payload);
    fn(r);
    if (!r.ok()) {
        explain(std::string("section '") + name + "': " + r.error());
        return LoadError::Malformed;
    }
    if (!r.atEnd()) {
        explain(std::string("section '") + name + "' has trailing bytes");
        return LoadError::Malformed;
    }
    return LoadError::Ok;
}

LoadError
Shard::restore(const Snapshot &snap, std::string *detail, bool forceConfig)
{
    auto explain = [&](const std::string &why) {
        if (detail != nullptr)
            *detail = why;
    };
    if (!forceConfig && snap.configHash() != fnv1a(spec_.identity)) {
        std::string taken = "<unrecorded>";
        if (const std::vector<uint8_t> *p = snap.section(SectionId::RunParams))
            taken = StateReader(*p).str();
        explain("snapshot was taken under a different run configuration\n"
                "  " + taken + "\nbut this run is configured as\n  " +
                spec_.identity);
        return LoadError::ConfigMismatch;
    }
    if (snap.requestIndex() > trace_.size()) {
        explain("snapshot resume point is beyond the end of the trace");
        return LoadError::Malformed;
    }

    // Load in checkpoint() order. A section for a layer this shard
    // lacks is refused: its state would silently be dropped.
    auto load = [&](SectionId id, const char *name, auto *layer) {
        if (layer != nullptr)
            return loadSection(
                snap, id, name, [&](StateReader &r) { layer->loadState(r); },
                detail);
        if (snap.section(id) == nullptr)
            return LoadError::Ok;
        explain(std::string("snapshot has a ") + name +
                " section but this run has no " + name + " layer");
        return LoadError::Malformed;
    };
    core::AccuracyResult acc;
    LoadError e = load(SectionId::Device, "device", dev_.get());
    if (e == LoadError::Ok)
        e = load(SectionId::Model, "model", check_.get());
    if (e == LoadError::Ok)
        e = load(SectionId::Supervisor, "supervisor", sup_.get());
    if (e == LoadError::Ok)
        e = load(SectionId::Resilient, "resilient", rdev_.get());
    if (e == LoadError::Ok)
        e = load(SectionId::Resilience, "resilience", pdev_.get());
    if (e == LoadError::Ok)
        e = load(SectionId::Accuracy, "accuracy", check_ ? &acc : nullptr);
    if (e == LoadError::Ok)
        e = load(SectionId::Registry, "registry", &registry_);
    if (e != LoadError::Ok)
        return e;

    if (check_)
        check_->restoreAccuracy(acc);
    cursor_ = snap.requestIndex();
    t_ = sim::SimTime{snap.simTimeNs()};
    return LoadError::Ok;
}

core::AccuracyResult
evaluatePredictionAccuracy(blockdev::BlockDevice &dev, core::SsdCheck &check,
                           const workload::Trace &trace,
                           sim::SimTime startTime, sim::SimTime *endTime,
                           core::HealthSupervisor *supervisor,
                           const obs::Sink *sink)
{
    const obs::Sink s = sink != nullptr ? *sink : obs::Sink{};
    if (s.audit != nullptr)
        s.audit->reserve(s.audit->size() + trace.records().size());
    obs::Histogram hostLatency;
    if (s.metrics != nullptr)
        hostLatency =
            s.metrics->histogram("host_latency_ns", kHostLatencyBounds);
    RequestPath path{dev,     nullptr,   &check,      supervisor,
                     s.trace, s.metrics, hostLatency};
    const core::AccuracyResult before = check.accuracy();
    sim::SimTime t = startTime;
    sim::SimDuration lastOk = 0;
    for (const auto &rec : trace.records())
        (void)replayRequest(path, rec.req, startTime, /*closed=*/true, t,
                            lastOk);
    if (endTime != nullptr)
        *endTime = t;
    return check.accuracy().since(before);
}

} // namespace ssdcheck::recovery
