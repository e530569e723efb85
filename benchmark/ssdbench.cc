/**
 * @file
 * The repo benchmark's measuring program: replays one named workload
 * through the public APIs of the layers and prints one JSON object of
 * raw measurements (benchmark/run.py turns it into metrics and checks
 * it against benchmark/golden.json).
 *
 *   ssdcheck_benchmark --workload NAME [--seed N] [--seconds S]
 *                      [--trace 0|1] [--smoke]
 *
 * Load: a QD1 closed loop in simulated time, the paper's protocol —
 * each request is issued at the previous one's completion. The step is
 * a copy of recovery::CheckpointableRun::step(); no in-tree replay loop
 * is called, so refactoring those cannot re-baseline this benchmark.
 *
 * Per run: set up three times (median reported), then one discarded
 * warm-up trial, then timed trials until at least K have run and
 * --seconds have been measured, then (--trace 1) one traced trial that
 * times 1 request in 8 at every layer boundary. Every trial replays on
 * a freshly constructed and preconditioned stack with a fresh model
 * built from the cached FeatureSet, so every trial must produce the
 * same outcome digest.
 */
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "blockdev/resilient_device.h"
#include "core/accuracy.h"
#include "core/diagnosis.h"
#include "core/health_supervisor.h"
#include "core/ssdcheck.h"
#include "obs/audit_log.h"
#include "obs/registry.h"
#include "obs/sink.h"
#include "obs/trace_binary.h"
#include "obs/trace_recorder.h"
#include "recovery/state_io.h"
#include "resilience/policy.h"
#include "span_tracer.h"
#include "ssd/presets.h"
#include "ssd/ssd_device.h"
#include "workload/snia_synth.h"

namespace {

using namespace ssdcheck;
using ssdbench::Layer;
using ssdbench::Tracer;
using ssdbench::wallNs;

/** What one named workload replays, on which stack. */
struct Spec
{
    const char *name;
    bool grid;            ///< Fig. 11: all presets x all SNIA workloads.
    workload::SniaWorkload trace;
    double scale;
    const char *faults;   ///< Fault profile of the measured device.
    bool policy;          ///< Guarded PolicyDevice over ResilientDevice.
    bool supervisor;      ///< HealthSupervisor attached.
    bool fullSink;        ///< Trace recorder + audit log, exported.
    int minTrials;        ///< K: timed trials at least.
};

// Why these five: see benchmark/README.md ("Workloads").
const Spec kSpecs[] = {
    {"fig11", true, workload::SniaWorkload::TPCE, 0.03, "none", false,
     false, false, 3},
    {"write-gc", false, workload::SniaWorkload::TPCE, 1.0, "none", true,
     false, false, 5},
    {"read-exch", false, workload::SniaWorkload::Exch, 0.3, "none", true,
     false, false, 5},
    {"fault-hostile", false, workload::SniaWorkload::RwMixed, 0.5,
     "hostile", true, true, false, 5},
    {"trace-capture", false, workload::SniaWorkload::RwMixed, 0.3, "none",
     false, false, true, 5},
};

/** Host-latency histogram bounds, as in recovery/run_state.cc. */
const std::vector<int64_t> kHostLatencyBounds = {
    50'000,     100'000,    250'000,    500'000,    1'000'000,
    2'500'000,  5'000'000,  10'000'000, 25'000'000, 100'000'000};

/** Trace seeds the in-tree defaults use (seed 0 reproduces them). */
constexpr uint64_t kCellTraceSeed = 12345;   // buildSniaTrace default
constexpr uint64_t kGridTraceSeedBase = 1000; // perf::GridSpec default

uint64_t
traceSeed(uint64_t base, uint64_t seed)
{
    return base + seed * 1'000'003ull;
}

/** One device's offline products, built once per setup. */
struct Device
{
    ssd::SsdConfig cfg;
    core::FeatureSet features;
    sim::SimTime start;              ///< Virtual time diagnosis ended.
    std::vector<uint8_t> diagnosed;  ///< Grid: device state after diagnosis.
    std::vector<workload::Trace> traces;
};

struct SetupTiming
{
    double totalS = 0;
    double diagnosisS = 0;
    double preconditionMs = 0;
    double traceBuildMs = 0;
};

/** One trial's live stack for one device (built fresh per trial). */
struct Stack
{
    // Declaration order is construction order; destruction runs in
    // reverse, so every referrer dies before what it refers to.
    obs::Registry registry;
    std::unique_ptr<obs::TraceRecorder> recorder;
    std::unique_ptr<obs::AuditLog> audit;
    std::unique_ptr<ssd::SsdDevice> dev;
    std::unique_ptr<ssdbench::SpanDevice> ssdSpan;
    std::unique_ptr<blockdev::ResilientDevice> rdev;
    std::unique_ptr<resilience::PolicyDevice> pdev;
    std::unique_ptr<ssdbench::SpanDevice> probeSpan;
    std::unique_ptr<core::SsdCheck> check;
    std::unique_ptr<core::HealthSupervisor> sup;
    obs::Histogram hostLatency;
    sim::SimTime t;
    double snapNs = 0; ///< Traced: cost of one SsdDevice counter snapshot.
};

double
secondsBetween(int64_t a, int64_t b)
{
    return static_cast<double>(b - a) / 1e9;
}

bool
runSetup(const Spec &spec, uint64_t seed, double scale,
         std::vector<Device> *out, SetupTiming *timing, std::string *err)
{
    *timing = SetupTiming{};
    out->clear();
    const int64_t t0 = wallNs();
    ssd::FaultProfile faults;
    if (!ssd::faultProfileByName(spec.faults, &faults)) {
        *err = std::string("unknown fault profile ") + spec.faults;
        return false;
    }
    const std::vector<ssd::SsdModel> models =
        spec.grid ? ssd::allModels()
                  : std::vector<ssd::SsdModel>{ssd::SsdModel::A};
    for (const ssd::SsdModel m : models) {
        Device d;
        d.cfg = ssd::makePreset(m);
        d.cfg.faults = faults;
        const int64_t diag0 = wallNs();
        if (spec.grid) {
            // Fig. 11 protocol (perf::runGrid): diagnose the measured
            // device itself and replay from its post-diagnosis state,
            // kept as a snapshot so each trial restores it.
            ssd::SsdDevice dev(d.cfg);
            core::DiagnosisRunner runner(dev, core::DiagnosisConfig{});
            d.features = runner.extractFeatures();
            d.start = runner.now();
            recovery::StateWriter w;
            dev.saveState(w);
            d.diagnosed = w.take();
        } else {
            // Features come from a healthy twin, as in `ssdcheck run`:
            // the fault budget lands entirely on the measured run.
            ssd::SsdConfig clean = d.cfg;
            clean.faults = ssd::FaultProfile{};
            ssd::SsdDevice twin(clean);
            core::DiagnosisRunner runner(twin, core::DiagnosisConfig{});
            d.features = runner.extractFeatures();
            d.start = runner.now();
            if (!d.features.bufferModelUsable()) {
                *err = "diagnosis found no usable buffer model";
                return false;
            }
        }
        const int64_t pre0 = wallNs();
        uint64_t capacityPages = 0;
        {
            // The per-trial device preparation, timed once here.
            ssd::SsdDevice dev(d.cfg);
            if (spec.grid) {
                recovery::StateReader r(d.diagnosed);
                if (!dev.loadState(r) || !r.atEnd()) {
                    *err = "post-diagnosis snapshot did not restore";
                    return false;
                }
            } else {
                dev.precondition();
            }
            capacityPages = dev.capacityPages();
        }
        const int64_t tr0 = wallNs();
        if (spec.grid) {
            for (const auto w : workload::allSniaWorkloads())
                d.traces.push_back(workload::buildSniaTrace(
                    w, capacityPages, scale,
                    traceSeed(kGridTraceSeedBase + static_cast<uint64_t>(w),
                              seed)));
        } else {
            d.traces.push_back(workload::buildSniaTrace(
                spec.trace, capacityPages, scale,
                traceSeed(kCellTraceSeed, seed)));
        }
        const int64_t tr1 = wallNs();
        timing->diagnosisS += secondsBetween(diag0, pre0);
        timing->preconditionMs += secondsBetween(pre0, tr0) * 1e3;
        timing->traceBuildMs += secondsBetween(tr0, tr1) * 1e3;
        out->push_back(std::move(d));
    }
    timing->totalS = secondsBetween(t0, wallNs());
    return true;
}

/** Build one device's stack for a trial (untimed). */
std::unique_ptr<Stack>
buildStack(const Spec &spec, const Device &d, Tracer *tracer)
{
    auto s = std::make_unique<Stack>();
    s->dev = std::make_unique<ssd::SsdDevice>(d.cfg);
    if (tracer != nullptr) {
        static volatile uint64_t keep = 0;
        const ssd::SsdDevice &dev = *s->dev;
        s->snapNs = ssdbench::calibrateNs(
            [&dev] { keep = keep + dev.totalCounters().flushes; });
    }
    if (!spec.grid) {
        blockdev::BlockDevice *inner = s->dev.get();
        if (tracer != nullptr) {
            s->ssdSpan = std::make_unique<ssdbench::SpanDevice>(
                *s->dev, *tracer, ssdbench::kSsd, s->dev.get(), s->snapNs);
            inner = s->ssdSpan.get();
        }
        s->rdev = std::make_unique<blockdev::ResilientDevice>(*inner);
        if (spec.policy) {
            resilience::ResiliencePolicy policy;
            resilience::resiliencePolicyByName("guarded", &policy);
            s->pdev =
                std::make_unique<resilience::PolicyDevice>(*s->rdev, policy);
        }
    }
    s->check = std::make_unique<core::SsdCheck>(d.features);
    if (spec.supervisor) {
        // Probes flow through the policy, as in CheckpointableRun.
        blockdev::BlockDevice *probePath =
            s->pdev ? static_cast<blockdev::BlockDevice *>(s->pdev.get())
                    : s->rdev.get();
        if (tracer != nullptr) {
            s->probeSpan = std::make_unique<ssdbench::SpanDevice>(
                *probePath, *tracer, ssdbench::kResilience);
            probePath = s->probeSpan.get();
        }
        s->sup = std::make_unique<core::HealthSupervisor>(*s->check,
                                                          *probePath);
    }

    obs::Sink sink;
    sink.metrics = &s->registry;
    if (spec.fullSink) {
        s->recorder = std::make_unique<obs::TraceRecorder>();
        s->audit = std::make_unique<obs::AuditLog>();
        sink.trace = s->recorder.get();
        sink.audit = s->audit.get();
    }
    s->dev->attachObservability(sink);
    if (s->rdev)
        s->rdev->attachObservability(sink);
    if (s->pdev)
        s->pdev->attachObservability(sink);
    s->check->attachObservability(sink);
    if (s->sup)
        s->sup->attachObservability(sink);
    s->hostLatency =
        s->registry.histogram("host_latency_ns", kHostLatencyBounds);
    if (s->audit) {
        size_t total = 0;
        for (const auto &tr : d.traces)
            total += tr.size();
        s->audit->reserve(total);
    }

    if (spec.grid) {
        // runSetup already proved this snapshot restores.
        recovery::StateReader r(d.diagnosed);
        (void)s->dev->loadState(r);
    } else {
        s->dev->precondition();
    }
    s->t = d.start;
    return s;
}

constexpr uint64_t kFnvBasis = 0xcbf29ce484222325ull;

/** One FNV-1a step, over a 64-bit word instead of a byte. */
uint64_t
fnvFold(uint64_t h, uint64_t word)
{
    return (h ^ word) * 0x100000001b3ull;
}

/** Confusion counts, outcome digest and sim-time span of one trial. */
struct Tally
{
    core::AccuracyResult acc;
    uint64_t digest = kFnvBasis;
    uint64_t failed = 0; ///< Final status != Ok.
    int64_t simSpanNs = 0;
    sim::SimTime simEnd; ///< Completion of the last request replayed.
};

/**
 * Replay @p trace on @p s, one request per iteration. The body is
 * CheckpointableRun::step(); kTraced adds spans on sampled requests.
 * @param latOut receives each request's simulated latency (optional).
 */
template <bool kTraced>
void
replay(Stack &s, const workload::Trace &trace, Tally &tally, Tracer *tracer,
       uint64_t *index, int64_t *latOut)
{
    core::SsdCheck &check = *s.check;
    core::HealthSupervisor *sup = s.sup.get();
    resilience::PolicyDevice *pdev = s.pdev.get();
    blockdev::ResilientDevice *rdev = s.rdev.get();
    ssd::SsdDevice &dev = *s.dev;
    obs::TraceRecorder *spans = s.recorder.get();
    sim::SimTime t = s.t;
    const sim::SimTime start = t;
    uint64_t i = *index;
    for (const auto &rec : trace.records()) {
        const bool on = kTraced && tracer->wants(i);
        if (on)
            tracer->beginRequest(i);
        const blockdev::IoRequest &req = rec.req;
        // A layer absent from the stack still gets its span, so its self
        // time reads the measurement floor (about 0) instead of nothing.
        if (on)
            tracer->to(ssdbench::kSupervisor);
        if (sup != nullptr)
            t = sup->pump(t);
        if (on)
            tracer->to(ssdbench::kPredict);
        const core::Prediction pred = check.predict(req, t);
        check.onSubmit(req, t);
        if (pdev != nullptr && sup != nullptr) {
            if (on)
                tracer->to(ssdbench::kSupervisor);
            pdev->observeHealth(sup->state());
        }
        if (on)
            tracer->to(ssdbench::kResilience);
        blockdev::IoResult res;
        if (rdev == nullptr) {
            static constexpr Layer kThen = ssdbench::kComplete;
            res = on ? tracer->ssdCall(
                           dev, s.snapNs,
                           [&] { return dev.submit(req, t); }, &kThen)
                     : dev.submit(req, t);
        } else {
            res = pdev != nullptr ? pdev->submitHinted(req, t, pred.eet)
                                  : rdev->submit(req, t);
            if (on)
                tracer->to(ssdbench::kComplete);
        }
        const bool actualHl = check.onComplete(
            req, pred, t, res.completeTime, res.status, res.attempts);
        if (sup != nullptr) {
            if (on)
                tracer->to(ssdbench::kSupervisor);
            sup->onCompletion(req, actualHl, res);
        }
        if (on)
            tracer->to(ssdbench::kObs);
        if (spans != nullptr) {
            // The host.request span of the `ssdcheck trace` loop.
            obs::TraceArg *a = spans->completeFill(
                "host", "host.request",
                obs::TraceTrack{obs::kHostPid, obs::kHostWorkloadTid}, t,
                res.completeTime - t, 4);
            a[0] = {"lba", static_cast<int64_t>(req.lba)};
            a[1] = {"write", req.isWrite() ? 1 : 0};
            a[2] = {"pred_hl", pred.hl ? 1 : 0};
            a[3] = {"actual_hl", actualHl ? 1 : 0};
        }
        s.hostLatency.observe(res.completeTime - t);
        s.registry.tick(res.completeTime);
        if (on)
            tracer->to(ssdbench::kOther);

        if (latOut != nullptr)
            latOut[i] = res.completeTime - t;
        tally.digest = fnvFold(
            fnvFold(tally.digest, static_cast<uint64_t>(res.completeTime.ns())),
            static_cast<uint64_t>(res.status) |
                static_cast<uint64_t>(res.attempts) << 8 |
                static_cast<uint64_t>(pred.hl) << 40);
        if (!res.ok())
            ++tally.failed;
        if (!res.ok() || res.attempts > 1) {
            ++tally.acc.faulted;
        } else if (actualHl) {
            ++tally.acc.hlTotal;
            tally.acc.hlCorrect += pred.hl ? 1 : 0;
        } else {
            ++tally.acc.nlTotal;
            tally.acc.nlCorrect += pred.hl ? 0 : 1;
        }
        t = res.completeTime;
        if (on)
            tracer->endRequest(i);
        ++i;
    }
    tally.simSpanNs += t - start;
    tally.simEnd = t;
    s.t = t;
    *index = i;
}

/** Sums of the layers' public counters over a trial's stacks. */
struct Counters
{
    ssd::VolumeCounters vol;
    uint64_t attemptsIssued = 0, submissions = 0, retries = 0,
             recovered = 0, errored = 0;
    uint64_t hedges = 0, hedgeWins = 0, shed = 0, expired = 0,
             breakerOpens = 0;
    uint64_t probes = 0, hotSwaps = 0, degradedEntries = 0;
    uint64_t traceEvents = 0, traceBytes = 0, auditRecords = 0,
             auditBytes = 0;
};

void
addCounters(const Stack &s, Counters *c)
{
    const ssd::VolumeCounters v = s.dev->totalCounters();
    c->vol.writes += v.writes;
    c->vol.reads += v.reads;
    c->vol.flushes += v.flushes;
    c->vol.backpressureStalls += v.backpressureStalls;
    c->vol.gcInvocations += v.gcInvocations;
    c->vol.gcPagesMoved += v.gcPagesMoved;
    c->vol.bufferHits += v.bufferHits;
    c->vol.retiredBlocks += v.retiredBlocks;
    if (s.rdev) {
        const blockdev::ResilienceCounters &r = s.rdev->counters();
        c->attemptsIssued += r.attemptsIssued;
        c->submissions += r.submissions;
        c->retries += r.retries;
        c->recovered += r.recovered;
        c->errored += r.erroredRequests;
    }
    if (s.pdev) {
        const resilience::PolicyCounters &p = s.pdev->counters();
        c->hedges += p.hedgesIssued;
        c->hedgeWins += p.hedgeWins;
        c->shed += p.shedTotal();
        c->expired += p.deadlineExpired;
        c->breakerOpens += p.breakerOpens;
    }
    if (s.sup) {
        const core::HealthCounters &h = s.sup->counters();
        c->probes += h.probesIssued;
        c->hotSwaps += h.hotSwaps;
        c->degradedEntries += h.degradedEntries;
    }
    if (s.audit)
        c->auditRecords += s.audit->size();
    if (s.recorder)
        c->traceEvents += s.recorder->events();
}

enum class TrialKind { Warmup, Timed, Traced };

struct Trial
{
    TrialKind kind;
    double nsPerReq = 0;   ///< Timed region / requests.
    double loopNs = 0;     ///< Replay loop only, without the export.
    double exportMs = 0;   ///< Trace-capture serialization.
    uint64_t digest = 0;
    uint64_t exportDigest = 0;
    Tally tally;
    Counters counters;
    std::vector<core::AccuracyResult> cells; ///< Per replayed trace.
};

/**
 * Output stream buffer that keeps only a byte count and an FNV-1a
 * digest (over 64-bit words) of what is written: the serialization work
 * of writing to memory, without holding the bytes.
 */
class DigestBuf final : public std::streambuf
{
  public:
    DigestBuf() { setp(buf_.data(), buf_.data() + buf_.size()); }

    uint64_t digest()
    {
        drain();
        // Fold the partial last word, and the length so that trailing
        // zero bytes still count.
        return fnvFold(fnvFold(h_, pending_), bytes_);
    }
    uint64_t bytes()
    {
        drain();
        return bytes_;
    }

  protected:
    int_type overflow(int_type ch) override
    {
        drain();
        if (!traits_type::eq_int_type(ch, traits_type::eof())) {
            *pptr() = traits_type::to_char_type(ch);
            pbump(1);
        }
        return traits_type::not_eof(ch);
    }
    int sync() override
    {
        drain();
        return 0;
    }

  private:
    void drain()
    {
        for (const char *p = pbase(); p != pptr(); ++p) {
            pending_ |= static_cast<uint64_t>(static_cast<uint8_t>(*p))
                        << (8 * (bytes_ & 7));
            if ((++bytes_ & 7) == 0) {
                h_ = fnvFold(h_, pending_);
                pending_ = 0;
            }
        }
        setp(buf_.data(), buf_.data() + buf_.size());
    }

    std::array<char, 1 << 16> buf_{};
    uint64_t h_ = kFnvBasis;
    uint64_t pending_ = 0;
    uint64_t bytes_ = 0;
};

Trial
runTrial(const Spec &spec, const std::vector<Device> &devices,
         TrialKind kind, Tracer *tracer, std::vector<int64_t> *latencies)
{
    Trial out;
    out.kind = kind;
    const bool traced = kind == TrialKind::Traced;
    std::vector<std::unique_ptr<Stack>> stacks;
    uint64_t requests = 0;
    for (const Device &d : devices) {
        stacks.push_back(buildStack(spec, d, traced ? tracer : nullptr));
        for (const auto &tr : d.traces)
            requests += tr.size();
    }
    if (latencies != nullptr)
        latencies->assign(requests, 0);
    int64_t *lat = latencies != nullptr ? latencies->data() : nullptr;

    const int64_t t0 = wallNs();
    uint64_t index = 0;
    for (size_t k = 0; k < stacks.size(); ++k) {
        Stack &s = *stacks[k];
        for (const auto &tr : devices[k].traces) {
            const core::AccuracyResult before = out.tally.acc;
            if (traced)
                replay<true>(s, tr, out.tally, tracer, &index, lat);
            else
                replay<false>(s, tr, out.tally, tracer, &index, lat);
            const core::AccuracyResult &a = out.tally.acc;
            out.cells.push_back({a.nlTotal - before.nlTotal,
                                 a.nlCorrect - before.nlCorrect,
                                 a.hlTotal - before.hlTotal,
                                 a.hlCorrect - before.hlCorrect,
                                 a.faulted - before.faulted});
            // Fig. 11 gap between workloads on one device.
            s.t = s.t + sim::milliseconds(100);
        }
    }
    const int64_t t1 = wallNs();
    if (spec.fullSink) {
        // The `ssdcheck trace` outputs, serialized to memory.
        for (const auto &s : stacks) {
            DigestBuf bin;
            std::ostream binOs(&bin);
            obs::writeTraceBinary(*s->recorder, binOs);
            DigestBuf jsonl;
            std::ostream jsonlOs(&jsonl);
            s->audit->writeJsonl(jsonlOs);
            out.exportDigest ^= bin.digest() ^ jsonl.digest() * 3;
            out.counters.traceBytes += bin.bytes();
            out.counters.auditBytes += jsonl.bytes();
        }
    }
    const int64_t t2 = wallNs();
    out.loopNs = static_cast<double>(t1 - t0);
    out.exportMs = static_cast<double>(t2 - t1) / 1e6;
    out.nsPerReq = static_cast<double>(t2 - t0) /
                   static_cast<double>(requests == 0 ? 1 : requests);
    out.digest = out.tally.digest;
    for (const auto &s : stacks)
        addCounters(*s, &out.counters);
    return out;
}

/** Nearest-rank quantile @p q of @p v (0 when empty). */
template <typename T>
T
quantile(std::vector<T> v, double q)
{
    if (v.empty())
        return 0;
    const size_t k = std::min(
        v.size() - 1, static_cast<size_t>(q * static_cast<double>(v.size())));
    std::nth_element(v.begin(), v.begin() + static_cast<ptrdiff_t>(k),
                     v.end());
    return v[k];
}

double
mean(const std::vector<int64_t> &v)
{
    double sum = 0;
    for (const int64_t x : v)
        sum += static_cast<double>(x);
    return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

const char *
kindName(TrialKind k)
{
    switch (k) {
      case TrialKind::Warmup: return "warmup";
      case TrialKind::Timed: return "timed";
      case TrialKind::Traced: return "traced";
    }
    return "?";
}

void
printCounters(const Counters &c)
{
    std::printf(
        "\"counters\": {\"ssd_writes\": %" PRIu64 ", \"ssd_reads\": %" PRIu64
        ", \"ssd_flushes\": %" PRIu64 ", \"ssd_gc_runs\": %" PRIu64
        ", \"ssd_gc_pages_moved\": %" PRIu64 ", \"ssd_buffer_hits\": %" PRIu64
        ", \"ssd_backpressure\": %" PRIu64 ", \"ssd_retired_blocks\": %" PRIu64
        ", \"blockdev_submissions\": %" PRIu64
        ", \"blockdev_attempts\": %" PRIu64 ", \"blockdev_retries\": %" PRIu64
        ", \"blockdev_recovered\": %" PRIu64 ", \"blockdev_errored\": %" PRIu64
        ", \"resilience_hedges\": %" PRIu64
        ", \"resilience_hedge_wins\": %" PRIu64
        ", \"resilience_shed\": %" PRIu64 ", \"resilience_expired\": %" PRIu64
        ", \"resilience_breaker_opens\": %" PRIu64
        ", \"core_probes\": %" PRIu64 ", \"core_hot_swaps\": %" PRIu64
        ", \"core_degraded_entries\": %" PRIu64
        ", \"obs_trace_events\": %" PRIu64 ", \"obs_trace_bytes\": %" PRIu64
        ", \"obs_audit_records\": %" PRIu64 ", \"obs_audit_bytes\": %" PRIu64
        "}",
        c.vol.writes, c.vol.reads, c.vol.flushes, c.vol.gcInvocations,
        c.vol.gcPagesMoved, c.vol.bufferHits, c.vol.backpressureStalls,
        c.vol.retiredBlocks, c.submissions, c.attemptsIssued, c.retries,
        c.recovered, c.errored, c.hedges, c.hedgeWins, c.shed, c.expired,
        c.breakerOpens, c.probes, c.hotSwaps, c.degradedEntries,
        c.traceEvents, c.traceBytes, c.auditRecords, c.auditBytes);
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: ssdcheck_benchmark --workload NAME [--seed N] "
                 "[--seconds S] [--trace 0|1] [--smoke]\nworkloads:");
    for (const Spec &s : kSpecs)
        std::fprintf(stderr, " %s", s.name);
    std::fprintf(stderr, "\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string name;
    uint64_t seed = 0;
    double seconds = 0;
    bool trace = false;
    bool smoke = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        const bool hasValue = i + 1 < argc;
        if (a == "--workload" && hasValue)
            name = argv[++i];
        else if (a == "--seed" && hasValue)
            seed = std::strtoull(argv[++i], nullptr, 10);
        else if (a == "--seconds" && hasValue)
            seconds = std::strtod(argv[++i], nullptr);
        else if (a == "--trace" && hasValue)
            trace = std::strcmp(argv[++i], "0") != 0;
        else if (a == "--smoke")
            smoke = true;
        else
            return usage();
    }
    const Spec *spec = nullptr;
    for (const Spec &s : kSpecs)
        if (name == s.name)
            spec = &s;
    if (spec == nullptr)
        return usage();

    const double scale = smoke ? spec->scale / 10 : spec->scale;
    const int setups = smoke ? 1 : 3;
    const int minTrials = smoke ? 1 : spec->minTrials;
    if (smoke)
        seconds = 0;

    std::vector<Device> devices;
    std::vector<SetupTiming> setupTimes;
    for (int k = 0; k < setups; ++k) {
        SetupTiming st;
        std::string err;
        if (!runSetup(*spec, seed, scale, &devices, &st, &err)) {
            std::fprintf(stderr, "%s: setup failed: %s\n", spec->name,
                         err.c_str());
            return 1;
        }
        setupTimes.push_back(st);
    }

    Tracer tracer;
    std::vector<int64_t> latencies;
    std::vector<Trial> trials;
    trials.push_back(
        runTrial(*spec, devices, TrialKind::Warmup, nullptr, &latencies));
    const int64_t measure0 = wallNs();
    int timed = 0;
    while (timed < minTrials ||
           secondsBetween(measure0, wallNs()) < seconds) {
        trials.push_back(
            runTrial(*spec, devices, TrialKind::Timed, nullptr, nullptr));
        ++timed;
    }
    if (trace) {
        tracer.calibrate();
        trials.push_back(
            runTrial(*spec, devices, TrialKind::Traced, &tracer, nullptr));
    }

    const Trial &warm = trials.front();
    const Tally &o = warm.tally;
    std::printf("{\"workload\": \"%s\", \"seed\": %" PRIu64
                ", \"smoke\": %s, \"scale\": %.6g, \"requests\": %zu,\n",
                spec->name, seed, smoke ? "true" : "false", scale,
                latencies.size());
    std::printf("\"setup\": [");
    for (size_t k = 0; k < setupTimes.size(); ++k) {
        const SetupTiming &st = setupTimes[k];
        std::printf("%s{\"total_s\": %.9f, \"diagnosis_s\": %.9f, "
                    "\"precondition_ms\": %.6f, \"trace_build_ms\": %.6f}",
                    k > 0 ? ", " : "", st.totalS, st.diagnosisS,
                    st.preconditionMs, st.traceBuildMs);
    }
    std::printf("],\n\"trials\": [");
    for (size_t k = 0; k < trials.size(); ++k) {
        const Trial &tr = trials[k];
        std::printf("%s{\"kind\": \"%s\", \"ns_per_req\": %.4f, "
                    "\"loop_ns\": %.0f, \"export_ms\": %.6f, "
                    "\"digest\": \"%016" PRIx64
                    "\", \"export_digest\": \"%016" PRIx64 "\"}",
                    k > 0 ? ",\n  " : "", kindName(tr.kind), tr.nsPerReq,
                    tr.loopNs, tr.exportMs, tr.digest, tr.exportDigest);
    }
    std::printf("],\n");
    std::printf("\"outcome\": {\"hl_correct\": %" PRIu64
                ", \"hl_total\": %" PRIu64 ", \"nl_correct\": %" PRIu64
                ", \"nl_total\": %" PRIu64 ", \"faulted\": %" PRIu64
                ", \"failed\": %" PRIu64 ", \"sim_span_ns\": %" PRId64
                ", \"sim_end_ns\": %" PRId64 ", \"lat_mean_ns\": %.3f"
                ", \"lat_p9999_ns\": %" PRId64 "},\n",
                o.acc.hlCorrect, o.acc.hlTotal, o.acc.nlCorrect,
                o.acc.nlTotal, o.acc.faulted, o.failed, o.simSpanNs,
                o.simEnd.ns(), mean(latencies), quantile(latencies, 0.9999));
    std::printf("\"cells\": [");
    for (size_t k = 0; k < warm.cells.size(); ++k) {
        const core::AccuracyResult &c = warm.cells[k];
        std::printf("%s[%" PRIu64 ", %" PRIu64 ", %" PRIu64 ", %" PRIu64
                    "]",
                    k > 0 ? ", " : "", c.hlCorrect, c.hlTotal, c.nlCorrect,
                    c.nlTotal);
    }
    std::printf("],\n");
    printCounters(warm.counters);
    std::printf(",\n");
    if (trace) {
        const Trial &tt = trials.back();
        const double n = static_cast<double>(tracer.sampledRequests());
        const double perReq = n > 0 ? 1.0 / n : 0.0;
        auto layer = [&](Layer l) { return tracer.selfNs(l) * perReq; };
        auto perCall = [&](ssdbench::SsdClass c) {
            const uint64_t calls = tracer.classCalls(c);
            return calls == 0 ? 0.0
                              : tracer.classNs(c) /
                                    static_cast<double>(calls);
        };
        // Reconciliation: the sampled requests' mean layer sum against the
        // mean wall time of the unsampled requests, which no clock read
        // touched (see span_tracer.h).
        const std::vector<double> &work = tracer.requestWork();
        double workSum = 0;
        for (const double w : work)
            workSum += w;
        const double unsampled = tracer.unsampledNs();
        const double biasPct =
            unsampled > 0 ? (workSum * perReq - unsampled) / unsampled * 100
                          : 0.0;
        const double requests = static_cast<double>(latencies.size());
        std::printf(
            "\"layers\": {\"ssd.submit_ns\": %.3f, "
            "\"ssd.gc_call_ns\": %.3f, \"ssd.flush_call_ns\": %.3f, "
            "\"ssd.plain_call_ns\": %.3f, \"resilience.self_ns\": %.3f, "
            "\"core.predict_ns\": %.3f, \"core.complete_ns\": %.3f, "
            "\"core.supervisor_ns\": %.3f, \"obs.upkeep_ns\": %.3f, "
            "\"obs.export_ms\": %.6f, \"host.other_ns\": %.3f, "
            "\"host.req_ns_p50\": %.3f, \"host.req_ns_p99\": %.3f, "
            "\"trace.clock_ns\": %.3f, \"trace.sampled_reqs\": %.0f, "
            "\"trace.loop_ns_per_req\": %.4f, "
            "\"trace.unsampled_ns\": %.3f, "
            "\"trace.sample_bias_pct\": %.4f, "
            "\"ssd.calls\": [%" PRIu64 ", %" PRIu64 ", %" PRIu64 "]},\n",
            layer(ssdbench::kSsd), perCall(ssdbench::kGcCall),
            perCall(ssdbench::kFlushCall), perCall(ssdbench::kPlainCall),
            layer(ssdbench::kResilience), layer(ssdbench::kPredict),
            layer(ssdbench::kComplete), layer(ssdbench::kSupervisor),
            layer(ssdbench::kObs), tt.exportMs, layer(ssdbench::kOther),
            quantile(work, 0.5), quantile(work, 0.99), tracer.clockNs(), n,
            tt.loopNs / requests, unsampled, biasPct,
            tracer.classCalls(ssdbench::kGcCall),
            tracer.classCalls(ssdbench::kFlushCall),
            tracer.classCalls(ssdbench::kPlainCall));
    }
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    std::printf("\"peak_rss_kb\": %ld}\n", ru.ru_maxrss);
    return 0;
}
