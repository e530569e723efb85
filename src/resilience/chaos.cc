#include "resilience/chaos.h"

#include <cinttypes>
#include <cstdarg>
#include <cstdio>
#include <mutex>
#include <sstream>

#include "obs/exporter/telemetry.h"
#include "perf/thread_pool.h"
#include "recovery/invariants.h"
#include "recovery/state_io.h"
#include "sim/parse_number.h"
#include "ssd/presets.h"
#include "workload/snia_synth.h"

namespace ssdcheck::resilience {

namespace {

std::string
fmt(const char *format, ...)
{
    char buf[256];
    va_list ap;
    va_start(ap, format);
    std::vsnprintf(buf, sizeof buf, format, ap);
    va_end(ap);
    return buf;
}

/** Stable float rendering for canonical(): enough digits to round-trip
 *  every value a scenario file can express. */
std::string
fnum(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.9g", v);
    return buf;
}


bool
driftKindByName(const std::string &name, ssd::DriftKind *out)
{
    if (name == "none")
        *out = ssd::DriftKind::None;
    else if (name == "shrink-buffer")
        *out = ssd::DriftKind::ShrinkBuffer;
    else if (name == "grow-buffer")
        *out = ssd::DriftKind::GrowBuffer;
    else if (name == "toggle-read-trigger")
        *out = ssd::DriftKind::ToggleReadTrigger;
    else
        return false;
    return true;
}

} // namespace

uint64_t
chaosDigestFold(uint64_t digest, uint64_t value)
{
    for (int i = 0; i < 8; ++i) {
        digest ^= (value >> (8 * i)) & 0xffu;
        digest *= 1099511628211ULL;
    }
    return digest;
}

std::string
ChaosScenario::canonical() const
{
    std::ostringstream o;
    o << "chaos;name=" << name << ";device=" << device
      << ";workload=" << workload << ";scale=" << fnum(scale)
      << ";pacing=" << (pacing == Pacing::Closed ? "closed" : "open")
      << ";arrival=" << arrivalPeriod
      << ";supervisor=" << (supervisor ? 1 : 0);
    o << ";faults=" << fnum(faults.readUncProbability) << ","
      << faults.readRetryMax << "," << faults.readRetryCost << ","
      << fnum(faults.readUncHardFraction) << ","
      << fnum(faults.programFailProbability) << ","
      << fnum(faults.eraseFailProbability) << ","
      << fnum(faults.stallProbability) << "," << faults.stallMin << ","
      << faults.stallMax << "," << faults.driftAfterRequests << ","
      << static_cast<int>(faults.driftKind) << ","
      << fnum(faults.driftBufferFactor);
    o << ";regime=" << fnum(faults.regime.enterBurst) << ","
      << fnum(faults.regime.exitBurst) << ","
      << fnum(faults.regime.uncFactor) << ","
      << fnum(faults.regime.stallFactor);
    for (const ssd::FaultPhase &p : faults.phases)
        o << ";phase=" << p.fromRequest << "," << p.toRequest << ","
          << fnum(p.regime.enterBurst) << "," << fnum(p.regime.exitBurst)
          << "," << fnum(p.regime.uncFactor) << ","
          << fnum(p.regime.stallFactor);
    for (const ssd::UncCluster &c : faults.uncClusters)
        o << ";cluster=" << c.firstPage << "," << c.pages << ","
          << fnum(c.probability);
    o << ";policy=" << (policy.enabled ? 1 : 0) << ","
      << policy.deadlineBudget << "," << (policy.hedgeReads ? 1 : 0)
      << "," << policy.hedgeDelay << ","
      << fnum(policy.hedgeBudgetFraction) << "," << policy.breakerWindow
      << "," << fnum(policy.breakerErrorThreshold) << ","
      << policy.breakerMinSamples << "," << policy.breakerCooldown << ","
      << policy.breakerHalfOpenSuccesses << "," << policy.maxBacklog
      << "," << policy.sloLatencyTarget << ","
      << fnum(policy.sloErrorBudget) << "," << policy.sloWindow << ","
      << policy.ladderEvalEvery << "," << policy.failFastCooldown;
    return o.str();
}

bool
ChaosScenario::parse(const std::string &text, ChaosScenario *out,
                     std::string *err)
{
    auto fail = [&](int line, const std::string &why) {
        if (err != nullptr)
            *err = fmt("line %d: %s", line, why.c_str());
        return false;
    };

    ChaosScenario sc;
    // The scenario file's base presets: faults start from "none" and
    // policy from "guarded"; later keys override individual fields.
    // The struct's default seed list is for programmatic construction
    // only — a scenario file must name its seeds explicitly.
    sc.seeds.clear();
    (void)resiliencePolicyByName("guarded", &sc.policy);

    std::istringstream in(text);
    std::string lineText;
    int lineNo = 0;
    while (std::getline(in, lineText)) {
        ++lineNo;
        const size_t hash = lineText.find('#');
        if (hash != std::string::npos)
            lineText.erase(hash);
        std::istringstream line(lineText);
        std::string key;
        if (!(line >> key))
            continue;

        // Remainder-of-line values (workload names contain spaces).
        auto rest = [&]() {
            std::string v;
            std::getline(line, v);
            const size_t b = v.find_first_not_of(" \t");
            const size_t e = v.find_last_not_of(" \t");
            return b == std::string::npos ? std::string()
                                          : v.substr(b, e - b + 1);
        };
        // Single-token numeric values.
        auto u64 = [&](uint64_t *dst) {
            std::string tok;
            return bool(line >> tok) && sim::parseNumber(tok, dst);
        };
        auto u32 = [&](uint32_t *dst) {
            uint64_t v = 0;
            if (!u64(&v) || v > UINT32_MAX)
                return false;
            *dst = static_cast<uint32_t>(v);
            return true;
        };
        auto f64 = [&](double *dst) {
            std::string tok;
            return bool(line >> tok) && sim::parseNumber(tok, dst);
        };
        // A count of @p unit whose nanoseconds must fit SimDuration.
        auto dur = [&](sim::SimDuration unit, sim::SimDuration *dst) {
            uint64_t v = 0;
            if (!u64(&v) ||
                v > static_cast<uint64_t>(INT64_MAX / unit))
                return false;
            *dst = static_cast<sim::SimDuration>(v) * unit;
            return true;
        };
        auto durMs = [&](sim::SimDuration *dst) {
            return dur(sim::milliseconds(1), dst);
        };
        auto durUs = [&](sim::SimDuration *dst) {
            return dur(sim::microseconds(1), dst);
        };
        auto flag = [&](bool *dst) {
            uint64_t v = 0;
            if (!u64(&v) || v > 1)
                return false;
            *dst = v != 0;
            return true;
        };
        bool good = true;

        // -- run shape ------------------------------------------------
        if (key == "name") {
            sc.name = rest();
            good = !sc.name.empty();
        } else if (key == "device") {
            sc.device = rest();
            good = !sc.device.empty();
        } else if (key == "workload") {
            sc.workload = rest();
            good = !sc.workload.empty();
        } else if (key == "scale") {
            good = f64(&sc.scale) && workload::validScale(sc.scale);
        } else if (key == "seeds") {
            sc.seeds.clear();
            std::string tok;
            while (good && (line >> tok)) {
                uint64_t s = 0;
                good = sim::parseNumber(tok, &s);
                if (good)
                    sc.seeds.push_back(s);
            }
            good = good && !sc.seeds.empty();
        } else if (key == "pacing") {
            const std::string v = rest();
            if (v == "open")
                sc.pacing = Pacing::Open;
            else if (v == "closed")
                sc.pacing = Pacing::Closed;
            else
                good = false;
        } else if (key == "arrival-us") {
            good = durUs(&sc.arrivalPeriod);
        } else if (key == "supervisor") {
            good = flag(&sc.supervisor);

            // -- fault schedule ---------------------------------------
        } else if (key == "faults") {
            good = ssd::faultProfileByName(rest(), &sc.faults);
        } else if (key == "unc-probability") {
            good = f64(&sc.faults.readUncProbability);
        } else if (key == "unc-hard-fraction") {
            good = f64(&sc.faults.readUncHardFraction);
        } else if (key == "read-retry-max") {
            good = u32(&sc.faults.readRetryMax);
        } else if (key == "program-fail-probability") {
            good = f64(&sc.faults.programFailProbability);
        } else if (key == "erase-fail-probability") {
            good = f64(&sc.faults.eraseFailProbability);
        } else if (key == "stall-probability") {
            good = f64(&sc.faults.stallProbability);
        } else if (key == "stall-min-ms") {
            good = durMs(&sc.faults.stallMin);
        } else if (key == "stall-max-ms") {
            good = durMs(&sc.faults.stallMax);
        } else if (key == "drift-after") {
            good = u64(&sc.faults.driftAfterRequests);
        } else if (key == "drift-kind") {
            good = driftKindByName(rest(), &sc.faults.driftKind);
        } else if (key == "burst-enter") {
            good = f64(&sc.faults.regime.enterBurst);
        } else if (key == "burst-exit") {
            good = f64(&sc.faults.regime.exitBurst);
        } else if (key == "burst-unc-factor") {
            good = f64(&sc.faults.regime.uncFactor);
        } else if (key == "burst-stall-factor") {
            good = f64(&sc.faults.regime.stallFactor);
        } else if (key == "phase") {
            ssd::FaultPhase p;
            good = u64(&p.fromRequest) && u64(&p.toRequest) &&
                   f64(&p.regime.enterBurst) && f64(&p.regime.exitBurst) &&
                   f64(&p.regime.uncFactor) && f64(&p.regime.stallFactor);
            if (good)
                sc.faults.phases.push_back(p);
        } else if (key == "unc-cluster") {
            ssd::UncCluster c;
            good = u64(&c.firstPage) && u64(&c.pages) &&
                   f64(&c.probability);
            if (good)
                sc.faults.uncClusters.push_back(c);

            // -- policy stack -----------------------------------------
        } else if (key == "policy") {
            good = resiliencePolicyByName(rest(), &sc.policy);
        } else if (key == "deadline-ms") {
            good = durMs(&sc.policy.deadlineBudget);
        } else if (key == "hedge-reads") {
            good = flag(&sc.policy.hedgeReads);
        } else if (key == "hedge-delay-us") {
            good = durUs(&sc.policy.hedgeDelay);
        } else if (key == "hedge-budget") {
            good = f64(&sc.policy.hedgeBudgetFraction);
        } else if (key == "breaker-window") {
            good = u32(&sc.policy.breakerWindow);
        } else if (key == "breaker-threshold") {
            good = f64(&sc.policy.breakerErrorThreshold);
        } else if (key == "breaker-min-samples") {
            good = u32(&sc.policy.breakerMinSamples);
        } else if (key == "breaker-cooldown-ms") {
            good = durMs(&sc.policy.breakerCooldown);
        } else if (key == "breaker-halfopen") {
            good = u32(&sc.policy.breakerHalfOpenSuccesses);
        } else if (key == "max-backlog-ms") {
            good = durMs(&sc.policy.maxBacklog);
        } else if (key == "slo-latency-ms") {
            good = durMs(&sc.policy.sloLatencyTarget);
        } else if (key == "slo-error-budget") {
            good = f64(&sc.policy.sloErrorBudget);
        } else if (key == "slo-window") {
            good = u32(&sc.policy.sloWindow);
        } else if (key == "ladder-eval-every") {
            good = u32(&sc.policy.ladderEvalEvery);
        } else if (key == "fail-fast-cooldown-ms") {
            good = durMs(&sc.policy.failFastCooldown);

            // -- assertions -------------------------------------------
        } else if (key == "assert-p999-ms") {
            good = durMs(&sc.assertP999);
        } else if (key == "assert-min-completed") {
            good = u64(&sc.assertMinCompleted);
        } else if (key == "assert-max-shed") {
            good = u64(&sc.assertMaxShed);
        } else if (key == "assert-breaker-opens") {
            good = u64(&sc.assertBreakerOpens);
        } else if (key == "assert-breaker-recloses") {
            good = flag(&sc.assertBreakerRecloses);
        } else {
            return fail(lineNo, "unknown key '" + key + "'");
        }
        if (!good)
            return fail(lineNo, "bad value for '" + key + "'");
    }

    if (sc.seeds.empty())
        return fail(lineNo, "no seeds configured");
    const std::string fe = sc.faults.validate();
    if (!fe.empty())
        return fail(lineNo, "fault schedule: " + fe);
    const std::string pe = sc.policy.validate();
    if (!pe.empty())
        return fail(lineNo, "policy: " + pe);

    *out = sc;
    return true;
}

std::unique_ptr<ChaosShard>
ChaosShard::create(const ChaosScenario &scenario, uint64_t seed,
                   bool forResume, std::string *err)
{
    recovery::ShardSpec spec;
    if (!ssd::presetByName(scenario.device, &spec.device)) {
        if (err != nullptr)
            *err = "unknown device '" + scenario.device + "'";
        return nullptr;
    }
    spec.device.faults = scenario.faults;
    spec.device.seed = seed;
    spec.workload = scenario.workload;
    spec.scale = scenario.scale;
    spec.policy = scenario.policy;
    // The model rides along only to feed the supervisor; without it
    // the hedge hint is the last ok latency.
    spec.model = scenario.supervisor;
    spec.supervisor = scenario.supervisor;
    spec.pacing = scenario.pacing;
    spec.arrivalPeriod = scenario.arrivalPeriod;
    spec.identity = scenario.canonical() + ";seed=" + std::to_string(seed);

    std::unique_ptr<ChaosShard> cs(new ChaosShard());
    cs->shard_ = recovery::Shard::create(spec, forResume, err);
    if (cs->shard_ == nullptr)
        return nullptr;
    cs->digest_ = kChaosDigestInit;
    return cs;
}

void
ChaosShard::step()
{
    const uint64_t index = shard_->cursor();
    const blockdev::IoResult res = shard_->step();
    digest_ = chaosDigestFold(digest_, index);
    digest_ = chaosDigestFold(digest_, static_cast<uint64_t>(res.status));
    digest_ = chaosDigestFold(digest_,
                              static_cast<uint64_t>(res.completeTime.ns()));
    digest_ = chaosDigestFold(digest_, res.attempts);
    if (res.ok()) {
        ++completedOk_;
        lat_.add(shard_->lastOkLatency());
    }
}

recovery::Snapshot
ChaosShard::checkpoint() const
{
    recovery::Snapshot snap = shard_->checkpoint();
    recovery::StateWriter w;
    w.u64(digest_);
    w.u64(completedOk_);
    w.i64(shard_->lastOkLatency());
    w.i64(shard_->origin().ns());
    w.u64(lat_.count());
    for (const sim::SimDuration s : lat_.sorted())
        w.i64(s);
    snap.addSection(recovery::SectionId::Chaos, w.take());
    return snap;
}

recovery::LoadError
ChaosShard::restore(const recovery::Snapshot &snap, std::string *detail)
{
    const recovery::LoadError e = shard_->restore(snap, detail);
    if (e != recovery::LoadError::Ok)
        return e;
    return recovery::loadSection(
        snap, recovery::SectionId::Chaos, "chaos",
        [&](recovery::StateReader &r) {
            digest_ = r.u64();
            completedOk_ = r.u64();
            const sim::SimDuration lastOk = r.i64();
            const sim::SimTime origin{r.i64()};
            shard_->restorePacing(origin, lastOk);
            const uint64_t n = r.checkCount(r.u64(), sizeof(int64_t));
            lat_.clear();
            for (uint64_t i = 0; i < n && r.ok(); ++i)
                lat_.add(r.i64());
            if (r.ok() && lat_.count() != completedOk_)
                r.fail("latency sample count disagrees with completions");
        },
        detail);
}

ChaosCampaignResult
runChaosCampaign(const ChaosScenario &scenario, unsigned jobs,
                 obs::TelemetryHub *telemetry)
{
    ChaosCampaignResult out;
    if (scenario.seeds.empty()) {
        out.error = "scenario has no seeds";
        return out;
    }

    const size_t n = scenario.seeds.size();
    out.shards.resize(n);

    // Campaign-progress state shared by shard tasks when a telemetry
    // hub is attached. One mutex guards both the counters and the
    // publish, so concurrent shard completions publish consistently.
    struct CampaignProgress
    {
        std::mutex mu;
        obs::Registry reg;
        uint64_t shardsDone = 0;
        uint64_t completedOk = 0;
        uint64_t shed = 0;
    };
    std::unique_ptr<CampaignProgress> progress;
    if (telemetry != nullptr) {
        progress = std::make_unique<CampaignProgress>();
        progress->reg.exportCounter("chaos_shards_done", {},
                                    &progress->shardsDone);
        progress->reg.exportCounter("chaos_completed_ok", {},
                                    &progress->completedOk);
        progress->reg.exportCounter("chaos_shed_total", {},
                                    &progress->shed);
    }
    CampaignProgress *prog = progress.get();

    perf::ThreadPool pool(perf::ThreadPool::workersFor(jobs, n));
    parallelFor(pool, n, [&](size_t i) {
        ChaosShardResult &r = out.shards[i];
        r.seed = scenario.seeds[i];
        std::string err;
        const std::unique_ptr<ChaosShard> shard =
            ChaosShard::create(scenario, r.seed, false, &err);
        if (shard == nullptr) {
            r.failures.push_back("shard construction failed: " + err);
            return;
        }
        while (!shard->done())
            shard->step();

        // A disabled policy is no layer at all: its counters read zero.
        const PolicyDevice *pol = shard->shard().policyPtr();
        const PolicyCounters pc =
            pol != nullptr ? pol->counters() : PolicyCounters{};
        r.digest = shard->digest();
        r.completedOk = shard->completedOk();
        r.shed = pc.shedTotal();
        r.deadlineExpired = pc.deadlineExpired;
        r.hedgesIssued = pc.hedgesIssued;
        r.hedgeWins = pc.hedgeWins;
        r.breakerOpens = pc.breakerOpens;
        r.breakerCloses = pc.breakerCloses;
        r.p999 = shard->latencies().percentile(99.9);
        r.maxExchange = pol != nullptr ? pol->maxExchange() : 0;
        r.finalTime = shard->shard().now();

        // -- SLO assertions -------------------------------------------
        if (r.completedOk < scenario.assertMinCompleted)
            r.failures.push_back(
                fmt("liveness: %" PRIu64 " ok completions, floor is "
                    "%" PRIu64,
                    r.completedOk, scenario.assertMinCompleted));
        if (scenario.assertP999 > 0 && r.p999 > scenario.assertP999)
            r.failures.push_back(
                fmt("tail latency: p99.9 %" PRId64 "ns over the %" PRId64
                    "ns bound",
                    r.p999, scenario.assertP999));
        if (r.shed > scenario.assertMaxShed)
            r.failures.push_back(
                fmt("shed %" PRIu64 " requests, ceiling is %" PRIu64,
                    r.shed, scenario.assertMaxShed));
        if (r.breakerOpens < scenario.assertBreakerOpens)
            r.failures.push_back(
                fmt("breaker opened %" PRIu64 " times, expected at least "
                    "%" PRIu64,
                    r.breakerOpens, scenario.assertBreakerOpens));
        if (scenario.assertBreakerRecloses && r.breakerCloses == 0)
            r.failures.push_back(
                "breaker never recovered through the HalfOpen probe "
                "path");
        for (std::string &v : recovery::checkInvariants(shard->shard()))
            r.failures.push_back("invariant: " + std::move(v));
        if (shard->latencies().count() != r.completedOk)
            r.failures.push_back(
                fmt("invariant: recorded %zu ok latencies for %" PRIu64
                    " ok completions",
                    shard->latencies().count(), r.completedOk));

        if (prog != nullptr) {
            const std::lock_guard<std::mutex> lk(prog->mu);
            prog->shardsDone += 1;
            prog->completedOk += r.completedOk;
            prog->shed += r.shed;
            obs::RunStatus st;
            st.phase = "chaos";
            st.cursor = prog->shardsDone;
            st.totalRequests = n;
            st.simTimeNs = r.finalTime.ns();
            if (pol != nullptr) {
                st.breakerState = static_cast<uint8_t>(pol->breakerState());
                st.ladderLevel = static_cast<uint8_t>(pol->ladderLevel());
            }
            st.shedTotal = prog->shed;
            st.healthy = r.failures.empty();
            telemetry->publish(prog->reg, st);
        }
    });

    out.campaignDigest = kChaosDigestInit;
    out.pass = true;
    for (const ChaosShardResult &r : out.shards) {
        out.campaignDigest = chaosDigestFold(out.campaignDigest, r.digest);
        if (!r.failures.empty())
            out.pass = false;
    }

    // Deterministic final publish after the seed-order fold.
    if (prog != nullptr) {
        const std::lock_guard<std::mutex> lk(prog->mu);
        obs::RunStatus st;
        st.phase = "done";
        st.cursor = prog->shardsDone;
        st.totalRequests = n;
        st.shedTotal = prog->shed;
        st.healthy = out.pass;
        telemetry->publish(prog->reg, st);
    }
    return out;
}

} // namespace ssdcheck::resilience
