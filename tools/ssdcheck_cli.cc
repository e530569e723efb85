/**
 * @file
 * ssdcheck — command-line front end to the framework (the paper's
 * "software release" artifact).
 *
 *   ssdcheck fingerprint [--device A..G|nvm | --all]
 *       Run the §III-B diagnosis snippets and print the device's
 *       internal features (Table-I style).
 *
 *   ssdcheck synth --workload NAME --out FILE [--scale F] [--span P]
 *       Generate a synthetic trace (Table-II equivalents) to a file.
 *
 *   ssdcheck replay --device X --trace FILE
 *       Replay a saved trace and print the latency distribution.
 *
 *   ssdcheck trace-convert [--in trace.bin] [--out trace.json]
 *       Offline converter: turn a binary trace into Chrome JSON,
 *       byte-identical to what `ssdcheck run --trace-out` itself would
 *       have written for that run.
 *
 *   ssdcheck trace-stats [--in trace.bin] [--format text|json] [--top N]
 *       Offline analytics over a recorded binary trace: per-volume GC
 *       duty cycle, stall count/duration histogram, write-buffer hit
 *       rate, and the top-N longest host requests.
 *
 *   ssdcheck run --device X [--workload NAME] [--scale F] ...
 *       Diagnose a fault-free twin, build the runtime model, replay a
 *       workload in predict-before-issue mode and report NL/HL
 *       accuracy. --supervisor attaches the health supervisor, which
 *       repairs drift online; --min-recovered-accuracy F exits 3 when
 *       the run ends below F rolling HL accuracy or with the model
 *       disabled (CI soak hook). --metrics-out, --trace-out (Chrome
 *       trace-event JSON), --binary-out (its trace.bin form) and
 *       --audit-out (misprediction audit JSONL; its report is
 *       printed) write the run's observability. With
 *       --checkpoint-every N --checkpoint-out F a complete snapshot of
 *       the deterministic simulation state is atomically written every
 *       N requests; --resume F continues a run bit-exactly from such a
 *       snapshot (exit 5 on a corrupt snapshot, 6 on a config
 *       mismatch; the trace and audit outputs cannot be combined
 *       with --resume). --kill-after-requests / --kill-in-checkpoint are
 *       the chaos hooks the soak harness (tools/soak) drives; see
 *       DESIGN.md "Crash consistency & state serialization".
 *       --listen PORT serves live telemetry (GET /metrics /runz
 *       /healthz) from immutable snapshots published every
 *       --publish-every requests and at checkpoints — attaching it is
 *       bit-identical to running without.
 *
 *   ssdcheck faults
 *       List the fault-injection profiles.
 *
 *   ssdcheck chaos --scenario FILE [--jobs N] [--verify]
 *       Run an adversarial fault campaign: parse a chaos scenario
 *       (correlated fault phases + resilience policy + SLO
 *       assertions, see examples/chaos/), replay it once per seed
 *       sharded over N threads, and fail (exit 8) if any shard
 *       violates its SLOs or, with --verify, if a --jobs 1 rerun does
 *       not reproduce the campaign digest bit-for-bit.
 *
 *   ssdcheck bench [--jobs N] [--scale F] [--seeds K] [--out FILE]
 *                  [--baseline FILE] [--max-regress F]
 *       Run the Fig. 11 experiment grid sharded over N worker threads
 *       (default: all cores), write the BENCH_grid.json wall-clock
 *       report and, when --baseline is given, exit 4 if aggregate
 *       simulated-IOs/sec dropped more than --max-regress (default
 *       0.30, must be in [0, 1)) below the baseline file's value —
 *       the CI perf gate. A baseline whose value is not a finite
 *       positive number exits 2 before the grid runs.
 *
 * Any device-taking command accepts --faults <profile> to run the
 * device with injected faults behind the host-side resilient I/O
 * path; error counters are reported after the run. A flag the command
 * does not take, a word that is no flag's value, and a numeric flag
 * whose value is not a number of the flag's type (trailing junk, a
 * sign on an unsigned count, out of range) exit 2.
 *
 * Devices are the simulated presets; on a real system the same code
 * would sit behind an ioctl-capable block device.
 */
#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "blockdev/resilient_device.h"
#include "exit_codes.h"
#include "resilience/chaos.h"
#include "core/diagnosis.h"
#include "core/health_supervisor.h"
#include "core/ssdcheck.h"
#include "obs/exporter/http_server.h"
#include "obs/exporter/telemetry.h"
#include "obs/sink.h"
#include "obs/trace_binary.h"
#include "obs/trace_stats.h"
#include "perf/grid.h"
#include "perf/thread_pool.h"
#include "recovery/invariants.h"
#include "recovery/shard.h"
#include "recovery/snapshot.h"
#include "sim/parse_number.h"
#include "ssd/fault_injector.h"
#include "ssd/presets.h"
#include "ssd/ssd_device.h"
#include "stats/table_printer.h"
#include "usecases/runner.h"
#include "workload/snia_synth.h"

using namespace ssdcheck;

namespace {

/** A flag or word the command does not take, or a numeric flag whose
 *  value does not parse (main() exits 2). */
struct BadFlag
{
    std::string message;
};

/** A command's flags parsed into --key value pairs. */
struct Args
{
    std::map<std::string, std::string> options;
    bool has(const std::string &k) const { return options.count(k) > 0; }
    std::string get(const std::string &k, const std::string &dflt) const
    {
        const auto it = options.find(k);
        return it == options.end() ? dflt : it->second;
    }

    /**
     * Numeric flag @p k, or @p dflt when absent. The whole value must
     * be one finite T: no trailing junk, no sign on an unsigned flag,
     * nothing out of T's range.
     * @throws BadFlag otherwise.
     */
    template <typename T>
    T num(const std::string &k, T dflt) const
    {
        const auto it = options.find(k);
        if (it == options.end())
            return dflt;
        T out{};
        if (!sim::parseNumber(it->second, &out))
            throw BadFlag{"bad value for --" + k + ": '" + it->second + "'"};
        return out;
    }

    /** --scale, or @p dflt when absent.
     *  @throws BadFlag unless it is a workload::validScale(). */
    double scale(double dflt) const
    {
        const double s = num("scale", dflt);
        if (!workload::validScale(s))
            throw BadFlag{"bad value for --scale: must be in (0, 1]"};
        return s;
    }
};

/** One subcommand: its body and the only flags it accepts. */
struct Command
{
    const char *name;
    int (*run)(const Args &);
    std::vector<std::string> valued;   ///< --flag VALUE or --flag=VALUE
    std::vector<std::string> switches; ///< bare --flag
};

bool
contains(const std::vector<std::string> &names, const std::string &n)
{
    return std::find(names.begin(), names.end(), n) != names.end();
}

/**
 * Parse argv[2..] for @p cmd.
 * @throws BadFlag on a flag @p cmd does not take, a value given to a
 *         switch, or a word that is no flag's value.
 */
Args
parse(const Command &cmd, int argc, char **argv)
{
    Args a;
    for (int i = 2; i < argc; ++i) {
        std::string key = argv[i];
        if (key.rfind("--", 0) != 0)
            throw BadFlag{"unexpected argument '" + key + "' for " +
                          cmd.name};
        key = key.substr(2);
        // Both spellings: `--format json` and `--format=json`.
        const size_t eq = key.find('=');
        const std::string name = key.substr(0, eq);
        if (contains(cmd.switches, name)) {
            if (eq != std::string::npos)
                throw BadFlag{"--" + name + " takes no value"};
            a.options[name] = "";
        } else if (!contains(cmd.valued, name)) {
            throw BadFlag{"unknown flag --" + name + " for " + cmd.name +
                          " (see ssdcheck help)"};
        } else if (eq != std::string::npos) {
            a.options[name] = key.substr(eq + 1);
        } else if (i + 1 < argc &&
                   std::string(argv[i + 1]).rfind("--", 0) != 0) {
            a.options[name] = argv[++i];
        } else {
            a.options[name] = "";
        }
    }
    return a;
}

/** Build a device by name ("A".."G" or "nvm"), with optional faults. */
std::unique_ptr<ssd::SsdDevice>
makeDevice(const std::string &name, const Args &args)
{
    ssd::FaultProfile faults;
    const std::string profileName = args.get("faults", "none");
    if (!ssd::faultProfileByName(profileName, &faults)) {
        std::fprintf(stderr, "unknown fault profile '%s' (try: ",
                     profileName.c_str());
        for (const auto &p : ssd::allFaultProfiles())
            std::fprintf(stderr, "%s ", p.name.c_str());
        std::fprintf(stderr, ")\n");
        return nullptr;
    }
    ssd::SsdConfig cfg;
    if (!ssd::presetByName(name, &cfg)) {
        std::fprintf(stderr, "unknown device '%s'\n", name.c_str());
        return nullptr;
    }
    cfg.faults = faults;
    return std::make_unique<ssd::SsdDevice>(cfg);
}

/** Print device-side injections and host-side error counters. */
void
printFaultReport(const ssd::SsdDevice &dev,
                 const blockdev::ResilientDevice &rdev)
{
    if (dev.config().faults.inert())
        return;
    stats::printBanner(std::cout, "fault report (profile '" +
                                      dev.config().faults.name + "')");
    stats::TablePrinter t;
    t.header({"counter", "value"});
    const ssd::FaultCounters &fc = dev.faultCounters();
    t.row({"injected: transient UNC reads", std::to_string(fc.readUncTransient)});
    t.row({"injected: hard UNC reads", std::to_string(fc.readUncHard)});
    t.row({"injected: program failures", std::to_string(fc.programFailures)});
    t.row({"injected: erase failures", std::to_string(fc.eraseFailures)});
    t.row({"injected: blocks retired", std::to_string(fc.blocksRetired)});
    t.row({"injected: stalls", std::to_string(fc.stalls)});
    t.row({"injected: drift events", std::to_string(fc.driftEvents)});
    const blockdev::ResilienceCounters &rc = rdev.counters();
    t.row({"host: media errors seen", std::to_string(rc.mediaErrors)});
    t.row({"host: timeouts classified", std::to_string(rc.timeouts)});
    t.row({"host: device faults", std::to_string(rc.deviceFaults)});
    t.row({"host: retries issued", std::to_string(rc.retries)});
    t.row({"host: recovered by retry", std::to_string(rc.recovered)});
    t.row({"host: retries exhausted", std::to_string(rc.exhausted)});
    t.row({"host: errored requests", std::to_string(rc.erroredRequests)});
    t.print(std::cout);
}

/** Write @p body via @p writer to @p path; false + stderr on failure. */
template <typename Writer>
bool
writeFile(const std::string &path, Writer &&writer)
{
    std::ofstream os(path);
    if (!os) {
        std::fprintf(stderr, "cannot open %s\n", path.c_str());
        return false;
    }
    writer(os);
    return true;
}

/**
 * The live telemetry endpoint of one command invocation: a hub the
 * run loop publishes into plus the HTTP server scraping it. Inactive
 * (hub unused, no server) unless --listen was given.
 */
struct Telemetry
{
    obs::TelemetryHub hub;
    std::unique_ptr<obs::HttpServer> server;

    bool active() const { return server != nullptr; }
    obs::TelemetryHub *hubPtr() { return active() ? &hub : nullptr; }
};

/**
 * Start the telemetry server when --listen PORT is present (PORT 0 =
 * ephemeral; the bound port is printed either way). --stale-ms N
 * tunes the /healthz staleness watchdog (default 10s).
 * @return false when the server could not start (@p rc set).
 */
bool
startTelemetry(const Args &args, Telemetry *t, int *rc)
{
    if (!args.has("listen"))
        return true;
    const auto port = args.num<uint16_t>("listen", 0);
    const auto staleMs = args.num<uint64_t>("stale-ms", 10000);
    t->server = std::make_unique<obs::HttpServer>(t->hub);
    if (args.has("stale-ms"))
        t->server->setStaleNs(staleMs * 1000000ull);
    std::string err;
    if (!t->server->start(port, &err)) {
        std::fprintf(stderr, "cannot start telemetry server: %s\n",
                     err.c_str());
        t->server.reset();
        *rc = cli::kBadArgs;
        return false;
    }
    std::printf("telemetry: http://127.0.0.1:%u  "
                "(/metrics /runz /healthz)\n",
                t->server->port());
    // Scrape harnesses grep this line from a redirected log while the
    // run is still going; don't leave it in the stdio buffer.
    std::fflush(stdout);
    return true;
}

/** Snapshot the run's progress for a telemetry publish. */
obs::RunStatus
runStatusOf(const recovery::Shard &run, const char *phase,
            uint64_t checkpoints)
{
    obs::RunStatus st;
    st.phase = phase;
    st.cursor = run.cursor();
    st.totalRequests = run.trace().size();
    st.simTimeNs = run.now().ns();
    st.checkpoints = checkpoints;
    if (const resilience::PolicyDevice *p = run.policyPtr()) {
        st.breakerState = static_cast<uint8_t>(p->breakerState());
        st.ladderLevel = static_cast<uint8_t>(p->ladderLevel());
        st.shedTotal = p->counters().shedTotal();
        const int64_t ppm = p->errorBudgetPpm();
        st.errorBudgetPpm = ppm > 0 ? static_cast<uint64_t>(ppm) : 0;
    }
    if (const core::HealthSupervisor *s = run.supervisorPtr())
        st.supervisorState = static_cast<uint8_t>(s->state());
    return st;
}

int
cmdFingerprint(const Args &args)
{
    std::vector<std::string> names;
    if (args.has("all")) {
        for (const auto m : ssd::allModels())
            names.push_back(ssd::toString(m));
        names.push_back("nvm");
    } else {
        names.push_back(args.get("device", "A"));
    }
    for (const auto &n : names) {
        auto dev = makeDevice(n, args);
        if (!dev)
            return cli::kBadArgs;
        core::DiagnosisRunner runner(*dev, core::DiagnosisConfig{});
        const core::FeatureSet fs = runner.extractFeatures();
        std::printf("%-8s %s\n", dev->name().c_str(),
                    fs.summary().c_str());
    }
    return 0;
}

int
cmdSynth(const Args &args)
{
    workload::SniaWorkload w{};
    if (!workload::sniaWorkloadByName(args.get("workload", "RW Mixed"), &w)) {
        std::fprintf(stderr, "unknown workload\n");
        return cli::kBadArgs;
    }
    const std::string out = args.get("out", "");
    if (out.empty()) {
        std::fprintf(stderr, "--out FILE required\n");
        return cli::kBadArgs;
    }
    const double scale = args.scale(0.05);
    const uint64_t span = args.num<uint64_t>("span", 131072);
    const auto trace = workload::buildSniaTrace(w, span, scale);
    std::ofstream os(out);
    if (!os) {
        std::fprintf(stderr, "cannot open %s\n", out.c_str());
        return cli::kBadArgs;
    }
    trace.saveText(os);
    std::printf("wrote %zu records to %s\n", trace.size(), out.c_str());
    return 0;
}

int
cmdReplay(const Args &args)
{
    auto dev = makeDevice(args.get("device", "A"), args);
    if (!dev)
        return cli::kBadArgs;
    const std::string path = args.get("trace", "");
    std::ifstream is(path);
    if (!is) {
        std::fprintf(stderr, "cannot open %s\n", path.c_str());
        return cli::kBadArgs;
    }
    size_t errorLine = 0;
    const auto trace = workload::Trace::loadText(is, &errorLine);
    if (!trace) {
        if (errorLine == 0)
            std::fprintf(stderr, "malformed trace file %s: empty\n",
                         path.c_str());
        else
            std::fprintf(stderr, "malformed trace file %s: line %zu\n",
                         path.c_str(), errorLine);
        return cli::kBadArgs;
    }
    blockdev::ResilientDevice rdev(*dev);
    core::DiagnosisRunner prep(rdev, core::DiagnosisConfig{});
    prep.precondition();
    const auto res = usecases::runClosedLoop(
        {{.trace = &*trace, .dev = &rdev}}, prep.now())[0];
    std::printf("%s on %s: %llu requests, %.1f MB/s\n",
                trace->name().c_str(), dev->name().c_str(),
                static_cast<unsigned long long>(res.requests),
                res.throughputMbps());
    for (const double p : {50.0, 90.0, 99.0, 99.5, 99.9}) {
        std::printf("  p%-5.1f %s\n", p,
                    sim::formatDuration(res.latency.percentile(p)).c_str());
    }
    // Error accounting comes from the resilient path's counters (the
    // single tally; replay engines no longer duplicate it).
    const blockdev::ResilienceCounters &rc = rdev.counters();
    if (rc.erroredRequests > 0 || rc.retries > 0)
        std::printf("errors: %llu media, %llu timeout, %llu fault; "
                    "%llu of %llu requests errored (%.2f%%)\n",
                    static_cast<unsigned long long>(rc.mediaErrors),
                    static_cast<unsigned long long>(rc.timeouts),
                    static_cast<unsigned long long>(rc.deviceFaults),
                    static_cast<unsigned long long>(rc.erroredRequests),
                    static_cast<unsigned long long>(rc.submissions),
                    rc.errorRate() * 100);
    printFaultReport(*dev, rdev);
    return 0;
}

/** Read the SSDTRBIN file @p path; false + stderr on failure. */
bool
readBinaryTrace(const std::string &path, obs::TraceBinaryReader *reader)
{
    std::ifstream is(path, std::ios::binary);
    if (!is) {
        std::fprintf(stderr, "cannot open %s\n", path.c_str());
        return false;
    }
    if (!reader->read(is)) {
        std::fprintf(stderr, "%s: %s\n", path.c_str(),
                     reader->error().c_str());
        return false;
    }
    return true;
}

int
cmdTraceConvert(const Args &args)
{
    const std::string inPath = args.get("in", "trace.bin");
    const std::string outPath = args.get("out", "trace.json");
    obs::TraceBinaryReader reader;
    if (!readBinaryTrace(inPath, &reader))
        return cli::kBadArgs;
    if (!writeFile(outPath, [&](std::ostream &os) {
            reader.recorder().writeChromeJson(os);
        }))
        return cli::kBadArgs;
    std::printf("converted %zu trace events: %s -> %s\n",
                reader.recorder().events(), inPath.c_str(),
                outPath.c_str());
    return 0;
}

int
cmdTraceStats(const Args &args)
{
    obs::TraceBinaryReader reader;
    if (!readBinaryTrace(args.get("in", "trace.bin"), &reader))
        return cli::kBadArgs;
    const size_t topN = args.num<size_t>("top", 10);
    const obs::TraceStats stats =
        obs::computeTraceStats(reader.recorder(), topN);
    const std::string format = args.get("format", "text");
    if (format == "json") {
        std::printf("%s", obs::renderTraceStatsJson(stats).c_str());
    } else if (format == "text") {
        std::printf("%s", obs::renderTraceStatsText(stats).c_str());
    } else {
        std::fprintf(stderr,
                     "unknown --format '%s' (text or json)\n",
                     format.c_str());
        return cli::kBadArgs;
    }
    return cli::kOk;
}

int
cmdBench(const Args &args)
{
    const unsigned jobs =
        args.num("jobs", perf::ThreadPool::defaultJobs());
    const double scale = args.scale(0.03);
    const uint64_t seedCount = args.num<uint64_t>("seeds", 1);
    const double maxRegress = args.num("max-regress", 0.30);
    if (seedCount == 0) {
        std::fprintf(stderr, "--seeds must be positive\n");
        return cli::kBadArgs;
    }
    // A regress fraction of 1 or more puts the floor at or below zero,
    // where no measurement can fail the gate.
    if (maxRegress < 0 || maxRegress >= 1) {
        std::fprintf(stderr, "--max-regress must be in [0, 1)\n");
        return cli::kBadArgs;
    }
    // Read the baseline before the grid runs: a bad one is bad args.
    std::optional<double> baseline;
    if (args.has("baseline")) {
        const std::string basePath = args.get("baseline", "");
        baseline = perf::readBaselineIosPerSec(basePath);
        if (!baseline) {
            std::fprintf(stderr, "cannot read baseline %s\n",
                         basePath.c_str());
            return cli::kBadArgs;
        }
    }

    Telemetry tele;
    int rc = cli::kOk;
    if (!startTelemetry(args, &tele, &rc))
        return rc;

    perf::GridSpec spec = perf::GridSpec::fig11(scale);
    spec.seeds.clear();
    for (uint64_t s = 0; s < seedCount; ++s)
        spec.seeds.push_back(s);
    spec.telemetry = tele.hubPtr();

    std::printf("grid: %zu models x %zu workloads x %llu seeds, "
                "jobs=%u, scale=%.3f\n",
                spec.models.size(), spec.workloads.size(),
                static_cast<unsigned long long>(seedCount), jobs, scale);
    const perf::GridResult grid = perf::runGrid(spec, jobs);

    stats::TablePrinter t;
    t.header({"shard", "requests", "wall", "IOs/s"});
    for (const auto &task : grid.timing.tasks)
        t.row({task.label, std::to_string(task.simulatedIos),
               stats::TablePrinter::num(task.wallSeconds, 2) + "s",
               stats::TablePrinter::num(task.iosPerSec(), 0)});
    t.print(std::cout);
    std::printf("\nwall %.2fs (serial estimate %.2fs), aggregate "
                "speedup %.2fx, %.0f simulated IOs/s\n",
                grid.timing.wallSeconds, grid.timing.taskWallSum(),
                grid.timing.aggregateSpeedup(),
                grid.timing.iosPerSec());

    const std::string out = args.get("out", "BENCH_grid.json");
    if (!perf::writeBenchGridJson(out, "cli_bench_grid", grid.timing)) {
        std::fprintf(stderr, "cannot write %s\n", out.c_str());
        return cli::kBadArgs;
    }
    std::printf("wrote %s\n", out.c_str());

    if (baseline) {
        const double floor = *baseline * (1.0 - maxRegress);
        const double measured = grid.timing.iosPerSec();
        if (measured < floor) {
            std::fprintf(stderr,
                         "FAIL: %.0f IOs/s is below the regression floor "
                         "%.0f (baseline %.0f, max regress %.0f%%)\n",
                         measured, floor, *baseline, maxRegress * 100);
            return cli::kPerfGate;
        }
        std::printf("perf gate OK: %.0f IOs/s vs floor %.0f "
                    "(baseline %.0f, max regress %.0f%%)\n",
                    measured, floor, *baseline, maxRegress * 100);
        // Two-sided: a result far above the baseline is not an error,
        // but it means the floor has lost its teeth — a subsequent
        // regression back to the stale baseline would pass the gate.
        // Warn (never fail) so the baseline gets re-recorded.
        const double ceiling = *baseline * (1.0 + maxRegress);
        if (measured > ceiling)
            std::printf(
                "WARN: %.0f IOs/s is more than %.0f%% above the "
                "baseline %.0f — re-baseline bench/baseline.json so "
                "the regression floor keeps its teeth\n",
                measured, maxRegress * 100, *baseline);
    }
    return 0;
}

/** True when @p path names a readable file. */
bool
fileExists(const std::string &path)
{
    return std::ifstream(path).good();
}

/**
 * Chaos hook: start writing a checkpoint the non-atomic way — dump
 * half the bytes into the temp file — then die by SIGKILL, leaving a
 * torn temp next to the intact previous checkpoint. The soak harness
 * uses this to prove the atomic-rename protocol: a resume must load
 * the previous checkpoint, never the torn temp.
 */
[[noreturn]] void
dieInCheckpointWrite(const std::string &path,
                     const std::vector<uint8_t> &bytes)
{
    std::ofstream os(path + ".tmp", std::ios::binary | std::ios::trunc);
    os.write(reinterpret_cast<const char *>(bytes.data()),
             static_cast<std::streamsize>(bytes.size() / 2));
    os.flush();
    std::raise(SIGKILL);
    std::abort(); // unreachable; SIGKILL cannot be handled
}

int
cmdRun(const Args &args)
{
    recovery::RunParams params;
    params.device = args.get("device", "A");
    params.faults = args.get("faults", "none");
    params.workload = args.get("workload", "RW Mixed");
    params.scale = args.num("scale", 0.05);
    params.supervisor = args.has("supervisor");
    params.timelineMs = args.num<int64_t>("timeline-ms", 0);
    params.resilience = args.get("resilience", "off");

    const std::string resumePath = args.get("resume", "");
    const std::string ckptOut = args.get("checkpoint-out", "");
    const auto ckptEvery = args.num<uint64_t>("checkpoint-every", 0);
    const std::string finalOut = args.get("final-state-out", "");
    const bool force = args.has("force");
    const auto killAfter = args.num<uint64_t>("kill-after-requests", 0);
    const bool killInCkpt = args.has("kill-in-checkpoint");
    auto publishEvery = args.num<uint64_t>("publish-every", 1024);
    if (publishEvery == 0)
        publishEvery = 1;
    // Chaos hook for the telemetry watchdog: park the sim thread after
    // N requests so /healthz flips 503 once the snapshot goes stale.
    const auto hangAfter = args.num<uint64_t>("hang-after-requests", 0);
    const double minRecovered = args.num("min-recovered-accuracy", 0.0);
    const bool resuming = !resumePath.empty();

    // Observability outputs: spans (Chrome JSON and/or SSDTRBIN) and
    // the misprediction audit. Both must cover the whole run.
    const bool wantTrace = args.has("trace-out") || args.has("binary-out");
    const bool wantAudit = args.has("audit-out");
    if (resuming && (wantTrace || wantAudit)) {
        std::fprintf(stderr, "--trace-out, --binary-out and --audit-out "
                             "cannot be combined with --resume: a "
                             "resumed trace would be partial\n");
        return cli::kBadArgs;
    }
    if ((ckptEvery > 0) != !ckptOut.empty()) {
        std::fprintf(stderr, "--checkpoint-every and --checkpoint-out "
                             "must be given together\n");
        return cli::kBadArgs;
    }
    if (!ckptOut.empty() && ckptOut != resumePath &&
        fileExists(ckptOut) && !force) {
        std::fprintf(stderr,
                     "refusing to overwrite existing checkpoint %s; "
                     "pass --force to allow it\n",
                     ckptOut.c_str());
        return cli::kBadArgs;
    }

    recovery::Snapshot snap;
    if (resuming) {
        std::vector<uint8_t> bytes;
        std::string detail;
        recovery::LoadError e =
            recovery::readFile(resumePath, &bytes, &detail);
        if (e != recovery::LoadError::Ok) {
            std::fprintf(stderr, "cannot read snapshot %s: %s\n",
                         resumePath.c_str(), detail.c_str());
            return cli::kBadArgs;
        }
        e = snap.parse(bytes, &detail);
        if (e != recovery::LoadError::Ok) {
            std::fprintf(stderr,
                         "corrupt snapshot %s [%s]: %s\n"
                         "the file cannot be resumed; re-run without "
                         "--resume to start over\n",
                         resumePath.c_str(),
                         recovery::toString(e).c_str(), detail.c_str());
            return cli::kCorruptSnapshot;
        }
    }

    Telemetry tele;
    int rc = cli::kOk;
    if (!startTelemetry(args, &tele, &rc))
        return rc;
    obs::TraceRecorder recorder;
    obs::AuditLog audit;
    const obs::Sink sink{wantTrace ? &recorder : nullptr, nullptr,
                         wantAudit ? &audit : nullptr};

    std::string err;
    auto run = recovery::createRun(params, resuming, &err, &sink);
    if (!run) {
        std::fprintf(stderr, "%s\n", err.c_str());
        return cli::kBadArgs;
    }
    if (resuming) {
        std::string detail;
        const recovery::LoadError e = run->restore(snap, &detail, force);
        if (e == recovery::LoadError::ConfigMismatch) {
            std::fprintf(stderr,
                         "config mismatch: %s\nre-run with matching "
                         "flags, or pass --force to resume anyway\n",
                         detail.c_str());
            return cli::kConfigMismatch;
        }
        if (e != recovery::LoadError::Ok) {
            std::fprintf(stderr, "unusable snapshot %s [%s]: %s\n",
                         resumePath.c_str(),
                         recovery::toString(e).c_str(), detail.c_str());
            return cli::kCorruptSnapshot;
        }
        std::printf("resumed %s at request %llu of %zu (t=%s)\n",
                    resumePath.c_str(),
                    static_cast<unsigned long long>(run->cursor()),
                    run->trace().size(),
                    sim::formatDuration(run->now().ns()).c_str());
    }

    uint64_t checkpoints = 0;
    auto publish = [&](const char *phase) {
        if (tele.active())
            tele.hub.publish(run->registry(),
                             runStatusOf(*run, phase, checkpoints));
    };
    publish("run");

    uint64_t nextCkpt =
        ckptEvery > 0 ? (run->cursor() / ckptEvery + 1) * ckptEvery : 0;
    while (!run->done()) {
        (void)run->step();
        if (ckptEvery > 0 && run->cursor() >= nextCkpt) {
            const std::vector<uint8_t> bytes =
                run->checkpoint().serialize();
            if (killInCkpt && killAfter > 0 && run->cursor() >= killAfter)
                dieInCheckpointWrite(ckptOut, bytes);
            const std::string werr =
                recovery::writeFileAtomic(ckptOut, bytes);
            if (!werr.empty()) {
                std::fprintf(stderr, "checkpoint failed: %s\n",
                             werr.c_str());
                return cli::kBadArgs;
            }
            nextCkpt += ckptEvery;
            ++checkpoints;
            // Checkpoint boundaries are natural publish points: the
            // run is quiescent and the registry self-consistent.
            publish("run");
        }
        if (run->cursor() % publishEvery == 0)
            publish("run");
        if (hangAfter > 0 && run->cursor() >= hangAfter) {
            std::printf("hanging after %llu requests (telemetry "
                        "watchdog hook); kill me\n",
                        static_cast<unsigned long long>(run->cursor()));
            std::fflush(stdout);
            for (;;)
                std::this_thread::sleep_for(std::chrono::seconds(3600));
        }
        if (killAfter > 0 && !killInCkpt && run->cursor() >= killAfter)
            std::raise(SIGKILL);
    }
    publish("done");

    // The final state goes to the checkpoint (so a later --resume
    // finds the run complete) and to --final-state-out.
    for (const std::string &path : {ckptOut, finalOut}) {
        if (path.empty())
            continue;
        const std::string werr =
            recovery::writeFileAtomic(path, run->checkpoint().serialize());
        if (!werr.empty()) {
            std::fprintf(stderr, "cannot write %s: %s\n", path.c_str(),
                         werr.c_str());
            return cli::kBadArgs;
        }
    }
    auto emit = [&](const char *flag, const char *dflt, auto &&writer) {
        return !args.has(flag) || writeFile(args.get(flag, dflt), writer);
    };
    if (!emit("metrics-out", "metrics.json",
              [&](std::ostream &os) { os << run->metricsJson(); }) ||
        !emit("trace-out", "trace.json",
              [&](std::ostream &os) { recorder.writeChromeJson(os); }) ||
        !emit("binary-out", "trace.bin",
              [&](std::ostream &os) { obs::writeTraceBinary(recorder, os); }) ||
        !emit("audit-out", "audit.jsonl",
              [&](std::ostream &os) { audit.writeJsonl(os); }))
        return cli::kBadArgs;

    const core::AccuracyResult &acc = run->checkPtr()->accuracy();
    std::printf("workload: %s (%zu requests, HL fraction %.2f%%)\n",
                run->trace().name().c_str(), run->trace().size(),
                acc.hlFraction() * 100);
    std::printf("NL accuracy: %.2f%%\nHL accuracy: %.2f%%\n",
                acc.nlAccuracy() * 100, acc.hlAccuracy() * 100);
    if (acc.faulted > 0)
        std::printf("faulted requests excluded from recall: %llu\n",
                    static_cast<unsigned long long>(acc.faulted));
    const core::HealthSupervisor *sup = run->supervisorPtr();
    if (sup != nullptr) {
        stats::printBanner(std::cout, "model health");
        std::printf("%s", sup->report().c_str());
    }
    if (wantAudit) {
        stats::printBanner(std::cout, "misprediction audit");
        std::printf("%s", audit.analyze().format().c_str());
    }
    printFaultReport(run->device(), run->resilient());

    if (args.has("check-invariants")) {
        const auto violations = recovery::checkInvariants(*run);
        for (const std::string &v : violations)
            std::fprintf(stderr, "INVARIANT VIOLATED: %s\n", v.c_str());
        if (!violations.empty())
            return cli::kInvariantViolation;
        std::printf("cross-layer invariants: OK\n");
    }
    if (args.has("min-recovered-accuracy")) {
        // CI soak hook: the run must end with the model enabled and its
        // rolling HL accuracy at or above the floor.
        const core::SsdCheck &check = *run->checkPtr();
        const double rollingHl = check.monitor().rollingHlAccuracy();
        const bool disabled =
            (sup != nullptr && sup->state() == core::HealthState::Disabled) ||
            !check.enabled();
        if (disabled || rollingHl < minRecovered) {
            std::fprintf(stderr,
                         "FAIL: run ended %s with rolling HL accuracy "
                         "%.2f%% (floor %.2f%%)\n",
                         disabled ? "disabled" : "enabled",
                         rollingHl * 100, minRecovered * 100);
            return cli::kRecoveryFloor;
        }
        std::printf("rolling HL accuracy %.2f%% meets floor %.2f%%\n",
                    rollingHl * 100, minRecovered * 100);
    }
    return 0;
}

int
cmdChaos(const Args &args)
{
    const std::string path = args.get("scenario", "");
    if (path.empty()) {
        std::fprintf(stderr, "--scenario FILE required\n");
        return cli::kBadArgs;
    }
    std::ifstream is(path);
    if (!is) {
        std::fprintf(stderr, "cannot open %s\n", path.c_str());
        return cli::kBadArgs;
    }
    std::stringstream buf;
    buf << is.rdbuf();

    resilience::ChaosScenario scenario;
    std::string err;
    if (!resilience::ChaosScenario::parse(buf.str(), &scenario, &err)) {
        std::fprintf(stderr, "bad scenario %s: %s\n", path.c_str(),
                     err.c_str());
        return cli::kBadArgs;
    }
    const unsigned jobs =
        args.num("jobs", perf::ThreadPool::defaultJobs());
    Telemetry tele;
    int rc = cli::kOk;
    if (!startTelemetry(args, &tele, &rc))
        return rc;

    std::printf("chaos campaign '%s': %zu seeds, jobs=%u, policy "
                "deadline %s\n",
                scenario.name.c_str(), scenario.seeds.size(), jobs,
                sim::formatDuration(scenario.policy.deadlineBudget).c_str());
    const resilience::ChaosCampaignResult res =
        resilience::runChaosCampaign(scenario, jobs, tele.hubPtr());
    if (!res.error.empty()) {
        std::fprintf(stderr, "%s\n", res.error.c_str());
        return cli::kBadArgs;
    }

    stats::TablePrinter t;
    t.header({"seed", "ok", "shed", "expired", "hedges(won)", "breaker",
              "p99.9", "verdict"});
    for (const resilience::ChaosShardResult &s : res.shards) {
        t.row({std::to_string(s.seed), std::to_string(s.completedOk),
               std::to_string(s.shed), std::to_string(s.deadlineExpired),
               std::to_string(s.hedgesIssued) + "(" +
                   std::to_string(s.hedgeWins) + ")",
               std::to_string(s.breakerOpens) + "/" +
                   std::to_string(s.breakerCloses),
               sim::formatDuration(s.p999),
               s.failures.empty() ? "pass" : "FAIL"});
    }
    t.print(std::cout);
    for (const resilience::ChaosShardResult &s : res.shards)
        for (const std::string &f : s.failures)
            std::fprintf(stderr, "seed %llu: %s\n",
                         static_cast<unsigned long long>(s.seed),
                         f.c_str());
    std::printf("campaign digest: %016llx\n",
                static_cast<unsigned long long>(res.campaignDigest));

    if (args.has("verify")) {
        // Bit-exactness gate: the whole campaign must reproduce on a
        // single thread — any divergence means hidden cross-shard
        // state or nondeterminism in the policy stack.
        const resilience::ChaosCampaignResult serial =
            resilience::runChaosCampaign(scenario, 1);
        if (serial.campaignDigest != res.campaignDigest) {
            std::fprintf(stderr,
                         "FAIL: --jobs 1 rerun digest %016llx differs "
                         "from %016llx\n",
                         static_cast<unsigned long long>(
                             serial.campaignDigest),
                         static_cast<unsigned long long>(
                             res.campaignDigest));
            return cli::kSloViolation;
        }
        std::printf("determinism verify OK: --jobs 1 rerun reproduced "
                    "the digest\n");
    }
    if (!res.pass)
        return cli::kSloViolation;
    std::printf("all %zu shards passed their SLO assertions\n",
                res.shards.size());
    return cli::kOk;
}

int
cmdFaults(const Args &)
{
    stats::TablePrinter t;
    t.header({"profile", "unc-read", "prog-fail", "erase-fail", "stall",
              "drift"});
    for (const auto &p : ssd::allFaultProfiles()) {
        t.row({p.name, stats::TablePrinter::pct(p.readUncProbability),
               stats::TablePrinter::pct(p.programFailProbability),
               stats::TablePrinter::pct(p.eraseFailProbability),
               stats::TablePrinter::pct(p.stallProbability),
               p.driftAfterRequests == 0
                   ? "-"
                   : toString(p.driftKind) + " @" +
                         std::to_string(p.driftAfterRequests)});
    }
    t.print(std::cout);
    return 0;
}

int
usage(int rc)
{
    std::printf(
        "ssdcheck <command> [options]\n"
        "  fingerprint [--device A..G|nvm | --all] [--faults PROFILE]\n"
        "  trace-convert [--in trace.bin] [--out trace.json]\n"
        "  trace-stats [--in trace.bin] [--format text|json] [--top N]\n"
        "  synth      --workload NAME --out FILE [--scale F] [--span P]\n"
        "  replay     --device X --trace FILE [--faults PROFILE]\n"
        "  run        --device X [--workload NAME] [--scale F]"
        " [--faults PROFILE]\n"
        "             [--supervisor] [--resilience off|guarded|strict]\n"
        "             [--timeline-ms N] [--metrics-out FILE]\n"
        "             [--trace-out FILE] [--binary-out FILE]"
        " [--audit-out FILE]\n"
        "             [--min-recovered-accuracy F]\n"
        "             [--checkpoint-every N --checkpoint-out FILE]"
        " [--resume FILE]\n"
        "             [--force] [--final-state-out FILE]"
        " [--check-invariants]\n"
        "             [--kill-after-requests N] [--kill-in-checkpoint]\n"
        "             [--listen PORT] [--stale-ms N] [--publish-every N]\n"
        "  chaos      --scenario FILE [--jobs N] [--verify]"
        " [--listen PORT]\n"
        "  faults\n"
        "  bench      [--jobs N] [--scale F] [--seeds K] [--out FILE]\n"
        "             [--baseline FILE] [--max-regress F]"
        " [--listen PORT]\n"
        "  help\n"
        "workloads: TPCE Homes Web Exch Live Build 'RW Mixed'\n"
        "fault profiles: none flaky-reads wearout stalls drift storms"
        " hostile\n"
        "resilience policies: off guarded strict\n"
        "%s",
        cli::kExitCodeTable);
    return rc;
}

/** Every subcommand with the flags it reads. --hang-after-requests,
 *  --kill-after-requests and --kill-in-checkpoint are the chaos hooks
 *  tools/soak drives. */
const std::vector<Command> kCommands = {
    {"fingerprint", cmdFingerprint, {"device", "faults"}, {"all"}},
    {"synth", cmdSynth, {"workload", "out", "scale", "span"}, {}},
    {"replay", cmdReplay, {"device", "trace", "faults"}, {}},
    {"trace-convert", cmdTraceConvert, {"in", "out"}, {}},
    {"trace-stats", cmdTraceStats, {"in", "format", "top"}, {}},
    {"run",
     cmdRun,
     {"device", "faults", "workload", "scale", "resilience", "timeline-ms",
      "metrics-out", "trace-out", "binary-out", "audit-out",
      "min-recovered-accuracy", "checkpoint-every", "checkpoint-out",
      "resume", "final-state-out", "listen", "stale-ms", "publish-every",
      "hang-after-requests", "kill-after-requests"},
     {"supervisor", "force", "check-invariants", "kill-in-checkpoint"}},
    {"chaos", cmdChaos, {"scenario", "jobs", "listen", "stale-ms"},
     {"verify"}},
    {"faults", cmdFaults, {}, {}},
    {"bench",
     cmdBench,
     {"jobs", "scale", "seeds", "out", "baseline", "max-regress", "listen",
      "stale-ms"},
     {}},
};

int
dispatch(int argc, char **argv)
{
    const std::string name = argc >= 2 ? argv[1] : "";
    if (name == "help" || name == "--help" || name == "-h")
        return usage(cli::kOk);
    for (const Command &cmd : kCommands)
        if (name == cmd.name)
            return cmd.run(parse(cmd, argc, argv));
    return usage(cli::kUsage);
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        return dispatch(argc, argv);
    } catch (const BadFlag &e) {
        std::fprintf(stderr, "%s\n", e.message.c_str());
        return cli::kBadArgs;
    }
}
