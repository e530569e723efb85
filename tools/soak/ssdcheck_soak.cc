/**
 * @file
 * ssdcheck_soak — kill-and-resume chaos campaign over the
 * checkpoint/restore subsystem (see DESIGN.md "Crash consistency &
 * state serialization").
 *
 * The harness proves one property end to end: a run that is
 * SIGKILLed at arbitrary request counts — including in the middle of
 * writing a checkpoint — and resumed from its last checkpoint file
 * reaches the *bit-identical* final state of an uninterrupted run.
 *
 *   1. Golden run: the full workload replayed in-process with no
 *      interruptions; its final snapshot bytes are the reference.
 *   2. Chaos cycles: a child `ssdcheck run` process checkpoints every
 *      N requests and SIGKILLs itself at a seeded-random request
 *      count (every --torn-every'th cycle it dies halfway through
 *      writing the checkpoint temp file instead, exercising the
 *      atomic-rename protocol). After each death the harness parses
 *      the surviving checkpoint, restores it in-process and asserts
 *      the cross-layer invariant registry (FTL/NAND agreement, victim
 *      selection, buffer bounds, counter conservation, monotonic
 *      progress).
 *   3. Final cycle: an uninterrupted child resumes from the last
 *      checkpoint, finishes the workload and writes its final state,
 *      which must equal the golden bytes exactly.
 *   4. Telemetry probe (skip with --no-telemetry-probe): a child run
 *      with --listen is parked mid-run via --hang-after-requests; the
 *      harness scrapes /metrics and /runz from the live server, then
 *      asserts /healthz flips to 503 once the parked run stops
 *      publishing (the staleness watchdog is what pages an operator
 *      when a real run wedges), and SIGKILLs the child.
 *
 * Exit 0 only when every cycle verified and the final comparison is
 * byte-for-byte identical; exit 2, before any run, on a word or flag
 * the harness does not take or a value that does not parse. All
 * randomness is seeded (--seed); the campaign itself is reproducible.
 */
#include <signal.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "obs/exporter/http_server.h"
#include "recovery/invariants.h"
#include "recovery/shard.h"
#include "recovery/snapshot.h"
#include "sim/parse_number.h"

using namespace ssdcheck;

namespace {

/** A word or flag the harness does not take, or a bad flag value. */
struct BadFlag
{
    std::string what;
};

struct Args
{
    std::map<std::string, std::string> options;
    bool has(const std::string &k) const { return options.count(k) > 0; }
    std::string get(const std::string &k, const std::string &dflt) const
    {
        const auto it = options.find(k);
        return it == options.end() ? dflt : it->second;
    }

    /** Numeric flag @p k, or @p dflt when absent.
     *  @throws BadFlag unless the whole value is one T. */
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
};

/** Every flag the harness reads, and whether it takes a value. */
const std::map<std::string, bool> kFlags = {
    {"help", false}, {"supervisor", false}, {"no-telemetry-probe", false},
    {"cli", true}, {"cycles", true}, {"device", true}, {"workload", true},
    {"scale", true}, {"faults", true}, {"timeline-ms", true},
    {"checkpoint-every", true}, {"torn-every", true}, {"seed", true},
    {"dir", true}};

/** @throws BadFlag on a word or flag not in kFlags, or a flag that
 *  takes a value given none. */
Args
parse(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto flag = arg.rfind("--", 0) == 0 ? kFlags.find(arg.substr(2))
                                                 : kFlags.end();
        if (flag == kFlags.end())
            throw BadFlag{"unknown argument '" + arg + "'"};
        std::string &value = a.options[flag->first];
        if (!flag->second)
            continue;
        if (i + 1 == argc)
            throw BadFlag{arg + " needs a value"};
        value = argv[++i];
    }
    return a;
}

/** Directory of this executable (to find the sibling ssdcheck CLI). */
std::string
selfDir()
{
    char buf[4096];
    const ssize_t n = readlink("/proc/self/exe", buf, sizeof buf - 1);
    if (n <= 0)
        return ".";
    buf[n] = '\0';
    std::string path(buf);
    const size_t slash = path.rfind('/');
    return slash == std::string::npos ? "." : path.substr(0, slash);
}

bool
fileExists(const std::string &path)
{
    return std::ifstream(path).good();
}

/** Load + parse + restore + invariant-check one checkpoint file.
 *  @return the checkpoint's cursor, or UINT64_MAX on failure. */
uint64_t
verifyCheckpoint(const recovery::RunParams &params,
                 const std::string &path)
{
    std::vector<uint8_t> bytes;
    std::string detail;
    recovery::LoadError e = recovery::readFile(path, &bytes, &detail);
    if (e != recovery::LoadError::Ok) {
        std::fprintf(stderr, "FAIL: cannot read %s: %s\n", path.c_str(),
                     detail.c_str());
        return UINT64_MAX;
    }
    recovery::Snapshot snap;
    e = snap.parse(bytes, &detail);
    if (e != recovery::LoadError::Ok) {
        std::fprintf(stderr,
                     "FAIL: checkpoint %s did not survive the kill "
                     "[%s]: %s\n",
                     path.c_str(), recovery::toString(e).c_str(),
                     detail.c_str());
        return UINT64_MAX;
    }
    std::string err;
    auto run = recovery::createRun(params, true, &err);
    if (!run) {
        std::fprintf(stderr, "FAIL: cannot build resume stack: %s\n",
                     err.c_str());
        return UINT64_MAX;
    }
    e = run->restore(snap, &detail);
    if (e != recovery::LoadError::Ok) {
        std::fprintf(stderr, "FAIL: restore of %s failed [%s]: %s\n",
                     path.c_str(), recovery::toString(e).c_str(),
                     detail.c_str());
        return UINT64_MAX;
    }
    const auto violations = recovery::checkInvariants(*run);
    for (const std::string &v : violations)
        std::fprintf(stderr, "FAIL: invariant violated at request %llu: "
                             "%s\n",
                     static_cast<unsigned long long>(run->cursor()),
                     v.c_str());
    if (!violations.empty())
        return UINT64_MAX;
    return run->cursor();
}

std::vector<uint8_t>
readAll(const std::string &path)
{
    std::vector<uint8_t> bytes;
    if (recovery::readFile(path, &bytes) != recovery::LoadError::Ok)
        bytes.clear();
    return bytes;
}

/** Spawn `ssdcheck run` without waiting, stdout redirected to
 *  @p logPath (the telemetry port line is grepped from there).
 *  @return the child pid, or -1 on failure. */
pid_t
spawnRunAsync(const std::string &cli,
              const std::vector<std::string> &args,
              const std::string &logPath)
{
    std::vector<std::string> full = {cli, "run"};
    full.insert(full.end(), args.begin(), args.end());
    const pid_t pid = fork();
    if (pid < 0) {
        std::perror("fork");
        return -1;
    }
    if (pid == 0) {
        if (FILE *sink = std::fopen(logPath.c_str(), "w")) {
            dup2(fileno(sink), STDOUT_FILENO);
            std::fclose(sink);
        }
        std::vector<char *> argv;
        argv.reserve(full.size() + 1);
        for (std::string &s : full)
            argv.push_back(s.data());
        argv.push_back(nullptr);
        execv(cli.c_str(), argv.data());
        std::perror("execv");
        _exit(127);
    }
    return pid;
}

/** Spawn `ssdcheck run` with @p args, its report silenced (stderr
 *  keeps errors); wait for it. @return the raw waitpid status. */
int
spawnRun(const std::string &cli, const std::vector<std::string> &args)
{
    const pid_t pid = spawnRunAsync(cli, args, "/dev/null");
    if (pid < 0)
        return -1;
    int status = 0;
    if (waitpid(pid, &status, 0) < 0) {
        std::perror("waitpid");
        return -1;
    }
    return status;
}

/** Poll @p logPath for the "telemetry: http://127.0.0.1:PORT" line the
 *  CLI prints (and flushes) once its exporter is listening.
 *  @return the port, or 0 on timeout. */
uint16_t
waitForTelemetryPort(const std::string &logPath, int timeoutMs)
{
    for (int waited = 0; waited < timeoutMs; waited += 50) {
        std::ifstream is(logPath);
        std::string line;
        while (std::getline(is, line)) {
            const std::string needle = "http://127.0.0.1:";
            const size_t at = line.find(needle);
            if (at == std::string::npos)
                continue;
            const int port =
                std::atoi(line.c_str() + at + needle.size());
            if (port > 0 && port <= 65535)
                return static_cast<uint16_t>(port);
        }
        usleep(50 * 1000);
    }
    return 0;
}

/**
 * Telemetry probe: park a child run mid-workload with a live exporter,
 * scrape its endpoints, and assert the staleness watchdog notices that
 * the run stopped publishing. This is the operator-facing contract of
 * a wedged run: /metrics and /runz keep serving the last snapshot
 * (for post-mortem scraping) while /healthz flips to 503.
 */
bool
probeTelemetry(const std::string &cli, const std::string &dir)
{
    const std::string log = dir + "/telemetry.log";
    const pid_t pid = spawnRunAsync(
        cli,
        {"--device", "A", "--workload", "RW Mixed", "--scale", "0.02",
         "--listen", "0", "--stale-ms", "300", "--publish-every", "64",
         "--hang-after-requests", "256"},
        log);
    if (pid < 0)
        return false;

    bool ok = false;
    const uint16_t port = waitForTelemetryPort(log, 5000);
    if (port == 0) {
        std::fprintf(stderr,
                     "FAIL: telemetry child never printed its port "
                     "(see %s)\n",
                     log.c_str());
    } else {
        int status = 0;
        std::string body;
        // The server comes up before the run publishes its first
        // snapshot (device diagnosis runs in between), so poll until
        // /metrics stops answering 503 "no snapshot published yet".
        bool metricsOk = false;
        for (int waited = 0; waited < 10000; waited += 100) {
            if (obs::httpGet(port, "/metrics", &status, &body) &&
                status == 200) {
                metricsOk =
                    body.find("# TYPE") != std::string::npos &&
                    body.find("ssdcheck_") != std::string::npos;
                break;
            }
            usleep(100 * 1000);
        }
        if (!metricsOk)
            std::fprintf(stderr,
                         "FAIL: /metrics scrape on a hung run "
                         "(status %d, %zu bytes)\n",
                         status, body.size());
        const bool runzOk =
            obs::httpGet(port, "/runz", &status, &body) &&
            status == 200 &&
            body.find("\"sequence\"") != std::string::npos &&
            body.find("\"phase\"") != std::string::npos;
        if (!runzOk)
            std::fprintf(stderr,
                         "FAIL: /runz scrape on a hung run "
                         "(status %d, %zu bytes)\n",
                         status, body.size());
        // The child parked after 256 requests and will never publish
        // again; with --stale-ms 300 the watchdog must flip within a
        // few polls.
        bool staleOk = false;
        for (int waited = 0; waited < 10000; waited += 100) {
            if (obs::httpGet(port, "/healthz", &status, &body) &&
                status == 503) {
                staleOk = true;
                break;
            }
            usleep(100 * 1000);
        }
        if (!staleOk)
            std::fprintf(stderr,
                         "FAIL: /healthz never flipped to 503 after "
                         "the run stopped publishing (last status "
                         "%d)\n",
                         status);
        ok = metricsOk && runzOk && staleOk;
    }

    kill(pid, SIGKILL);
    int status = 0;
    waitpid(pid, &status, 0);
    if (ok)
        std::printf("telemetry probe: scraped /metrics and /runz on a "
                    "hung run; /healthz flipped to 503\n");
    return ok;
}

} // namespace

int
main(int argc, char **argv)
{
    Args args;
    recovery::RunParams params;
    uint64_t cycles = 0;
    uint64_t ckptEvery = 0;
    uint64_t tornEvery = 0;
    uint64_t seed = 0;
    try {
        args = parse(argc, argv);
        params.scale = args.num("scale", 0.02);
        params.timelineMs = args.num<int64_t>("timeline-ms", 0);
        cycles = args.num<uint64_t>("cycles", 50);
        ckptEvery = args.num<uint64_t>("checkpoint-every", 64);
        tornEvery = args.num<uint64_t>("torn-every", 5);
        seed = args.num<uint64_t>("seed", 1);
    } catch (const BadFlag &e) {
        std::fprintf(stderr, "ssdcheck_soak: %s (see --help)\n",
                     e.what.c_str());
        return 2;
    }
    if (args.has("help")) {
        std::printf(
            "ssdcheck_soak [--cli PATH] [--cycles N] [--device X]\n"
            "              [--workload NAME] [--scale F] [--faults P]\n"
            "              [--supervisor] [--timeline-ms N]\n"
            "              [--checkpoint-every N] [--torn-every K]\n"
            "              [--seed S] [--dir D] [--no-telemetry-probe]\n");
        return 1;
    }

    params.device = args.get("device", "A");
    params.faults = args.get("faults", "hostile");
    params.workload = args.get("workload", "RW Mixed");
    params.supervisor = args.has("supervisor");

    const std::string cli = args.get("cli", selfDir() + "/ssdcheck");
    const std::string dir = args.get("dir", "soak-work");
    if (!fileExists(cli)) {
        std::fprintf(stderr, "cannot find ssdcheck CLI at %s "
                             "(pass --cli)\n",
                     cli.c_str());
        return 2;
    }
    if (mkdir(dir.c_str(), 0755) != 0 && errno != EEXIST) {
        std::perror(dir.c_str());
        return 2;
    }
    const std::string ckpt = dir + "/chaos.ckpt";
    const std::string finalOut = dir + "/final.ckpt";
    std::remove(ckpt.c_str());
    std::remove((ckpt + ".tmp").c_str());
    std::remove(finalOut.c_str());

    // -- golden run: uninterrupted, in-process ---------------------------
    std::printf("golden run: %s\n", params.canonical().c_str());
    std::string err;
    auto golden = recovery::createRun(params, false, &err);
    if (!golden) {
        std::fprintf(stderr, "cannot build golden run: %s\n", err.c_str());
        return 2;
    }
    while (!golden->done())
        (void)golden->step();
    const std::vector<uint8_t> goldenBytes =
        golden->checkpoint().serialize();
    const uint64_t traceSize = golden->trace().size();
    {
        const auto violations = recovery::checkInvariants(*golden);
        for (const std::string &v : violations)
            std::fprintf(stderr, "FAIL: golden-run invariant: %s\n",
                         v.c_str());
        if (!violations.empty())
            return 1;
    }
    std::printf("golden: %llu requests, final state %zu bytes\n",
                static_cast<unsigned long long>(traceSize),
                goldenBytes.size());

    const std::vector<std::string> base = {
        "--device",   params.device,
        "--faults",   params.faults,
        "--workload", params.workload,
        "--scale",    args.get("scale", "0.02"),
    };
    auto withCommon = [&](std::vector<std::string> extra) {
        std::vector<std::string> full = base;
        if (params.supervisor)
            full.push_back("--supervisor");
        if (params.timelineMs > 0) {
            full.push_back("--timeline-ms");
            full.push_back(std::to_string(params.timelineMs));
        }
        full.insert(full.end(), extra.begin(), extra.end());
        return full;
    };

    // -- chaos cycles ----------------------------------------------------
    std::mt19937_64 rng(seed);
    uint64_t lastCursor = 0;
    uint64_t kills = 0;
    uint64_t tornWrites = 0;
    uint64_t completions = 0;
    // Kill within a window past the last checkpoint so progress per
    // cycle is ~traceSize/cycles and the campaign lands close to its
    // cycle budget before any child reaches the end of the trace.
    const uint64_t killSpan =
        std::max<uint64_t>(2 * traceSize / std::max<uint64_t>(cycles, 1),
                           2);
    for (uint64_t cycle = 0; cycle < cycles; ++cycle) {
        const bool haveCkpt = fileExists(ckpt);
        const uint64_t killAt = lastCursor + 1 + rng() % killSpan;
        const bool torn =
            tornEvery > 0 && cycle % tornEvery == tornEvery - 1;

        std::vector<std::string> extra = {
            "--checkpoint-every", std::to_string(ckptEvery),
            "--checkpoint-out",   ckpt,
            "--final-state-out",  finalOut,
            "--kill-after-requests", std::to_string(killAt),
        };
        if (torn)
            extra.push_back("--kill-in-checkpoint");
        if (haveCkpt) {
            extra.push_back("--resume");
            extra.push_back(ckpt);
        }
        const int status = spawnRun(cli, withCommon(extra));
        if (status < 0)
            return 2;
        const bool childCompleted =
            WIFEXITED(status) && WEXITSTATUS(status) == 0;
        if (childCompleted) {
            ++completions;
            std::printf("cycle %llu: completed (kill point %llu past "
                        "end)\n",
                        static_cast<unsigned long long>(cycle),
                        static_cast<unsigned long long>(killAt));
        } else if (WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL) {
            ++kills;
            tornWrites += torn ? 1 : 0;
        } else {
            std::fprintf(stderr,
                         "FAIL: cycle %llu child died unexpectedly "
                         "(status 0x%x)\n",
                         static_cast<unsigned long long>(cycle), status);
            return 1;
        }

        if (!fileExists(ckpt)) {
            // Killed before the first checkpoint; nothing to verify.
            continue;
        }
        const uint64_t cursor = verifyCheckpoint(params, ckpt);
        if (cursor == UINT64_MAX)
            return 1;
        if (cursor < lastCursor) {
            std::fprintf(stderr,
                         "FAIL: checkpoint cursor went backwards "
                         "(%llu -> %llu)\n",
                         static_cast<unsigned long long>(lastCursor),
                         static_cast<unsigned long long>(cursor));
            return 1;
        }
        lastCursor = cursor;
        if (!childCompleted)
            std::printf("cycle %llu: %s at request %llu, checkpoint at "
                        "%llu verified\n",
                        static_cast<unsigned long long>(cycle),
                        torn ? "torn-write kill" : "kill",
                        static_cast<unsigned long long>(killAt),
                        static_cast<unsigned long long>(cursor));
        if (childCompleted && cursor >= traceSize)
            break;
    }

    // -- final uninterrupted cycle + bit-identical comparison ------------
    if (!fileExists(finalOut)) {
        std::vector<std::string> extra = {
            "--checkpoint-every", std::to_string(ckptEvery),
            "--checkpoint-out",   ckpt,
            "--final-state-out",  finalOut,
            "--check-invariants",
        };
        if (fileExists(ckpt)) {
            extra.push_back("--resume");
            extra.push_back(ckpt);
        }
        const int status = spawnRun(cli, withCommon(extra));
        if (!(WIFEXITED(status) && WEXITSTATUS(status) == 0)) {
            std::fprintf(stderr,
                         "FAIL: final cycle did not complete "
                         "(status 0x%x)\n",
                         status);
            return 1;
        }
        ++completions;
    }
    const std::vector<uint8_t> finalBytes = readAll(finalOut);
    if (finalBytes != goldenBytes) {
        std::fprintf(stderr,
                     "FAIL: resumed final state (%zu bytes) differs "
                     "from the uninterrupted golden run (%zu bytes)\n",
                     finalBytes.size(), goldenBytes.size());
        return 1;
    }

    // -- telemetry probe: live scrape of a hung child ---------------------
    if (!args.has("no-telemetry-probe") && !probeTelemetry(cli, dir))
        return 1;

    std::printf("PASS: %llu kills (%llu mid-checkpoint-write), %llu "
                "completions; resumed final state is bit-identical to "
                "the golden run (%zu bytes)\n",
                static_cast<unsigned long long>(kills),
                static_cast<unsigned long long>(tornWrites),
                static_cast<unsigned long long>(completions),
                goldenBytes.size());
    return 0;
}
