/**
 * @file Consolidated CLI exit-code contract, asserted through the
 * installed `ssdcheck` binary: every failure class maps to one stable
 * code (tools/exit_codes.h), `help` exits 0 and prints the
 * consolidated table verbatim, and bad invocations are distinguishable
 * from crashed runs by code alone. The soak harness, the audit tool
 * and the bench binaries are held to the same rule for bad numbers.
 *
 * Build wiring provides:
 *   SSDCHECK_CLI_BIN  absolute path of the ssdcheck CLI binary
 *   SSDCHECK_{SOAK,AUDIT}_BIN, SSDCHECK_{JOBS,TRACE}_BENCH_BIN
 *                     the soak harness, the audit tool, a bench that
 *                     reads --jobs and the one that reads
 *                     --max-overhead
 *   SSDCHECK_FIXTURE_DIR  tests/fixtures
 */
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "exit_codes.h"

namespace {

namespace cli = ssdcheck::cli;

/** Run @p bin; returns its exit code, captures stdout+stderr. */
int
runBin(const std::string &bin, const std::string &args, std::string *out)
{
    const std::string cmd = bin + " " + args + " 2>&1";
    FILE *pipe = popen(cmd.c_str(), "r");
    EXPECT_NE(pipe, nullptr) << cmd;
    if (pipe == nullptr)
        return -1;
    char buf[512];
    std::ostringstream os;
    while (fgets(buf, sizeof buf, pipe) != nullptr)
        os << buf;
    if (out != nullptr)
        *out = os.str();
    const int status = pclose(pipe);
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

/** Run the real ssdcheck binary. */
int
runCli(const std::string &args, std::string *out)
{
    return runBin(SSDCHECK_CLI_BIN, args, out);
}

TEST(CliExitCodes, EnumValuesAreTheDocumentedContract)
{
    // The numeric values are API: scripts and CI match on them, so a
    // renumbering is a breaking change this test makes loud.
    EXPECT_EQ(cli::kOk, 0);
    EXPECT_EQ(cli::kUsage, 1);
    EXPECT_EQ(cli::kBadArgs, 2);
    EXPECT_EQ(cli::kRecoveryFloor, 3);
    EXPECT_EQ(cli::kPerfGate, 4);
    EXPECT_EQ(cli::kCorruptSnapshot, 5);
    EXPECT_EQ(cli::kConfigMismatch, 6);
    EXPECT_EQ(cli::kInvariantViolation, 7);
    EXPECT_EQ(cli::kSloViolation, 8);
}

TEST(CliExitCodes, HelpExitsZeroAndPrintsTheExitCodeTable)
{
    for (const char *spelling : {"help", "--help", "-h"}) {
        std::string out;
        EXPECT_EQ(runCli(spelling, &out), cli::kOk) << spelling;
        // The consolidated table is printed verbatim from the shared
        // header, so CLI and docs can never drift apart.
        EXPECT_NE(out.find(cli::kExitCodeTable), std::string::npos)
            << spelling << " output:\n"
            << out;
        EXPECT_NE(out.find("chaos"), std::string::npos) << spelling;
    }
}

TEST(CliExitCodes, UnknownCommandExitsUsage)
{
    std::string out;
    EXPECT_EQ(runCli("frobnicate", &out), cli::kUsage);
    EXPECT_NE(out.find("usage"), std::string::npos);
}

TEST(CliExitCodes, BadArgumentsExitBadArgs)
{
    std::string out;
    // Unknown device preset.
    EXPECT_EQ(runCli("run --device NOPE --scale 0.002", &out),
              cli::kBadArgs)
        << out;
    // Unreadable chaos scenario file.
    EXPECT_EQ(runCli("chaos --scenario /nonexistent.chaos", &out),
              cli::kBadArgs)
        << out;
    // Numeric flags that are not numbers of the flag's type: junk,
    // trailing junk, a sign on an unsigned count, out of range (a
    // scale must be in (0, 1]).
    for (const char *bad :
         {"run --scale abc", "run --scale 0.002 --checkpoint-every 10x",
          "run --scale 0.002 --publish-every -3",
          "run --scale 0.002 --listen 70000", "run --scale 1e999",
          "run --scale 2", "run --scale 1e30", "bench --scale 1e30",
          "synth --workload Web --out x --scale 2",
          "bench --jobs -1", "synth --workload Web --out x --span 5k"}) {
        EXPECT_EQ(runCli(bad, &out), cli::kBadArgs) << bad << "\n" << out;
        EXPECT_NE(out.find("bad value for --"), std::string::npos) << out;
    }
    const std::string path =
        testing::TempDir() + "/cli_exit_codes_jobs.chaos";
    {
        std::ofstream f(path);
        f << "scale 0.002\nseeds 1\n";
    }
    EXPECT_EQ(runCli("chaos --scenario " + path + " --jobs x", &out),
              cli::kBadArgs)
        << out;
    std::remove(path.c_str());
    // A resumed trace or audit would be partial.
    EXPECT_EQ(runCli("run --scale 0.002 --resume /nonexistent.ckpt "
                     "--trace-out /nonexistent/trace.json",
                     &out),
              cli::kBadArgs)
        << out;
    EXPECT_NE(out.find("--resume"), std::string::npos) << out;
    // A flag the command does not read, a value given to a switch, or
    // a stray word is named and refused, never silently ignored.
    for (const auto &[bad, named] :
         std::vector<std::pair<std::string, std::string>>{
             {"run --supervisor --scale 0.002 "
              "--min-recoverd-accuracy 1.01",
              "--min-recoverd-accuracy"},
             {"run --scale 0.002 --supervsior", "--supervsior"},
             {"run A --scale 0.002", "'A'"},
             {"run --scale 0.002 --supervisor=yes", "--supervisor"},
             {"run --profile-stages", "--profile-stages"},
             {"bench --max-stage-regress 3", "--max-stage-regress"},
             {"chaos --scenario x.chaos --publish-every 8",
              "--publish-every"}}) {
        EXPECT_EQ(runCli(bad, &out), cli::kBadArgs) << bad << "\n" << out;
        EXPECT_NE(out.find(named), std::string::npos) << bad << "\n" << out;
    }
    // A regress fraction of 1 or more would make the gate unfailable.
    EXPECT_EQ(runCli("bench --max-regress 1.5", &out), cli::kBadArgs)
        << out;
    EXPECT_NE(out.find("--max-regress"), std::string::npos) << out;
    // So would a baseline that is not a finite positive number; it is
    // refused before the grid runs.
    const std::string basePath =
        testing::TempDir() + "/cli_exit_codes_baseline.json";
    for (const char *value : {"nan", "0", "-5"}) {
        {
            std::ofstream f(basePath);
            f << "{\"ios_per_sec\": " << value << "}\n";
        }
        EXPECT_EQ(runCli("bench --baseline " + basePath, &out),
                  cli::kBadArgs)
            << value << "\n"
            << out;
        EXPECT_NE(out.find("cannot read baseline"), std::string::npos)
            << out;
    }
    std::remove(basePath.c_str());
}

TEST(CliExitCodes, RecoveredAccuracyFloorMissExitsRecoveryFloor)
{
    // No rolling HL accuracy reaches 101%.
    std::string out;
    EXPECT_EQ(runCli("run --supervisor --scale 0.002 "
                     "--min-recovered-accuracy 1.01",
                     &out),
              cli::kRecoveryFloor)
        << out;
    EXPECT_NE(out.find("FAIL"), std::string::npos) << out;
}

TEST(CliExitCodes, MalformedChaosScenarioExitsBadArgs)
{
    const std::string path =
        testing::TempDir() + "/cli_exit_codes_bad.chaos";
    {
        std::ofstream f(path);
        f << "seeds 1\nno-such-key 1\n";
    }
    std::string out;
    EXPECT_EQ(runCli("chaos --scenario " + path, &out), cli::kBadArgs)
        << out;
    EXPECT_NE(out.find("no-such-key"), std::string::npos) << out;
    std::remove(path.c_str());
}

TEST(CliExitCodes, MalformedTraceExitsBadArgs)
{
    const std::string path =
        testing::TempDir() + "/cli_exit_codes_bad.trace";
    {
        std::ofstream f(path);
        f << "# bad\n0 w 0 8\n0 w 8 8 junk\n";
    }
    std::string out;
    EXPECT_EQ(runCli("replay --device A --trace " + path, &out),
              cli::kBadArgs)
        << out;
    EXPECT_NE(out.find("line 3"), std::string::npos) << out;

    // A record the trace column cannot hold is refused where it
    // enters, not replayed as a device fault or a 2^18-sector read.
    for (const auto &[body, at] :
         {std::pair<std::string, std::string>{
              "# big\n0 w 17592186044416 8\n0 r 8 262144\n", "line 2"},
          {"# big\n0 w 8 8\n0 r 8 262144\n", "line 3"}}) {
        {
            std::ofstream f(path);
            f << body;
        }
        EXPECT_EQ(runCli("replay --device A --trace " + path, &out),
                  cli::kBadArgs)
            << out;
        EXPECT_NE(out.find(at), std::string::npos) << out;
    }
    std::remove(path.c_str());
}

TEST(CliExitCodes, ChaosSloViolationExitsSloViolation)
{
    // An impossible liveness floor forces the SLO-violation path.
    const std::string path =
        testing::TempDir() + "/cli_exit_codes_slo.chaos";
    {
        std::ofstream f(path);
        f << "name impossible\nscale 0.002\nseeds 1\npacing closed\n"
          << "assert-min-completed 18446744073709551615\n";
    }
    std::string out;
    EXPECT_EQ(runCli("chaos --scenario " + path + " --jobs 2", &out),
              cli::kSloViolation)
        << out;
    EXPECT_NE(out.find("liveness"), std::string::npos) << out;
    std::remove(path.c_str());
}

TEST(CliExitCodes, ChaosCampaignPassesAndVerifies)
{
    const std::string path =
        testing::TempDir() + "/cli_exit_codes_ok.chaos";
    {
        std::ofstream f(path);
        f << "name tiny\nscale 0.002\nseeds 1 2\npacing closed\n"
          << "faults storms\nassert-min-completed 100\n";
    }
    std::string out;
    // --verify reruns the campaign at --jobs 1 and requires a
    // bit-identical digest: the determinism gate, end to end.
    EXPECT_EQ(runCli("chaos --scenario " + path + " --jobs 4 --verify",
                     &out),
              cli::kOk)
        << out;
    EXPECT_NE(out.find("campaign digest:"), std::string::npos) << out;
    std::remove(path.c_str());
}

TEST(ToolExitCodes, BadNumericFlagsAreRefusedByName)
{
    // The soak harness, the audit tool and the bench binaries read
    // numbers through the CLI's rule too: junk, a sign on an unsigned
    // count and a negative bound are refused, naming the flag, before
    // any work starts. The soak cases point --cli at nothing, so a
    // harness that let a bad value through stops at that check
    // instead of starting a campaign.
    struct Case
    {
        std::string bin;
        std::string args;
        int code;
        std::string says;
    };
    const std::string soak = SSDCHECK_SOAK_BIN;
    const std::string noCli = " --cli /nonexistent/ssdcheck";
    const std::string audit = std::string(SSDCHECK_AUDIT_BIN) + " " +
                              SSDCHECK_FIXTURE_DIR + "/audit_v1.jsonl";
    const std::string jobs = SSDCHECK_JOBS_BENCH_BIN;
    const std::string trace = SSDCHECK_TRACE_BENCH_BIN;
    for (const Case &c : std::vector<Case>{
             {soak, "--scale abc" + noCli, 2, "bad value for --scale"},
             {soak, "--cycles -1" + noCli, 2, "bad value for --cycles"},
             {soak, "--cycels 3" + noCli, 2, "unknown argument '--cycels'"},
             {soak, "stray" + noCli, 2, "unknown argument 'stray'"},
             {soak, "--supervisor stray" + noCli, 2,
              "unknown argument 'stray'"},
             {audit, "--gc-threshold-ns abc", 1,
              "bad value for --gc-threshold-ns"},
             {audit, "--gc-threshold-ns -1", 1,
              "bad value for --gc-threshold-ns"},
             {jobs, "--jobs abc", 2, "bad value for --jobs"},
             {jobs, "--jobs -1", 2, "bad value for --jobs"},
             {trace, "--max-overhead abc", 2, "bad value for --max-overhead"},
             {trace, "--max-overhead -1", 2,
              "bad value for --max-overhead"}}) {
        std::string out;
        EXPECT_EQ(runBin(c.bin, c.args, &out), c.code)
            << c.bin << " " << c.args << "\n" << out;
        EXPECT_NE(out.find(c.says), std::string::npos)
            << c.bin << " " << c.args << "\n" << out;
    }
    std::string out;
    EXPECT_EQ(runBin(audit, "--gc-threshold-ns 3000000", &out), 0) << out;
}

} // namespace
