/**
 * @file
 * The ssdcheck CLI's consolidated exit-code contract.
 *
 * Every gate the CLI can fail maps to one stable nonzero code so CI
 * jobs and the soak/chaos harnesses can branch on *why* a run failed
 * without scraping stderr. The table below is printed by
 * `ssdcheck help` and asserted verbatim by tests/cli_exit_codes_test,
 * so changing a code is an interface break, not a refactor.
 */
#pragma once

namespace ssdcheck::cli {

enum ExitCode : int
{
    kOk = 0,
    /** Unknown command / help requested via a failing path. */
    kUsage = 1,
    /** Unknown flags, stray words, bad flag values, unreadable
     *  files, unknown presets. */
    kBadArgs = 2,
    /** run --min-recovered-accuracy floor violated. */
    kRecoveryFloor = 3,
    /** bench --baseline perf gate regression. */
    kPerfGate = 4,
    /** run --resume met a corrupt/unparseable snapshot. */
    kCorruptSnapshot = 5,
    /** run --resume met a snapshot from a different config. */
    kConfigMismatch = 6,
    /** run --check-invariants found a cross-layer violation. */
    kInvariantViolation = 7,
    /** chaos campaign: an SLO assertion or the bit-exactness
     *  (--verify) check failed. */
    kSloViolation = 8,
};

/** The operator-facing table (printed by `ssdcheck help`). */
inline constexpr char kExitCodeTable[] =
    "exit codes:\n"
    "  0  success\n"
    "  1  usage error (unknown command)\n"
    "  2  bad arguments / unreadable input\n"
    "  3  recovered-accuracy floor violated (run)\n"
    "  4  perf-gate regression (bench --baseline)\n"
    "  5  corrupt snapshot (run --resume)\n"
    "  6  snapshot config mismatch (run --resume)\n"
    "  7  cross-layer invariant violation (run --check-invariants)\n"
    "  8  SLO violation or nondeterminism (chaos)\n";

} // namespace ssdcheck::cli
