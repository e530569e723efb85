/**
 * @file
 * ssdcheck_audit — misprediction forensics over an audit JSONL.
 *
 *   ssdcheck_audit <audit.jsonl> [--gc-threshold-ns N]
 *
 * Reads the per-request audit records `ssdcheck run --audit-out`
 * produced, buckets the HL misses by proximate cause (fault-taint,
 * gc-drift, unmodeled-flush, unknown) and prints the report. The
 * optional --gc-threshold-ns overrides the drift bound used for
 * re-classification (default: the paper-default 3ms GC threshold,
 * matching an unadapted LatencyMonitor).
 *
 * Exit codes: 0 report printed, 1 usage (including a
 * --gc-threshold-ns that is not one non-negative integer),
 * 2 unreadable/malformed input.
 */
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>

#include "obs/audit_log.h"
#include "sim/parse_number.h"

int
main(int argc, char **argv)
{
    std::string path;
    ssdcheck::sim::SimDuration gcThreshold =
        ssdcheck::sim::milliseconds(3);
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--gc-threshold-ns") == 0 &&
            i + 1 < argc) {
            ++i;
            if (!ssdcheck::sim::parseNumber(argv[i], &gcThreshold) ||
                gcThreshold < 0) {
                std::fprintf(stderr, "bad value for --gc-threshold-ns: "
                                     "'%s'\n",
                             argv[i]);
                return 1;
            }
        } else if (path.empty()) {
            path = argv[i];
        } else {
            path.clear();
            break;
        }
    }
    if (path.empty()) {
        std::fprintf(stderr,
                     "usage: ssdcheck_audit <audit.jsonl> "
                     "[--gc-threshold-ns N]\n");
        return 1;
    }

    std::ifstream is(path);
    if (!is) {
        std::fprintf(stderr, "cannot open %s\n", path.c_str());
        return 2;
    }
    ssdcheck::obs::AuditLog log(gcThreshold);
    size_t errorLine = 0;
    if (!ssdcheck::obs::AuditLog::readJsonl(is, &log, &errorLine)) {
        std::fprintf(stderr, "malformed audit file %s: line %zu\n",
                     path.c_str(), errorLine);
        return 2;
    }
    std::printf("%s", log.analyze().format().c_str());
    return 0;
}
