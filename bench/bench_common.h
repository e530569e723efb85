/**
 * @file
 * Shared helpers for the per-figure/table benchmark binaries.
 *
 * Every binary in bench/ regenerates one table or figure of the paper
 * as text (rows/series), using only the public library API. Paper
 * reference values are printed alongside so EXPERIMENTS.md can record
 * paper-vs-measured without re-deriving anything.
 */
#ifndef SSDCHECK_BENCH_BENCH_COMMON_H
#define SSDCHECK_BENCH_BENCH_COMMON_H

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>

#include "core/diagnosis.h"
#include "core/ssdcheck.h"
#include "perf/grid.h"
#include "perf/thread_pool.h"
#include "sim/parse_number.h"
#include "ssd/presets.h"
#include "ssd/ssd_device.h"
#include "stats/table_printer.h"

namespace ssdcheck::bench {

/** Print the figure/table banner with a short description. */
inline void
banner(const std::string &id, const std::string &what)
{
    stats::printBanner(std::cout, id);
    std::cout << what << "\n\n";
}

/** A preset device plus its diagnosis output, ready for experiments. */
struct DiagnosedDevice
{
    std::unique_ptr<ssd::SsdDevice> dev;
    core::FeatureSet features;
    sim::SimTime now;
};

/** Build and fully diagnose one Table-I preset. */
inline DiagnosedDevice
diagnosePreset(ssd::SsdModel model, uint64_t seedSalt = 0)
{
    DiagnosedDevice out;
    out.dev = std::make_unique<ssd::SsdDevice>(
        ssd::makePreset(model, seedSalt));
    core::DiagnosisRunner runner(*out.dev, core::DiagnosisConfig{});
    out.features = runner.extractFeatures();
    out.now = runner.now();
    return out;
}

/**
 * The value of numeric flag @p flag in a bench binary's argv, or
 * @p dflt when absent. A value that is not one whole T exits 2 and
 * names the flag, as the `ssdcheck` CLI does.
 */
template <typename T>
T
flagValue(int argc, char **argv, const char *flag, T dflt)
{
    for (int i = 1; i + 1 < argc; ++i) {
        if (std::strcmp(argv[i], flag) != 0)
            continue;
        if (!sim::parseNumber(argv[i + 1], &dflt)) {
            std::fprintf(stderr, "bad value for %s: '%s'\n", flag,
                         argv[i + 1]);
            std::exit(2);
        }
        break;
    }
    return dflt;
}

/**
 * Parse `--jobs N` from a bench binary's argv (default: all cores).
 * Results are job-count independent — shards are fully isolated — so
 * the flag only changes wall-clock time.
 */
inline unsigned
parseJobs(int argc, char **argv)
{
    return flagValue(argc, argv, "--jobs", perf::ThreadPool::defaultJobs());
}

/**
 * Print the batch timing summary and write BENCH_<name>.json in the
 * working directory, so every bench keeps its own report beside
 * `ssdcheck bench`'s BENCH_grid.json.
 */
inline void
reportBatch(const std::string &name, const perf::BatchTiming &timing)
{
    std::printf("\n%s: %zu shards, jobs=%u, wall %.2fs, "
                "%.0f simulated IOs/s, aggregate speedup %.2fx\n",
                name.c_str(), timing.tasks.size(), timing.jobs,
                timing.wallSeconds, timing.iosPerSec(),
                timing.aggregateSpeedup());
    const std::string jsonPath = "BENCH_" + name + ".json";
    if (!perf::writeBenchGridJson(jsonPath, name, timing))
        std::fprintf(stderr, "warning: could not write %s\n",
                     jsonPath.c_str());
    else
        std::printf("wrote %s\n", jsonPath.c_str());
}

} // namespace ssdcheck::bench

#endif // SSDCHECK_BENCH_BENCH_COMMON_H
