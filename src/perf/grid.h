/**
 * @file
 * Parallel experiment grid: presets × workloads × seeds sharded over a
 * thread pool (the ssdIQ-style batch driver).
 *
 * A shard is one (device preset, seed) pair. Each shard task builds
 * its own SsdDevice (seeded from the grid coordinates via seedSalt),
 * diagnoses it, then replays every workload of the spec through one
 * SSDcheck instance — exactly the Fig. 11 protocol, so the serial
 * benches and the parallel grid produce bit-identical numbers. Shards
 * share no mutable state; results are merged in deterministic
 * (model, seed, workload) order regardless of job count or completion
 * order.
 *
 * Every run also carries wall-clock accounting (per shard and
 * aggregate) so the perf trajectory of the repo is measured, not
 * guessed: writeBenchGridJson() emits the BENCH_grid.json consumed by
 * the CI perf-smoke gate.
 */
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/accuracy.h"
#include "sim/sim_time.h"
#include "ssd/presets.h"
#include "workload/snia_synth.h"

namespace ssdcheck::obs {
class TelemetryHub;
} // namespace ssdcheck::obs

namespace ssdcheck::perf {

/** What to run: the cross product of models × seeds × workloads. */
struct GridSpec
{
    std::vector<ssd::SsdModel> models;
    std::vector<workload::SniaWorkload> workloads;
    std::vector<uint64_t> seeds{0}; ///< seedSalt per device replica.
    double scale = 0.03;            ///< Trace scale (Fig. 11 uses 3%).
    uint64_t traceSeedBase = 1000;  ///< Trace RNG seed = base + workload.
    /** Virtual-time gap between workloads on one device (Fig. 11). */
    sim::SimDuration interWorkloadGap = sim::milliseconds(100);

    /**
     * Optional live-telemetry hub (not owned): each completing shard
     * publishes a grid-progress snapshot, and the merge step publishes
     * a deterministic final one. Attaching a hub never changes cell
     * results — publishes only copy already-computed counters.
     */
    obs::TelemetryHub *telemetry = nullptr;

    /** Convenience: the full Fig. 11 grid (all models × workloads). */
    static GridSpec fig11(double scale = 0.03);
};

/** Result of one grid cell (one workload on one device replica). */
struct GridCell
{
    ssd::SsdModel model{};
    workload::SniaWorkload workload{};
    uint64_t seed = 0;
    core::AccuracyResult accuracy;
    uint64_t requests = 0;
    sim::SimTime simEnd; ///< Virtual time when the replay finished.
};

/** Wall-clock accounting for one independently-timed unit of work. */
struct TaskTiming
{
    std::string label;
    double wallSeconds = 0;
    uint64_t simulatedIos = 0;

    double iosPerSec() const
    {
        return wallSeconds > 0
                   ? static_cast<double>(simulatedIos) / wallSeconds
                   : 0.0;
    }
};

/** Timing summary of a batch of parallel tasks. */
struct BatchTiming
{
    std::vector<TaskTiming> tasks; ///< In submission (grid) order.
    double wallSeconds = 0;        ///< Whole-batch wall clock.
    unsigned jobs = 1;             ///< Requested job count.
    /** Workers the pool actually ran: at most one per task; reported
     *  in BENCH_grid.json so speedups are reproducible. */
    unsigned workerThreads = 1;

    uint64_t simulatedIos() const;
    double iosPerSec() const;
    /** Sum of per-task wall clocks: the serial-run estimate. */
    double taskWallSum() const;
    /** taskWallSum / wallSeconds: parallel efficiency actually won. */
    double aggregateSpeedup() const;
};

/** Full grid output: cells in deterministic order plus timings. */
struct GridResult
{
    std::vector<GridCell> cells; ///< (model, seed, workload) order.
    BatchTiming timing;          ///< One task per (model, seed) shard.
};

/**
 * Run the grid with @p jobs worker threads. Cell results are
 * bit-identical for every jobs value (shards are fully independent
 * and merged in grid order).
 */
GridResult runGrid(const GridSpec &spec, unsigned jobs);

/**
 * Run @p tasks (label + body returning its simulated-IO count) on a
 * fresh pool of @p jobs threads (at most one per task), timing each
 * task and the batch.
 * The generic engine under runGrid, also used directly by benches
 * whose unit of work is not a preset shard.
 */
BatchTiming runTimedBatch(
    const std::vector<std::pair<std::string, std::function<uint64_t()>>>
        &tasks,
    unsigned jobs);

/**
 * Write the machine-readable benchmark report (BENCH_grid.json).
 * @return false when the file could not be opened.
 */
bool writeBenchGridJson(const std::string &path, const std::string &name,
                        const BatchTiming &timing);

/**
 * Extract "ios_per_sec" from a previously written BENCH_grid.json
 * (top-level aggregate value). Tolerant single-key parser — no JSON
 * dependency in the tree.
 * @return nullopt when the file or key is missing, or the value is not
 *         a finite positive number: a gate floor derived from it would
 *         never fail.
 */
std::optional<double> readBaselineIosPerSec(const std::string &path);

} // namespace ssdcheck::perf

