/**
 * @file
 * Experiment runners: the host-side replay engines every evaluation
 * uses.
 *
 *  - runClosedLoop: one stream at a fixed queue depth with optional
 *    thinktime (fio-style); used by the motivation and Fig. 3 benches.
 *  - runTenantsClosedLoop: several QD1 streams interleaved in global
 *    time order on (views of) one device; the multi-tenant VA-LVM
 *    experiments (Fig. 12).
 *  - runScheduled: open-loop arrival-timed replay through a Scheduler
 *    with QD1 dispatch; the PAS experiments (Figs. 13-14). Requests
 *    run through the Shard's per-request body (replayRequest), so a
 *    supplied SsdCheck stays in sync and PAS stays calibrated.
 *
 * Queue depth and dispatch width are one blockdev::InflightWindow.
 */
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "blockdev/block_device.h"
#include "core/ssdcheck.h"
#include "stats/latency_recorder.h"
#include "stats/timeline.h"
#include "usecases/scheduler.h"
#include "workload/trace.h"

namespace ssdcheck::usecases {

/** Results of one replayed stream. */
struct StreamResult
{
    std::string name;
    stats::LatencyRecorder latency;      ///< All requests.
    stats::LatencyRecorder readLatency;  ///< Reads only.
    stats::LatencyRecorder writeLatency; ///< Writes only.
    stats::Timeline timeline{sim::milliseconds(100)};
    sim::SimTime startTime;
    sim::SimTime endTime;
    uint64_t requests = 0;
    uint64_t bytes = 0;
    // Error accounting lives on the resilient path / registry
    // (ResilienceCounters, obs::Registry) — the replay engines no
    // longer keep a second tally.

    /** Mean throughput over the stream's lifetime in MB/s. */
    double throughputMbps() const;
};

/** Closed-loop replay of one trace at a queue depth. */
StreamResult runClosedLoop(blockdev::BlockDevice &dev,
                           const workload::Trace &trace, uint32_t queueDepth,
                           sim::SimDuration thinktime, sim::SimTime start);

/** One tenant of a multi-tenant run. */
struct TenantSpec
{
    const workload::Trace *trace = nullptr;
    blockdev::BlockDevice *dev = nullptr; ///< Usually a LogicalVolume.
    sim::SimDuration thinktime = 0;
    std::string name;
    /**
     * Cycle the trace until every non-looping tenant finishes —
     * keeps background interference running for the whole measurement
     * (the multi-tenant experiments need sustained colocation).
     */
    bool loop = false;
};

/**
 * Interleave several QD1 tenants in global time order. Each
 * non-looping tenant stops after its trace is exhausted; the run ends
 * when all of those do (at least one tenant must not loop).
 */
std::vector<StreamResult> runTenantsClosedLoop(
    const std::vector<TenantSpec> &tenants, sim::SimTime start);

/** Results of one open-loop scheduled run. */
struct ScheduledRunResult
{
    std::string schedulerName;
    StreamResult stream;
    uint64_t maxQueueDepth = 0;

    /** Latency here is completion - arrival (includes queueing). */
};

/**
 * Open-loop replay: requests arrive per trace arrival times, wait in
 * @p sched, and dispatch as device slots free up.
 * @param check optional SSDcheck kept in sync with the issued stream.
 * @param dispatchWidth requests kept in flight at the device (the
 *        dispatcher's queue depth; 1 reproduces the paper setup).
 */
ScheduledRunResult runScheduled(blockdev::BlockDevice &dev, Scheduler &sched,
                                const workload::Trace &trace,
                                sim::SimTime start,
                                core::SsdCheck *check = nullptr,
                                uint32_t dispatchWidth = 1);

} // namespace ssdcheck::usecases

