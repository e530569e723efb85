/**
 * @file
 * Experiment runners: the host-side replay engines every evaluation
 * uses.
 *
 *  - runClosedLoop: one or more closed-loop streams, each at its own
 *    queue depth and thinktime (fio-style), interleaved in global time
 *    order on (views of) one device. One stream drives the motivation,
 *    Fig. 3 and Hybrid PAS runs (Figs. 1, 3 and 15) and `ssdcheck
 *    replay`; colocated tenants drive VA-LVM (Fig. 12).
 *  - runScheduled: open-loop arrival-timed replay through a Scheduler
 *    at a dispatch width (1 in the paper's setup); the PAS
 *    experiments (Figs. 13-14). Requests run through the Shard's
 *    per-request body (replayRequest), so a supplied SsdCheck stays
 *    in sync, PAS stays calibrated and SsdCheck::accuracy() scores
 *    every completion.
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

/** One closed-loop stream of a runClosedLoop() run. */
struct Stream
{
    const workload::Trace *trace = nullptr;
    blockdev::BlockDevice *dev = nullptr; ///< Often a LogicalVolume.
    /** Host delay between a completion and the request it frees. */
    sim::SimDuration thinktime = 0;
    std::string name{}; ///< Empty: the trace's name.
    /**
     * Cycle the trace until every non-looping stream finishes —
     * keeps background interference running for the whole measurement
     * (the multi-tenant experiments need sustained colocation).
     */
    bool loop = false;
    uint32_t queueDepth = 1; ///< Requests the stream keeps in flight.
};

/**
 * Closed-loop replay of @p streams in global time order. Each stream
 * steps its own clock through its own queue-depth window; the stream
 * whose window admits earliest issues next, ties to the lower index.
 * Each non-looping stream stops after its trace is exhausted; the run
 * ends when all of those do (at least one stream must not loop).
 * @return one result per stream, in order.
 */
std::vector<StreamResult> runClosedLoop(const std::vector<Stream> &streams,
                                        sim::SimTime start);

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

