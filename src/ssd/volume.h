/**
 * @file
 * One internal allocation/GC volume of the simulated SSD.
 *
 * A volume bundles a write buffer, a NAND array, the page-level FTL
 * and a garbage collector, and drives their interactions through
 * virtual-time gates:
 *
 *  - writeGate_: FTL front-end serialization of writes;
 *  - nandBusyUntil_: the array is occupied by a flush, SLC migration
 *    or GC until this time — reads submitted earlier are blocked
 *    (these become the paper's HL reads), and a flush triggered
 *    earlier backpressures its write (HL write);
 *  - readGate_: read-pipeline service rate (parallel chips).
 *
 * submit() calls must carry nondecreasing start times (the device
 * enforces this via its bus gate).
 */
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "nand/nand_array.h"
#include "obs/sink.h"
#include "sim/rng.h"
#include "sim/sim_time.h"
#include "ssd/fault_injector.h"
#include "ssd/garbage_collector.h"
#include "ssd/page_mapper.h"
#include "ssd/ssd_config.h"
#include "ssd/write_buffer.h"

namespace ssdcheck::recovery {
class StateWriter;
class StateReader;
} // namespace ssdcheck::recovery

namespace ssdcheck::ssd {

/** Ground-truth cause annotations for one request (introspection). */
struct IoDetail
{
    uint32_t volume = 0;
    bool triggeredFlush = false;  ///< This write filled the buffer.
    bool backpressured = false;   ///< Write waited for a prior flush/GC.
    bool blockedByBusy = false;   ///< Read waited for flush/migration/GC.
    bool readTriggeredFlush = false; ///< Read-trigger flush fired.
    bool gcRan = false;           ///< A GC invocation ran on this request.
    bool slcMigration = false;    ///< An SLC->MLC migration ran.
    bool bufferHit = false;       ///< Read served from the write buffer.
    bool hiccup = false;          ///< Unmodeled random stall injected.
    uint32_t readRetries = 0;     ///< In-device read-retry attempts.
    bool mediaError = false;      ///< Completed as an uncorrectable read.
    bool programFailure = false;  ///< A flush hit a program failure.
    bool stalled = false;         ///< Injected command stall.
    sim::SimDuration flushTime = 0; ///< Flush busy time charged.
    // (durations, not points: they accumulate across the request)
    sim::SimDuration gcTime = 0;    ///< GC busy time charged.
    sim::SimDuration waitTime = 0;  ///< Time spent waiting on busy NAND.

    /** Paper Fig. 3c operation classes. */
    enum class Cause : uint8_t { Others, WriteBuffer, GarbageCollection };

    /** Dominant cause class of this request. */
    Cause cause() const
    {
        if (gcRan)
            return Cause::GarbageCollection;
        if (triggeredFlush || backpressured || blockedByBusy ||
            readTriggeredFlush)
            return Cause::WriteBuffer;
        return Cause::Others;
    }
};

/** Cumulative per-volume counters (introspection / tests). */
struct VolumeCounters
{
    uint64_t writes = 0;
    uint64_t reads = 0;
    uint64_t flushes = 0;
    uint64_t backpressureStalls = 0;
    uint64_t gcInvocations = 0;
    uint64_t gcBlocksErased = 0;
    uint64_t gcPagesMoved = 0;
    uint64_t slcMigrations = 0;
    uint64_t bufferHits = 0;
    uint64_t wearLevelMoves = 0;
    uint64_t readRefreshMoves = 0;
    uint64_t retiredBlocks = 0; ///< Grown bad blocks in this volume.
};

/** One allocation/GC volume with its own buffer, FTL, NAND and GC. */
class Volume
{
  public:
    /**
     * @param cfg the owning device's configuration.
     * @param volumeIndex which volume this is (for annotations).
     * @param rng independent random stream for this volume's jitter.
     * @param faults the device's fault injector; null = healthy device.
     */
    Volume(const SsdConfig &cfg, uint32_t volumeIndex, sim::Rng rng,
           FaultInjector *faults = nullptr);

    Volume(const Volume &) = delete;
    Volume &operator=(const Volume &) = delete;

    /**
     * Serve a page write submitted at @p start.
     * @return completion time; @p detail (optional) gets annotations.
     */
    sim::SimTime serveWrite(sim::SimTime start, Lpn lpn, uint64_t payload,
                            IoDetail *detail);

    /**
     * Serve a page read submitted at @p start.
     * @param payloadOut receives the page stamp when mapped (optional).
     */
    sim::SimTime serveRead(sim::SimTime start, Lpn lpn,
                           uint64_t *payloadOut, IoDetail *detail);

    /** Drop buffer and mappings; reset all gates (device purge). */
    void reset();

    /**
     * Instantly (zero virtual time) write every logical page once —
     * the SNIA-style precondition step, without simulating hours of
     * fill traffic. Stamps pages with @p stampBase + lpn.
     */
    void prefill(uint64_t stampBase);

    /** FTL state, for integrity checks in tests. */
    const PageMapper &mapper() const { return mapper_; }

    /** Read the latest value of logical page (buffer-aware). */
    bool peek(Lpn lpn, uint64_t *payload) const;

    const VolumeCounters &counters() const { return counters_; }

    /** Time the NAND array is busy until (flush/migration/GC). */
    sim::SimTime nandBusyUntil() const { return nandBusyUntil_; }

    /** Pages currently sitting in the write buffer. */
    uint32_t bufferFill() const { return buffer_.fill(); }

    /** Current write-buffer capacity in pages (drift may change it). */
    uint32_t bufferCapacity() const { return buffer_.capacity(); }

    /** Apply a firmware-drift change of the buffer capacity. */
    void setBufferCapacity(uint32_t pages) { buffer_.setCapacity(pages); }

    /**
     * Attach observability targets (cold path, before the run): the
     * volume emits wb/gc/slc/nand trace events on the device track for
     * this volume index and exports its counters onto the registry
     * under {device=@p device, volume=<index>} labels.
     */
    void attachObservability(const obs::Sink &sink,
                             const std::string &device);

    /**
     * Serialize the volume's dynamic state: random stream, NAND
     * content, FTL maps, write buffer, GC progress, virtual-time
     * gates, SLC-cache cursor and counters.
     */
    void saveState(recovery::StateWriter &w) const;

    /** Restore state saved by saveState() (same configuration). */
    bool loadState(recovery::StateReader &r);

  private:
    /** Why flush() fired (trace annotation, paper §III-B3). */
    enum class FlushReason : uint8_t { Full, ReadTrigger };


    /**
     * Drain the buffer into NAND starting no earlier than @p at.
     * Updates nandBusyUntil_ and runs SLC migration / GC as needed.
     * @return time the triggering request waited for a free buffer
     *         (backpressure stall; 0 when none).
     */
    sim::SimDuration flush(sim::SimTime at, IoDetail *detail,
                           FlushReason reason);

    /** Apply lognormal jitter to a service-time component. */
    sim::SimDuration jitter(sim::SimDuration d);

    const SsdConfig &cfg_; // snapshot:skip(construction-time config; restore constructs an identical volume before loadState)
    uint32_t volumeIndex_; // snapshot:skip(construction-time identity; restore constructs volumes in the same order)
    sim::Rng rng_;
    FaultInjector *faults_; // snapshot:skip(non-owning pointer to the device-level injector, whose state the device serializes)

    // Direct members (declaration order is construction order: the
    // mapper and collector hold references into nand_/mapper_), so the
    // hot submit path needs no pointer chase per component.
    nand::NandArray nand_;
    PageMapper mapper_;
    GarbageCollector gc_;
    WriteBuffer buffer_;

    sim::SimTime writeGate_;
    sim::SimTime nandBusyUntil_;
    sim::SimTime readGate_;
    /** True while the current NAND busy window includes a GC run, so
     *  requests stalled by it are attributed to GC (Fig. 3c/3d). */
    bool busyIncludesGc_ = false;

    // SLC-cache secondary feature state.
    uint64_t slcUsedPages_ = 0;
    uint64_t slcCycleCapacity_ = 0;

    VolumeCounters counters_;

    // Observability (null/unused until attachObservability()).
    obs::TraceRecorder *trace_ = nullptr; // snapshot:skip(non-owning observability hook, re-attached after restore)
    obs::TraceTrack track_{obs::kDevicePid, 0}; // snapshot:skip(non-owning observability hook, re-attached after restore)
    std::vector<GcVictim> victimScratch_; ///< Reused across GC runs. // snapshot:skip(transient scratch, cleared before each use)
};

} // namespace ssdcheck::ssd

