/**
 * @file
 * Diagnosis code snippets (paper §III-B): extract a black-box SSD's
 * internal features purely through the block interface.
 *
 *  - Allocation volumes (Fig. 4): random-write throughput with one
 *    sector-address bit pinned; a throughput drop marks a volume bit.
 *  - GC volumes (Fig. 5): GC-interval distributions of the Fixed
 *    pattern vs Flip_x patterns compared with a chi-squared test; a
 *    near-zero p-value marks a GC-volume bit.
 *  - Write buffer (Fig. 6, Algorithm 1): background_read_test,
 *    read_trigger_flush_test and write_only_test recover the buffer
 *    size, type (back/fore) and flush algorithms.
 *
 * Everything here sees only blockdev::BlockDevice — no simulator
 * internals — so the same logic would drive a real device.
 */
#pragma once

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "blockdev/block_device.h"
#include "core/feature_set.h"
#include "sim/rng.h"
#include "sim/sim_time.h"

namespace ssdcheck::core {

/** Tunables of the diagnosis snippets. */
struct DiagnosisConfig
{
    /** NL/HL latency threshold (paper Table III: 250us). */
    sim::SimDuration hlLatencyThreshold = sim::microseconds(250);

    /** Latency above which an event is attributed to GC (§III-B2 fn2). */
    sim::SimDuration gcLatencyThreshold = sim::milliseconds(3);

    // Allocation-volume scan.
    uint32_t allocScanRequests = 16000;
    uint32_t allocScanQueueDepth = 32;
    /** Throughput ratio (vs baseline) below which a bit is a volume bit. */
    double allocDropRatio = 0.75;

    // GC-volume scan.
    uint32_t gcEventsPerRun = 240;
    uint64_t gcScanMaxWrites = 400000;
    double gcPValueThreshold = 0.001;

    // Write-buffer analysis.
    std::vector<sim::SimDuration> thinktimes = {sim::microseconds(500),
                                                sim::microseconds(1000),
                                                sim::microseconds(5000)};
    uint32_t wbTestWrites = 3000;
    sim::SimDuration readGap = sim::microseconds(80);
    uint32_t readTriggerRounds = 250;
    /** Buffer sizes below this many pages are treated as "not found". */
    uint32_t minBufferPages = 4;

    /** Highest sector-LBA bit to scan; 0 derives it from capacity. */
    uint32_t maxBit = 0;

    /** Purge + precondition the device before scanning. */
    bool precondition = true;

    uint64_t seed = 99;
};

/** Fig. 4 artifact: throughput per pinned bit. */
struct AllocVolumeScan
{
    double baselineMbps = 0.0;
    std::vector<std::pair<uint32_t, double>> perBitMbps;
    std::vector<uint32_t> volumeBits;
};

/** Fig. 5 artifact: GC intervals and chi-squared p-values per bit. */
struct GcVolumeScan
{
    std::vector<uint32_t> fixedIntervals;
    std::map<uint32_t, std::vector<uint32_t>> flipIntervals;
    std::vector<std::pair<uint32_t, double>> perBitPValue;
    std::vector<uint32_t> gcVolumeBits;
};

/**
 * Flush-period estimate recovered from a train of flush-boundary
 * events positioned on a write counter (Algorithm 1's size analysis).
 */
struct FlushPeriodEstimate
{
    uint32_t pages = 0; ///< 0 when no consistent period was found.
    sim::SimDuration meanSpikeLatency = 0;
};

/**
 * Median-based period estimate from flush-event positions. Shared by
 * the offline write-buffer snippets and the health supervisor's
 * online re-diagnosis.
 * @param eventWriteCounts write counter at each flush-boundary event
 *        (strictly increasing).
 * @param eventLatencies blocked-request latency of each event.
 * @param minPages periods below this are treated as "not found".
 */
FlushPeriodEstimate estimateFlushPeriod(
    const std::vector<uint64_t> &eventWriteCounts,
    const std::vector<sim::SimDuration> &eventLatencies,
    uint32_t minPages);

/**
 * Random page-aligned LBA of @p dev inside volume 0 of @p volumeBits,
 * drawn from @p rng. Shared by the write-buffer snippets and the
 * health supervisor's probes.
 * @param upperHalf the reader region (sector bit 13 set) rather than
 *        the writer region (clear).
 */
uint64_t randomVolume0Lba(const blockdev::BlockDevice &dev, sim::Rng &rng,
                          const std::vector<uint32_t> &volumeBits,
                          bool upperHalf);

/** Fig. 6 / Algorithm 1 artifact. */
struct WbAnalysis
{
    uint64_t bufferBytes = 0;
    BufferTypeFeature bufferType = BufferTypeFeature::Unknown;
    FlushAlgorithms flushAlgorithms;
    /** (writes issued so far, read latency) series for Fig. 6. */
    std::vector<std::pair<uint64_t, sim::SimDuration>> readLatencySeries;
    sim::SimDuration meanSpikeLatency = 0;
};

/** Runs the diagnosis snippets against one device. */
class DiagnosisRunner
{
  public:
    /**
     * @param dev the device under test (state will be purged and
     *        preconditioned when cfg.precondition is set).
     * @param cfg snippet tunables.
     * @param startTime virtual time to begin at (submissions to the
     *        device must stay monotone across its whole life).
     */
    DiagnosisRunner(blockdev::BlockDevice &dev, DiagnosisConfig cfg,
                    sim::SimTime startTime = sim::kTimeZero);

    /** Purge + sequential fill + random churn (SNIA-style). */
    void precondition();

    /** Purge then write every page once sequentially (no churn). */
    void sequentialFill();

    /** §III-B1: find the allocation-volume bit indices. */
    AllocVolumeScan scanAllocationVolumes();

    /** §III-B2: find the GC-volume bit indices. */
    GcVolumeScan scanGcVolumes();

    /** §III-B3 / Algorithm 1: write-buffer size, type, flush algos. */
    WbAnalysis analyzeWriteBuffer(const std::vector<uint32_t> &volumeBits);

    /** Full pipeline: volumes first, then buffer (paper ordering). */
    FeatureSet extractFeatures();

    /** Virtual time consumed so far. */
    sim::SimTime now() const { return now_; }

  private:
    // -- small closed-loop drivers ---------------------------------------
    /** QD1 write stream; returns the number of writes between
     *  successive GC events. */
    std::vector<uint32_t> collectGcIntervals(uint64_t lbaA, int flipBit);

    // -- Algorithm 1 sub-tests --------------------------------------------
    using SizeEstimate = FlushPeriodEstimate;

    SizeEstimate backgroundReadTest(
        sim::SimDuration thinktime,
        const std::vector<uint32_t> &volumeBits,
        std::vector<std::pair<uint64_t, sim::SimDuration>> *series);

    bool readTriggerFlushTest(const std::vector<uint32_t> &volumeBits);

    SizeEstimate writeOnlyTest(const std::vector<uint32_t> &volumeBits);

    uint32_t highestScanBit() const;

    blockdev::BlockDevice &dev_;
    DiagnosisConfig cfg_;
    sim::Rng rng_;
    sim::SimTime now_;
};

} // namespace ssdcheck::core

