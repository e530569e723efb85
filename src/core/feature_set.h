/**
 * @file
 * Device-specific features extracted by the diagnosis snippets
 * (paper Table I): internal volume layout and write-buffer
 * size/type/flush algorithms. The runtime performance model is
 * configured from a FeatureSet, never from the simulator's ground
 * truth.
 */
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace ssdcheck::recovery {
class StateWriter;
class StateReader;
} // namespace ssdcheck::recovery

namespace ssdcheck::core {

/** Write-buffer acknowledgement style, as diagnosed (§III-B3). */
enum class BufferTypeFeature : uint8_t { Unknown, Back, Fore };

/** "back" / "fore" / "unknown". */
std::string toString(BufferTypeFeature t);

/** Buffer flush algorithms, as diagnosed. */
struct FlushAlgorithms
{
    bool fullTrigger = false; ///< Flush when the buffer fills.
    bool readTrigger = false; ///< Any read flushes a non-empty buffer.
};

/** Everything SSDcheck learned about a device before runtime. */
struct FeatureSet
{
    /** Sector-LBA bits selecting the allocation volume (sorted). */
    std::vector<uint32_t> allocationVolumeBits;

    /** Sector-LBA bits selecting the GC volume (sorted). */
    std::vector<uint32_t> gcVolumeBits;

    /** Diagnosed write-buffer capacity in bytes (0 = not found). */
    uint64_t bufferBytes = 0;

    BufferTypeFeature bufferType = BufferTypeFeature::Unknown;

    FlushAlgorithms flushAlgorithms;

    /**
     * Mean latency of a flush-blocked request observed during
     * diagnosis — seeds the calibrator's flush-overhead estimate.
     */
    int64_t observedFlushOverheadNs = 0;

    /** True when the buffer analysis succeeded. */
    bool bufferModelUsable() const { return bufferBytes > 0; }

    /**
     * Union of the allocation and GC volume bits, sorted and
     * deduplicated: the two volume indices coincide (§III-B2), so the
     * buffer analysis, the model and the probes key volumes on it.
     */
    std::vector<uint32_t> volumeBits() const;

    /** Number of allocation volumes implied by the bits. */
    uint32_t numVolumes() const
    {
        return 1u << allocationVolumeBits.size();
    }

    /** Diagnosed buffer capacity in 4KB pages. */
    uint32_t bufferPages() const
    {
        return static_cast<uint32_t>(bufferBytes / 4096);
    }

    /** One-line summary, Table I style. */
    std::string summary() const;
};

/**
 * Volume index selected by @p bits for sector address @p lba
 * (concatenation of the addressed bit values, LSB first).
 */
uint32_t volumeIndexOf(const std::vector<uint32_t> &bits, uint64_t lba);

/**
 * Serialize a FeatureSet. Features must travel in snapshots: after a
 * supervisor hot-swap they are no longer derivable from the original
 * diagnosis, so a resumed run restores them rather than re-diagnosing.
 */
void saveState(const FeatureSet &fs, recovery::StateWriter &w);

/** Restore a FeatureSet saved by saveState(). @return reader still ok. */
bool loadState(FeatureSet &fs, recovery::StateReader &r);

} // namespace ssdcheck::core

