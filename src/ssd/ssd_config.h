/**
 * @file
 * Configuration of a simulated black-box SSD.
 *
 * Every mechanism the paper identifies is a knob here: allocation/GC
 * volume LBA bit indices, write-buffer size/type/flush algorithms,
 * NAND geometry and timing, GC watermarks, interface costs, latency
 * jitter, and the "secondary feature" noise (SLC-cache migration)
 * that the paper blames for reduced HL accuracy on some devices.
 *
 * The ground truth in this struct is what the diagnosis code in
 * src/core must recover purely from the block interface.
 */
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "blockdev/request.h"
#include "nand/nand_config.h"
#include "sim/sim_time.h"
#include "ssd/fault_injector.h"

namespace ssdcheck::ssd {

/** Paper §III-B3: how the write buffer acknowledges a flushing write. */
enum class BufferType : uint8_t
{
    Back, ///< Double-buffered: writes keep landing while a flush drains.
    Fore, ///< The flush-triggering write is acknowledged after the flush.
};

/** Human-readable name of a BufferType. */
std::string toString(BufferType t);

/** Full configuration of one simulated SSD. */
struct SsdConfig
{
    std::string name = "ssd";

    /** Total user-visible capacity in 4KB pages (across all volumes). */
    uint64_t userCapacityPages = 128 * 1024; // 512 MB

    /**
     * Sector-LBA bit indices selecting the allocation volume
     * (paper Fig. 4 / Fig. 9). Empty means a single volume. The GC
     * volume indices are the same bits (paper §III-B2 note).
     */
    std::vector<uint32_t> volumeBits;

    /** Write buffer capacity per volume, in bytes. */
    uint32_t bufferBytes = 248 * 1024;

    /** Buffer acknowledgement style. */
    BufferType bufferType = BufferType::Back;

    /** True when any read flushes a non-empty buffer (paper §III-B3). */
    bool readTriggerFlush = false;

    /**
     * Requested overprovisioning: physical >= user * (1 + opRatio) per
     * volume. volumeGeometry() rounds the block count up to whole
     * blocks per plane, so the effective ratio is a little higher:
     * A 0.2812 (for 0.28), B 0.2656 (0.26), C 0.1641 (0.16),
     * D 0.3125 (0.30), E 0.3125 (0.30), F 0.2422 (0.24) and
     * G 0.2266 (0.22).
     */
    double opRatio = 0.28;

    /** NAND timing constants. */
    nand::NandTiming nandTiming;

    /** Planes per volume (parallelism of flush/GC batches). */
    uint32_t planesPerVolume = 32;

    /** Pages per NAND block. */
    uint32_t pagesPerBlock = 64;

    /** Host-interface occupancy per request (serializes all I/O). */
    sim::SimDuration busTime = sim::microseconds(3);

    /** FTL front-end processing per write (per-volume serialization). */
    sim::SimDuration writeCpuTime = sim::microseconds(18);

    /** Extra latency from admit to write acknowledgement. */
    sim::SimDuration writeAckTime = sim::microseconds(30);

    /** Read path overhead on top of the NAND read. */
    sim::SimDuration readOverheadTime = sim::microseconds(25);

    /** Latency of a read served from the write buffer. */
    sim::SimDuration bufferReadTime = sim::microseconds(20);

    /** Fixed controller overhead added to every buffer flush. */
    sim::SimDuration flushOverheadTime = sim::microseconds(150);

    /** Concurrent read ways per volume (read pipeline throughput). */
    uint32_t readParallelism = 8;

    /** GC trigger: run when free blocks fall below this. */
    uint32_t gcLowBlocks = 6;

    /** GC target: reclaim until at least this many blocks are free. */
    uint32_t gcHighBlocks = 10;

    /**
     * Static wear-leveling threshold: relocate cold blocks once the
     * erase-count spread exceeds this (0 disables; the paper's
     * prototype FTL levels wear this way).
     */
    uint32_t wearLevelThreshold = 0;

    /**
     * Read-disturb refresh limit: relocate a block once it served
     * this many reads since its last erase (0 disables; §III-A lists
     * read disturbance among the prototype FTL's reliability
     * functions).
     */
    uint32_t readDisturbLimit = 0;

    /** Lognormal sigma applied to each latency (0 = deterministic). */
    double jitterSigma = 0.06;

    /** Probability of a random unmodeled stall per request. */
    double hiccupProbability = 0.0;

    /** Uniform range of the unmodeled stall. */
    sim::SimDuration hiccupMin = sim::microseconds(400);
    sim::SimDuration hiccupMax = sim::microseconds(2500);

    /**
     * Secondary feature (paper §VI): SLC cache. Flushes program fast
     * SLC pages; once roughly slcCapacityPages accumulate, a long
     * SLC→MLC migration blocks the volume at a point the runtime
     * model cannot see.
     */
    bool slcCache = false;
    uint32_t slcCapacityPages = 2048;
    double slcCapacityVariation = 0.3; ///< Uniform +-30% per cycle.
    /** Pages moved per migration event (the rest migrates lazily in
     *  background and is not charged as blocking time). */
    uint32_t slcMigrateChunkPages = 192;

    /**
     * Fig. 3 prototype switches: when false, the corresponding
     * mechanism still runs functionally (data still moves, blocks are
     * still reclaimed) but contributes zero virtual-time cost —
     * isolating its performance impact exactly as the paper's
     * SSD_Others / SSD_WB+Others / SSD_GC+Others variants do.
     */
    bool wbFlushCostEnabled = true;
    bool gcCostEnabled = true;

    /**
     * Fig. 3 SSD_Optimal: acknowledge every request immediately with
     * only the minimal interface cost and no internal operations.
     */
    bool optimalMode = false;

    /**
     * Fault injection: rates of media errors, bad-block growth,
     * command stalls and firmware drift. Inert by default, so every
     * existing experiment runs on a healthy device.
     */
    FaultProfile faults;

    /** Seed for all of this device's randomness. */
    uint64_t seed = 1;

    // ---- Derived helpers -------------------------------------------------

    /** Number of allocation (== GC) volumes. */
    uint32_t numVolumes() const { return 1u << volumeBits.size(); }

    /** Write-buffer capacity in pages. */
    uint32_t bufferPages() const
    {
        return bufferBytes / blockdev::kPageSize;
    }

    /** User pages per volume. */
    uint64_t userPagesPerVolume() const
    {
        return userCapacityPages / numVolumes();
    }

    /** User capacity in sectors. */
    uint64_t capacitySectors() const
    {
        return userCapacityPages * blockdev::kSectorsPerPage;
    }

    /** Volume index of a sector LBA (concatenated volume bits). */
    uint32_t volumeOf(uint64_t lba) const;

    /**
     * Volume-local logical page number of a sector LBA: the page
     * index with the volume-selecting bits squeezed out.
     */
    uint64_t localLpn(uint64_t lba) const;

    /** Physical pages per volume (user + overprovisioning). */
    uint64_t physPagesPerVolume() const;

    /** NAND geometry of one volume's array. */
    nand::NandGeometry volumeGeometry() const;

    /**
     * Validate internal consistency (volume bits page-aligned and in
     * range, capacities divisible, watermarks sane...).
     * @return empty string when valid, else a description.
     */
    std::string validate() const;
};

/**
 * Precomputed LBA→(volume, local LPN) router for the submit hot path.
 *
 * SsdConfig::volumeOf/localLpn recompute the squeeze-bit order from
 * the raw volumeBits vector on every call; this snapshot does that
 * work once at device construction (volume bits never drift) and
 * serves every request from two small fixed arrays.
 */
class LbaRouter
{
  public:
    LbaRouter() = default;

    explicit LbaRouter(const SsdConfig &cfg)
    {
        n_ = static_cast<uint32_t>(cfg.volumeBits.size());
        for (uint32_t i = 0; i < n_ && i < kMaxBits; ++i) {
            volBits_[i] = cfg.volumeBits[i];
            // Sector bit -> page bit (4KB = 2^3 sectors).
            pageBitsDesc_[i] = cfg.volumeBits[i] - 3;
        }
        // Squeeze highest page bit first so lower positions stay valid.
        for (uint32_t i = 1; i < n_; ++i) {
            const uint32_t b = pageBitsDesc_[i];
            uint32_t j = i;
            for (; j > 0 && pageBitsDesc_[j - 1] < b; --j)
                pageBitsDesc_[j] = pageBitsDesc_[j - 1];
            pageBitsDesc_[j] = b;
        }
    }

    /** Volume index of a sector LBA (concatenated volume bits). */
    uint32_t volumeOf(uint64_t lba) const
    {
        uint32_t v = 0;
        for (uint32_t i = 0; i < n_; ++i)
            v |= static_cast<uint32_t>((lba >> volBits_[i]) & 1ULL) << i;
        return v;
    }

    /** Volume-local logical page number of a sector LBA. */
    uint64_t localLpn(uint64_t lba) const
    {
        uint64_t page = lba / blockdev::kSectorsPerPage;
        for (uint32_t i = 0; i < n_; ++i) {
            const uint32_t pb = pageBitsDesc_[i];
            const uint64_t low = page & ((1ULL << pb) - 1);
            const uint64_t high = page >> (pb + 1);
            page = (high << pb) | low;
        }
        return page;
    }

  private:
    static constexpr uint32_t kMaxBits = 16;
    uint32_t n_ = 0;
    uint32_t volBits_[kMaxBits] = {};
    uint32_t pageBitsDesc_[kMaxBits] = {}; ///< Page bits, descending.
};

} // namespace ssdcheck::ssd

