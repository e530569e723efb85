/**
 * @file
 * A multi-channel array of NAND chips with flat physical addressing.
 *
 * The FTL (ssd/page_mapper, ssd/garbage_collector) addresses pages by
 * flat Ppn. State is kept structure-of-arrays over the *flat* address
 * space — one write-pointer / erase-count / read-count word per flat
 * block and one payload stamp per flat page — because the flat Ppn
 * encoding is plane-major and planes map to chips in contiguous
 * ranges, so no per-operation chip routing (divide by planes-per-chip)
 * is needed at all. The physical rules of NAND — erase-before-write
 * (a page is programmed once per erase cycle), sequential in-block
 * programming, whole-block erase, no read of an unprogrammed page —
 * are asserted directly on the flat state.
 *
 * The array also provides the batch-timing model: operations spread
 * over N planes proceed in parallel, so a batch of k page programs
 * costs ceil(k / totalPlanes) * tProg (paper §III-A: buffered writes
 * are distributed to all chips in channels in parallel).
 */
#pragma once

#include <cassert>
#include <cstdint>
#include <vector>

#include "nand/nand_config.h"

namespace ssdcheck::recovery {
class StateWriter;
class StateReader;
} // namespace ssdcheck::recovery

namespace ssdcheck::nand {

/** Sentinel payload of a never-programmed (erased) page. */
inline constexpr uint64_t kErasedPayload = ~0ULL;

/** Flat structure-of-arrays NAND state addressed by Ppn/Pbn. */
class NandArray
{
  public:
    NandArray(const NandGeometry &geo, const NandTiming &timing);

    /** Program one page (must follow the block's write pointer). */
    sim::SimDuration programPage(Ppn ppn, uint64_t payload)
    {
        const uint64_t p = ppn.value();
        assert(p < totalPages_);
        const uint64_t pbn = p / ppb_;
        const uint32_t page = static_cast<uint32_t>(p - pbn * ppb_);
        assert(page == writePtr_[pbn] &&
               "NAND requires sequential in-block writes");
        assert(page < ppb_ && "block is full");
        (void)page;
        payloads_[p] = payload;
        ++writePtr_[pbn];
        return timing_.programLatency;
    }

    /** Read one programmed page (counts read-disturb exposure). */
    sim::SimDuration readPage(Ppn ppn, uint64_t *payloadOut = nullptr)
    {
        const uint64_t p = ppn.value();
        assert(p < totalPages_);
        const uint64_t pbn = p / ppb_;
        assert(p - pbn * ppb_ < writePtr_[pbn] &&
               "reading an unprogrammed page");
        ++readCount_[pbn];
        if (payloadOut != nullptr)
            *payloadOut = payloads_[p];
        return timing_.readLatency;
    }

    /** Erase the block containing flat block number @p pbn. */
    sim::SimDuration eraseBlock(Pbn pbn)
    {
        const uint64_t b = pbn.value();
        assert(b < totalBlocks_);
        writePtr_[b] = 0;
        readCount_[b] = 0;
        ++eraseCount_[b];
        const size_t base = static_cast<size_t>(b) * ppb_;
        for (uint32_t p = 0; p < ppb_; ++p)
            payloads_[base + p] = kErasedPayload;
        return timing_.eraseLatency;
    }

    /** Write pointer (pages programmed) of flat block @p pbn. */
    uint32_t blockWritePointer(Pbn pbn) const
    {
        assert(pbn.value() < totalBlocks_);
        return writePtr_[pbn.value()];
    }

    /** Erase count of flat block @p pbn. */
    uint32_t blockEraseCount(Pbn pbn) const
    {
        assert(pbn.value() < totalBlocks_);
        return eraseCount_[pbn.value()];
    }

    /** Reads served from flat block @p pbn since its last erase. */
    uint32_t blockReadCount(Pbn pbn) const
    {
        assert(pbn.value() < totalBlocks_);
        return readCount_[pbn.value()];
    }

    /** True if @p ppn currently holds data. */
    bool isProgrammed(Ppn ppn) const
    {
        const uint64_t p = ppn.value();
        assert(p < totalPages_);
        const uint64_t pbn = p / ppb_;
        return p - pbn * ppb_ < writePtr_[pbn];
    }

    /**
     * Virtual-time cost of programming @p pages pages striped across
     * all planes: ceil(pages / totalPlanes) * tProg.
     */
    sim::SimDuration batchProgramTime(uint64_t pages, bool slc = false) const;

    /** Virtual-time cost of reading @p pages pages striped in parallel. */
    sim::SimDuration batchReadTime(uint64_t pages) const;

    const NandGeometry &geometry() const { return geo_; }
    const NandTiming &timing() const { return timing_; }

    /** Total pages in the array. */
    uint64_t totalPages() const { return totalPages_; }

    /** Total blocks in the array. */
    uint64_t totalBlocks() const { return totalBlocks_; }

    /** Pages per block (cached geometry, hot-path divisor). */
    uint32_t pagesPerBlock() const { return ppb_; }

    /** Serialize the flat block state and page payloads. */
    void saveState(recovery::StateWriter &w) const;

    /** Restore state saved by saveState() (geometry must match). */
    bool loadState(recovery::StateReader &r);

  private:
    NandGeometry geo_; // snapshot:skip(construction-time geometry; restore constructs an identical array before loadState)
    NandTiming timing_; // snapshot:skip(construction-time timing model; restore constructs an identical array before loadState)
    // Cached geometry products so hot operations never chase the
    // multi-field geometry struct.
    uint32_t ppb_ = 0; // snapshot:skip(derived from the geometry in the constructor)
    uint32_t totalPlanes_ = 0; // snapshot:skip(derived from the geometry in the constructor)
    uint64_t totalBlocks_ = 0;
    uint64_t totalPages_ = 0; // snapshot:skip(derived from the geometry in the constructor)
    // Structure-of-arrays block state: indexed by flat Pbn.
    std::vector<uint32_t> writePtr_;   ///< Next page to program.
    std::vector<uint32_t> eraseCount_; ///< Erase cycles (wear).
    std::vector<uint32_t> readCount_;  ///< Reads since the last erase.
    std::vector<uint64_t> payloads_;   ///< One stamp per flat Ppn.
};

} // namespace ssdcheck::nand
