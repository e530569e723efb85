/**
 * @file
 * Page-level flash translation layer for one volume (paper §II-A).
 *
 * Maintains the LPN→PPN map, its inverse (needed by GC merges), block
 * validity accounting, the free-block pool, and the two open blocks
 * (host writes, GC relocation). All NAND state transitions go through
 * the NandArray so the chip-level invariants (erase-before-write,
 * sequential in-block programming) are enforced at the source.
 *
 * Addresses are strong types (core::Lpn, nand::Ppn, nand::Pbn): the
 * translation layer is exactly where the logical and physical address
 * domains meet, and the typed signatures make a crossed-up argument a
 * compile error instead of a silent corruption.
 *
 * GC victim selection is incremental and exact: closed blocks are
 * bucketed by valid-page count, one block bitmap per count plus a
 * summary level (one bit per nonzero bitmap word) and one bit per
 * nonempty bucket. Block close sets a bit, page invalidate moves it
 * one bucket down, collect and trim clear it, so every bit is live and
 * pickVictimGreedy() is three count-trailing-zero steps: lowest
 * nonempty bucket, its first nonzero word, that word's lowest bit.
 * Candidacy is decided once, at block-close time (when the FTL moves
 * its open-block pointer past a fully programmed block) — open and
 * partially-written blocks are never in the buckets at all. The
 * result is the documented greedy policy: lowest block number among
 * the blocks with the fewest valid pages. The bitmaps are sized once
 * at construction ((pagesPerBlock + 1) buckets of one bit per block),
 * so the hot path never allocates.
 *
 * The two page maps hold 32-bit entries (~0u means unmapped), so
 * SsdConfig::validate() caps a volume below 2^32 - 1 physical pages;
 * the typed accessors widen them back to Lpn/Ppn.
 */
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/typed_ids.h"
#include "nand/nand_array.h"
#include "nand/nand_config.h"

namespace ssdcheck::recovery {
class StateWriter;
class StateReader;
} // namespace ssdcheck::recovery

namespace ssdcheck::ssd {

using core::kInvalidLpn;
using core::Lpn;

/** Page-level address mapping and block accounting for one volume. */
class PageMapper
{
  public:
    /** Allocation stream: host flushes vs GC relocation. */
    enum class Stream : uint8_t { Host, Gc };

    /**
     * @param nand the volume's NAND array (owned by the caller).
     * @param userPages logical pages exposed by this volume.
     * @param wearAwareAllocation allocate the least-worn free block
     *        instead of the most recently freed one (dynamic wear
     *        leveling; pairs with the collector's static leveling).
     */
    PageMapper(nand::NandArray &nand, uint64_t userPages,
               bool wearAwareAllocation = false);

    /**
     * Write (or overwrite) logical page @p lpn with @p payload:
     * invalidates any previous mapping and programs a fresh page from
     * the host-open block.
     */
    void writePage(Lpn lpn, uint64_t payload);

    /** Current physical page of @p lpn, or nand::kInvalidPpn. */
    nand::Ppn lookup(Lpn lpn) const;

    /**
     * Read logical page @p lpn from NAND. A null @p payload still
     * counts the read (read disturb) but skips loading the stamp.
     * @return false when the page was never written (or trimmed).
     */
    bool readPage(Lpn lpn, uint64_t *payload) const;

    /** Drop every mapping and erase-free all blocks (TRIM whole volume). */
    void trimAll();

    /** Blocks currently in the free pool. */
    size_t freeBlocks() const { return freeList_.size(); }

    /**
     * Retire one free block into the grown-bad-block list (a program
     * or erase failure made it unusable). The block never returns to
     * the free pool, shrinking effective overprovisioning.
     * @param minFreeBlocks refuse when the free pool would fall to
     *        this size or below (the FTL must stay operable).
     * @return true when a block was retired.
     */
    bool retireFreeBlock(size_t minFreeBlocks);

    /** Length of the grown-bad-block list. */
    uint64_t retiredBlocks() const { return retiredBlocks_; }

    /** Total valid (mapped) pages. */
    uint64_t totalValid() const { return totalValid_; }

    /** Logical pages exposed. */
    uint64_t userPages() const { return userPages_; }

    /** Valid-page count of flat block @p pbn. */
    uint32_t blockValidCount(nand::Pbn pbn) const;

    /** Physical blocks managed (introspection/invariants). */
    uint64_t totalBlocks() const { return blockValid_.size(); }

    /**
     * Greedy victim selection: the closed (fully programmed) block
     * with the fewest valid pages, lowest block number first on ties.
     * Flat in block count via the valid-count bucket bitmaps.
     * @return the victim, or an invalid Pbn when no block is eligible.
     */
    nand::Pbn pickVictimGreedy() const;

    /**
     * True when @p pbn is a GC candidate: closed (fully programmed),
     * not free, not retired, and not one of the two open blocks.
     * Exactly the blocks pickVictimGreedy() chooses among.
     */
    bool isGcCandidate(nand::Pbn pbn) const;

    /** Sentinel returned by pickVictimGreedy when nothing is eligible. */
    static constexpr nand::Pbn kNoVictim = nand::kInvalidPbn;

    /**
     * Relocate every valid page of @p victim to the GC-open block and
     * erase it, returning it to the free pool.
     * @return number of valid pages moved.
     */
    uint64_t collectBlock(nand::Pbn victim);

    /** Inverse lookup: lpn stored in physical page @p ppn (or kInvalidLpn). */
    Lpn lpnOfPpn(nand::Ppn ppn) const;

    /** True when physical page @p ppn holds a live (mapped) page. */
    bool isPpnValid(nand::Ppn ppn) const
    {
        return (validWords_[ppn.value() >> 6] >> (ppn.value() & 63)) & 1ULL;
    }

    /** Packed validity bitmap word @p i (64 pages per word; tests). */
    uint64_t validWord(size_t i) const { return validWords_[i]; }

    /** Number of packed validity words. */
    size_t validWords() const { return validWords_.size(); }

    /**
     * The closed (fully programmed) block with the lowest erase count
     * — the static-wear-leveling candidate.
     * @return the block, or kNoVictim when none is eligible.
     */
    nand::Pbn pickColdestClosedBlock() const;

    /** Min and max erase count over all blocks (wear spread). */
    std::pair<uint32_t, uint32_t> eraseCountRange() const;

    /**
     * Consistency check used by tests: forward and inverse maps agree,
     * per-block valid counts match, free-list blocks are erased.
     * @return empty string when consistent, else a description.
     */
    std::string checkConsistency() const;

    /**
     * Serialize the logical FTL state. The victim buckets are derived
     * state and are not serialized: loadState() rebuilds them from the
     * candidate set and the valid counts. The page maps are written
     * one u64 per entry, whatever their in-memory width.
     */
    void saveState(recovery::StateWriter &w) const;

    /**
     * Restore state saved by saveState(). The NAND array must already
     * be restored (checkConsistency() runs against it). Validates all
     * indices and the full map consistency before returning true.
     */
    bool loadState(recovery::StateReader &r);

  private:
    struct OpenBlock
    {
        nand::Pbn block = kNoVictim;
        uint32_t nextPage = 0;
    };

    /** Take the next free page of the given stream's open block. */
    nand::Ppn allocatePage(Stream stream);

    /** Invalidate the mapping currently held by @p lpn, if any. */
    void invalidate(Lpn lpn);

    /**
     * A stream's open-block pointer moved past @p b: if it is still a
     * closed, live block, it becomes a GC candidate now.
     */
    void closeBlock(nand::Pbn b);

    /** Add block @p b to the bucket of valid count @p valid. */
    void setBucketBit(uint32_t valid, uint64_t b);

    /** Remove block @p b from the bucket of valid count @p valid. */
    void clearBucketBit(uint32_t valid, uint64_t b);

    /** Bucket part of checkConsistency(); empty string when exact. */
    std::string checkBuckets() const;

    /** Flat block containing @p ppn (shift when ppb is a power of 2). */
    nand::Pbn blockOf(nand::Ppn ppn) const
    {
        return nand::Pbn{ppbShift_ != 0 ? ppn.value() >> ppbShift_
                                        : ppn.value() / ppb_};
    }

    /** Set the validity bit of @p ppn. */
    void markValid(nand::Ppn ppn)
    {
        validWords_[ppn.value() >> 6] |= 1ULL << (ppn.value() & 63);
    }

    /** Clear the validity bit of @p ppn. */
    void markInvalid(nand::Ppn ppn)
    {
        validWords_[ppn.value() >> 6] &= ~(1ULL << (ppn.value() & 63));
    }

    nand::NandArray &nand_; // snapshot:skip(ctor-wired reference; loadState re-derives occupancy from it)
    uint64_t userPages_;
    bool wearAwareAllocation_; // snapshot:skip(construction-time config; restore constructs an identical mapper before loadState)
    // Cached geometry (hot-path divisors; ppbShift_ nonzero when ppb
    // is a power of two, enabling shift instead of divide).
    // snapshot:skip fields below are rebuilt by the constructor from
    // the NAND geometry, which loadState() validates against.
    uint32_t ppb_ = 0;         // snapshot:skip(derived from geometry)
    uint32_t ppbShift_ = 0;    // snapshot:skip(derived from geometry)
    uint64_t totalBlocks_ = 0; // snapshot:skip(derived from geometry)
    uint64_t totalPages_ = 0;  // snapshot:skip(derived from geometry)
    /** Unmapped entry of the 32-bit page maps. */
    static constexpr uint32_t kUnmapped = ~0u;
    std::vector<uint32_t> lpnToPpn_; ///< Ppn per Lpn, or kUnmapped.
    std::vector<uint32_t> ppnToLpn_; ///< Lpn per Ppn, or kUnmapped.
    /**
     * Packed per-page validity: bit (ppn & 63) of word (ppn >> 6) is
     * set exactly when ppnToLpn_[ppn] != kUnmapped. Redundant with
     * the inverse map but enables the popcount-assisted batch paths:
     * collectBlock() walks a victim's live pages as one bitmap scan
     * and batch-clears the victim's words, instead of probing the
     * inverse map page by page. Derived state: rebuilt on load, not
     * serialized.
     */
    std::vector<uint64_t> validWords_; // snapshot:skip(rebuilt from inverse map on load)
    std::vector<uint32_t> blockValid_;
    std::vector<uint8_t> blockFree_;
    std::vector<uint8_t> blockRetired_; ///< Grown-bad-block list.
    std::vector<nand::Pbn> freeList_;
    OpenBlock open_[2]; ///< Indexed by Stream.
    uint64_t totalValid_ = 0;
    uint64_t retiredBlocks_ = 0;

    /** Membership in the victim buckets (closed, live blocks only). */
    std::vector<uint8_t> candidate_;
    /**
     * Victim buckets: bucket v covers words [v * bucketStride_,
     * (v + 1) * bucketStride_). Its first summaryWords_ words hold one
     * bit per block word (set when that word is nonzero); the next
     * blockWords_ words hold one bit per block, set exactly when the
     * block is a candidate with v valid pages. Derived: rebuilt from
     * candidate_ and blockValid_ on load.
     */
    std::vector<uint64_t> bucketBits_; // snapshot:skip(rebuilt from the candidate set on load)
    /** Bit v set exactly when bucket v holds a block. */
    std::vector<uint64_t> nonEmptyBuckets_; // snapshot:skip(rebuilt with the buckets on load)
    uint32_t blockWords_ = 0;   // snapshot:skip(derived from geometry)
    uint32_t summaryWords_ = 0; // snapshot:skip(derived from geometry)
    uint32_t bucketStride_ = 0; // snapshot:skip(derived from geometry)
};

} // namespace ssdcheck::ssd
