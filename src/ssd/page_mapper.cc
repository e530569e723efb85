#include "ssd/page_mapper.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <sstream>

#include "recovery/state_io.h"

namespace ssdcheck::ssd {

PageMapper::PageMapper(nand::NandArray &nand, uint64_t userPages,
                       bool wearAwareAllocation)
    : nand_(nand), userPages_(userPages),
      wearAwareAllocation_(wearAwareAllocation)
{
    assert(userPages > 0);
    assert(userPages < nand.totalPages() &&
           "need overprovisioning for GC to make progress");
    assert(nand.totalPages() < kUnmapped &&
           "page maps hold 32-bit entries; SsdConfig::validate() caps "
           "a volume below 2^32 - 1 physical pages");
    ppb_ = nand.geometry().pagesPerBlock;
    ppbShift_ = std::has_single_bit(ppb_)
                    ? static_cast<uint32_t>(std::countr_zero(ppb_))
                    : 0;
    totalBlocks_ = nand.totalBlocks();
    totalPages_ = nand.totalPages();
    lpnToPpn_.assign(userPages, kUnmapped);
    ppnToLpn_.assign(nand.totalPages(), kUnmapped);
    validWords_.assign((totalPages_ + 63) / 64, 0);
    blockValid_.assign(nand.totalBlocks(), 0);
    blockFree_.assign(nand.totalBlocks(), 1);
    blockRetired_.assign(nand.totalBlocks(), 0);
    candidate_.assign(nand.totalBlocks(), 0);
    blockWords_ = static_cast<uint32_t>((totalBlocks_ + 63) / 64);
    summaryWords_ = (blockWords_ + 63) / 64;
    bucketStride_ = summaryWords_ + blockWords_;
    bucketBits_.assign(static_cast<size_t>(ppb_ + 1) * bucketStride_, 0);
    nonEmptyBuckets_.assign((ppb_ + 1 + 63) / 64, 0);
    freeList_.reserve(nand.totalBlocks());
    // Highest block first so allocation proceeds from block 0 upward.
    for (uint64_t b = nand.totalBlocks(); b-- > 0;)
        freeList_.push_back(nand::Pbn{b});
}

nand::Ppn
PageMapper::allocatePage(Stream stream)
{
    OpenBlock &ob = open_[static_cast<size_t>(stream)];
    const uint32_t ppb = ppb_;
    if (ob.block == kNoVictim || ob.nextPage >= ppb) {
        assert(!freeList_.empty() && "free-block pool exhausted; "
               "GC watermarks are misconfigured");
        const nand::Pbn closed = ob.block;
        size_t pick = freeList_.size() - 1;
        if (wearAwareAllocation_) {
            // Dynamic wear leveling: take the least-worn free block
            // rather than recycling the most recently freed (hottest)
            // one. O(free pool), which is bounded by overprovisioning
            // and only paid when wear leveling is enabled.
            for (size_t i = 0; i < freeList_.size(); ++i) {
                if (nand_.blockEraseCount(freeList_[i]) <
                    nand_.blockEraseCount(freeList_[pick]))
                    pick = i;
            }
        }
        ob.block = freeList_[pick];
        freeList_[pick] = freeList_.back();
        freeList_.pop_back();
        blockFree_[ob.block.value()] = 0;
        ob.nextPage = 0;
        assert(nand_.blockWritePointer(ob.block) == 0 &&
               "allocated block was not erased");
        // The previous open block is closed from this point on (it may
        // have been reclaimed already, e.g. by a read-disturb refresh;
        // closeBlock re-checks its state).
        closeBlock(closed);
    }
    const nand::Ppn ppn{ob.block.value() * ppb + ob.nextPage};
    ++ob.nextPage;
    return ppn;
}

void
PageMapper::invalidate(Lpn lpn)
{
    const uint32_t old = lpnToPpn_[lpn.value()];
    if (old == kUnmapped)
        return;
    const nand::Ppn oldPpn{old};
    const uint64_t blk = blockOf(oldPpn).value();
    assert(blockValid_[blk] > 0);
    const uint32_t valid = --blockValid_[blk];
    if (candidate_[blk]) {
        clearBucketBit(valid + 1, blk);
        setBucketBit(valid, blk);
    }
    markInvalid(oldPpn);
    ppnToLpn_[old] = kUnmapped;
    lpnToPpn_[lpn.value()] = kUnmapped;
    --totalValid_;
}

void
PageMapper::writePage(Lpn lpn, uint64_t payload)
{
    assert(lpn.value() < userPages_);
    invalidate(lpn);
    const nand::Ppn ppn = allocatePage(Stream::Host);
    nand_.programPage(ppn, payload);
    lpnToPpn_[lpn.value()] = static_cast<uint32_t>(ppn.value());
    ppnToLpn_[ppn.value()] = static_cast<uint32_t>(lpn.value());
    markValid(ppn);
    ++blockValid_[blockOf(ppn).value()];
    ++totalValid_;
}

nand::Ppn
PageMapper::lookup(Lpn lpn) const
{
    assert(lpn.value() < userPages_);
    const uint32_t ppn = lpnToPpn_[lpn.value()];
    return ppn == kUnmapped ? nand::kInvalidPpn : nand::Ppn{ppn};
}

bool
PageMapper::readPage(Lpn lpn, uint64_t *payload) const
{
    const nand::Ppn ppn = lookup(lpn);
    if (ppn == nand::kInvalidPpn)
        return false;
    nand_.readPage(ppn, payload);
    return true;
}

bool
PageMapper::retireFreeBlock(size_t minFreeBlocks)
{
    if (freeList_.size() <= minFreeBlocks)
        return false;
    const nand::Pbn victim = freeList_.back();
    freeList_.pop_back();
    blockFree_[victim.value()] = 0;
    blockRetired_[victim.value()] = 1;
    ++retiredBlocks_;
    return true;
}

void
PageMapper::trimAll()
{
    lpnToPpn_.assign(userPages_, kUnmapped);
    ppnToLpn_.assign(nand_.totalPages(), kUnmapped);
    validWords_.assign(validWords_.size(), 0);
    freeList_.clear();
    for (uint64_t b = nand_.totalBlocks(); b-- > 0;) {
        if (blockRetired_[b])
            continue; // grown bad blocks never come back
        if (nand_.blockWritePointer(nand::Pbn{b}) != 0)
            nand_.eraseBlock(nand::Pbn{b});
        blockValid_[b] = 0;
        blockFree_[b] = 1;
    }
    for (uint64_t b = nand_.totalBlocks(); b-- > 0;) {
        if (!blockRetired_[b])
            freeList_.push_back(nand::Pbn{b});
    }
    open_[0] = OpenBlock{};
    open_[1] = OpenBlock{};
    totalValid_ = 0;
    candidate_.assign(nand_.totalBlocks(), 0);
    bucketBits_.assign(bucketBits_.size(), 0);
    nonEmptyBuckets_.assign(nonEmptyBuckets_.size(), 0);
}

uint32_t
PageMapper::blockValidCount(nand::Pbn pbn) const
{
    assert(pbn.value() < nand_.totalBlocks());
    return blockValid_[pbn.value()];
}

void
PageMapper::setBucketBit(uint32_t valid, uint64_t b)
{
    uint64_t *bucket =
        &bucketBits_[static_cast<size_t>(valid) * bucketStride_];
    const uint64_t w = b >> 6;
    bucket[summaryWords_ + w] |= 1ULL << (b & 63);
    bucket[w >> 6] |= 1ULL << (w & 63);
    nonEmptyBuckets_[valid >> 6] |= 1ULL << (valid & 63);
}

void
PageMapper::clearBucketBit(uint32_t valid, uint64_t b)
{
    uint64_t *bucket =
        &bucketBits_[static_cast<size_t>(valid) * bucketStride_];
    const uint64_t w = b >> 6;
    uint64_t &word = bucket[summaryWords_ + w];
    word &= ~(1ULL << (b & 63));
    if (word != 0)
        return;
    uint64_t &summary = bucket[w >> 6];
    summary &= ~(1ULL << (w & 63));
    if (summary != 0)
        return;
    for (uint32_t i = 0; i < summaryWords_; ++i)
        if (bucket[i] != 0)
            return;
    nonEmptyBuckets_[valid >> 6] &= ~(1ULL << (valid & 63));
}

void
PageMapper::closeBlock(nand::Pbn b)
{
    if (b == kNoVictim)
        return;
    // Between filling up and being replaced as the open block, the
    // block may have been reclaimed (read-disturb refresh), retired,
    // or even reallocated to the other stream — only a still-closed
    // live block becomes a candidate.
    if (blockFree_[b.value()] || blockRetired_[b.value()] ||
        candidate_[b.value()])
        return;
    if (b == open_[0].block || b == open_[1].block)
        return;
    if (nand_.blockWritePointer(b) != ppb_)
        return;
    candidate_[b.value()] = 1;
    setBucketBit(blockValid_[b.value()], b.value());
}

bool
PageMapper::isGcCandidate(nand::Pbn pbn) const
{
    assert(pbn.value() < nand_.totalBlocks());
    return candidate_[pbn.value()] != 0;
}

nand::Pbn
PageMapper::pickVictimGreedy() const
{
    // Lowest nonempty bucket, then its first nonzero block word (found
    // through the summary words), then that word's lowest block. Every
    // bit is live, so the first hit is the victim.
    for (size_t i = 0; i < nonEmptyBuckets_.size(); ++i) {
        if (nonEmptyBuckets_[i] == 0)
            continue;
        const size_t v =
            i * 64 +
            static_cast<size_t>(std::countr_zero(nonEmptyBuckets_[i]));
        const uint64_t *bucket = &bucketBits_[v * bucketStride_];
        for (uint32_t s = 0; s < summaryWords_; ++s) {
            if (bucket[s] == 0)
                continue;
            const uint64_t w =
                uint64_t{s} * 64 +
                static_cast<uint64_t>(std::countr_zero(bucket[s]));
            const auto bit = static_cast<uint64_t>(
                std::countr_zero(bucket[summaryWords_ + w]));
            return nand::Pbn{w * 64 + bit};
        }
    }
    return kNoVictim;
}

uint64_t
PageMapper::collectBlock(nand::Pbn victim)
{
    assert(victim != kNoVictim);
    assert(!blockFree_[victim.value()]);
    const uint64_t first = victim.value() * ppb_;
    const uint64_t last = first + ppb_;
    uint64_t moved = 0;
    // Batch migrate: walk the victim's live pages as one scan over its
    // packed validity words — countr_zero jumps straight to the next
    // set bit, so mostly-invalid victims (the greedy common case) cost
    // a handful of word loads instead of ppb inverse-map probes.
    for (uint64_t p = first; p < last;) {
        const uint64_t w = validWords_[p >> 6] >> (p & 63);
        if (w == 0) {
            p = (p | 63) + 1; // skip to the next word boundary
            continue;
        }
        p += static_cast<unsigned>(std::countr_zero(w));
        if (p >= last)
            break;
        const uint32_t lpn = ppnToLpn_[p];
        assert(lpn != kUnmapped);
        // Merge step: read the valid page and re-program it from the
        // GC-open block (paper §II-A "merge operation").
        uint64_t payload = 0;
        nand_.readPage(nand::Ppn{p}, &payload);
        const nand::Ppn dst = allocatePage(Stream::Gc);
        nand_.programPage(dst, payload);
        lpnToPpn_[lpn] = static_cast<uint32_t>(dst.value());
        ppnToLpn_[dst.value()] = lpn;
        markValid(dst);
        ppnToLpn_[p] = kUnmapped;
        ++blockValid_[blockOf(dst).value()];
        ++moved;
        ++p;
    }
    assert(moved == blockValid_[victim.value()]);
    // Batch invalidate: clear the victim's validity span word-wise
    // (partial words at the edges keep their neighbors' bits).
    for (uint64_t p = first; p < last;) {
        if ((p & 63) == 0 && last - p >= 64) {
            validWords_[p >> 6] = 0;
            p += 64;
        } else {
            markInvalid(nand::Ppn{p});
            ++p;
        }
    }
    // A refresh or wear-leveling victim need not be a candidate; one
    // that is leaves its bucket before its count is reset.
    if (candidate_[victim.value()]) {
        clearBucketBit(blockValid_[victim.value()], victim.value());
        candidate_[victim.value()] = 0;
    }
    blockValid_[victim.value()] = 0;
    nand_.eraseBlock(victim);
    blockFree_[victim.value()] = 1;
    freeList_.push_back(victim);
    return moved;
}

Lpn
PageMapper::lpnOfPpn(nand::Ppn ppn) const
{
    assert(ppn.value() < nand_.totalPages());
    const uint32_t lpn = ppnToLpn_[ppn.value()];
    return lpn == kUnmapped ? kInvalidLpn : Lpn{lpn};
}

nand::Pbn
PageMapper::pickColdestClosedBlock() const
{
    const uint32_t ppb = ppb_;
    nand::Pbn best = kNoVictim;
    uint32_t bestErase = ~0u;
    for (uint64_t b = 0; b < nand_.totalBlocks(); ++b) {
        const nand::Pbn pbn{b};
        if (blockFree_[b])
            continue;
        if (pbn == open_[0].block || pbn == open_[1].block)
            continue;
        if (nand_.blockWritePointer(pbn) < ppb)
            continue;
        const uint32_t e = nand_.blockEraseCount(pbn);
        if (e < bestErase) {
            bestErase = e;
            best = pbn;
        }
    }
    return best;
}

std::pair<uint32_t, uint32_t>
PageMapper::eraseCountRange() const
{
    uint32_t lo = ~0u, hi = 0;
    for (uint64_t b = 0; b < nand_.totalBlocks(); ++b) {
        const uint32_t e = nand_.blockEraseCount(nand::Pbn{b});
        lo = std::min(lo, e);
        hi = std::max(hi, e);
    }
    return {lo, hi};
}

std::string
PageMapper::checkConsistency() const
{
    std::ostringstream err;
    const uint32_t ppb = ppb_;
    uint64_t validSeen = 0;
    for (uint64_t lpn = 0; lpn < userPages_; ++lpn) {
        const uint32_t ppn = lpnToPpn_[lpn];
        if (ppn == kUnmapped)
            continue;
        ++validSeen;
        if (ppnToLpn_[ppn] != lpn) {
            err << "inverse map mismatch at lpn " << lpn << "; ";
            break;
        }
        if (!nand_.isProgrammed(nand::Ppn{ppn})) {
            err << "mapped page not programmed at lpn " << lpn << "; ";
            break;
        }
    }
    if (validSeen != totalValid_)
        err << "totalValid mismatch; ";

    // O(n) reference scan of the inverse map, cross-checked three
    // ways: per-block counts from the scan, the packed validity
    // bitmap (bit-for-bit and via per-block popcounts), and the
    // maintained blockValid_ counters must all agree.
    std::vector<uint32_t> counted(nand_.totalBlocks(), 0);
    for (uint64_t p = 0; p < nand_.totalPages(); ++p) {
        const bool mapped = ppnToLpn_[p] != kUnmapped;
        if (mapped)
            ++counted[p / ppb];
        if (mapped != isPpnValid(nand::Ppn{p})) {
            err << "validity bitmap mismatch at ppn " << p << "; ";
            break;
        }
    }
    if (validWords_.size() != (nand_.totalPages() + 63) / 64)
        err << "validity bitmap word count mismatch; ";
    for (uint64_t b = 0; b < nand_.totalBlocks(); ++b) {
        if (counted[b] != blockValid_[b]) {
            err << "block valid-count mismatch at block " << b << "; ";
            break;
        }
        uint32_t pop = 0;
        for (uint64_t p = b * ppb; p < (b + 1) * ppb;) {
            if ((p & 63) == 0 && (b + 1) * ppb - p >= 64) {
                pop += static_cast<uint32_t>(
                    std::popcount(validWords_[p >> 6]));
                p += 64;
            } else {
                pop += isPpnValid(nand::Ppn{p}) ? 1u : 0u;
                ++p;
            }
        }
        if (pop != blockValid_[b]) {
            err << "bitmap popcount mismatch at block " << b << "; ";
            break;
        }
        if (blockFree_[b] && nand_.blockWritePointer(nand::Pbn{b}) != 0) {
            err << "free block " << b << " not erased; ";
            break;
        }
    }

    // Victim-bucket invariants: the candidate set is exactly the
    // closed, live, non-open blocks, and the buckets hold exactly the
    // candidates (checkBuckets).
    for (uint64_t b = 0; b < nand_.totalBlocks(); ++b) {
        const nand::Pbn pbn{b};
        const bool eligible =
            !blockFree_[b] && !blockRetired_[b] &&
            pbn != open_[0].block && pbn != open_[1].block &&
            nand_.blockWritePointer(pbn) == ppb;
        if (eligible != (candidate_[b] != 0)) {
            err << "candidate flag mismatch at block " << b << "; ";
            break;
        }
    }
    err << checkBuckets();
    return err.str();
}

std::string
PageMapper::checkBuckets() const
{
    // Rebuild each bucket from the candidate flags and valid counts: a
    // block bit is set exactly when the block is a candidate with that
    // valid count, a summary bit exactly when its block word is
    // nonzero, and a nonempty bit exactly when the bucket holds a block.
    std::vector<uint64_t> want(bucketStride_);
    for (uint32_t v = 0; v <= ppb_; ++v) {
        std::fill(want.begin(), want.end(), 0);
        for (uint64_t b = 0; b < totalBlocks_; ++b)
            if (candidate_[b] && blockValid_[b] == v)
                want[summaryWords_ + (b >> 6)] |= 1ULL << (b & 63);
        bool any = false;
        for (uint32_t w = 0; w < blockWords_; ++w) {
            if (want[summaryWords_ + w] != 0) {
                want[w >> 6] |= 1ULL << (w & 63);
                any = true;
            }
        }
        const uint64_t *bucket =
            &bucketBits_[static_cast<size_t>(v) * bucketStride_];
        std::ostringstream err;
        for (uint32_t i = 0; i < bucketStride_; ++i) {
            const uint64_t diff = bucket[i] ^ want[i];
            if (diff == 0)
                continue;
            const auto bit = static_cast<uint64_t>(std::countr_zero(diff));
            if (i < summaryWords_) {
                err << "victim bucket " << v << " summary bit of word "
                    << uint64_t{i} * 64 + bit << " is wrong; ";
            } else {
                err << "block " << uint64_t{i - summaryWords_} * 64 + bit
                    << ((want[i] >> bit) & 1ULL ? " missing from"
                                                : " stray in")
                    << " victim bucket " << v << "; ";
            }
            return err.str();
        }
        if (((nonEmptyBuckets_[v >> 6] >> (v & 63)) & 1ULL) !=
            (any ? 1ULL : 0ULL)) {
            err << "nonempty bit of victim bucket " << v << " is wrong; ";
            return err.str();
        }
    }
    return {};
}

void
PageMapper::saveState(recovery::StateWriter &w) const
{
    w.u64(userPages_);
    // One u64 per entry (the snapshot format predates the 32-bit maps).
    w.u64(lpnToPpn_.size());
    for (uint32_t p : lpnToPpn_)
        w.u64(p == kUnmapped ? nand::kInvalidPpn.value() : p);
    w.u64(ppnToLpn_.size());
    for (uint32_t l : ppnToLpn_)
        w.u64(l == kUnmapped ? kInvalidLpn.value() : l);
    w.u64(blockValid_.size());
    for (uint32_t v : blockValid_)
        w.u32(v);
    for (uint8_t f : blockFree_)
        w.u8(f);
    for (uint8_t x : blockRetired_)
        w.u8(x);
    for (uint8_t c : candidate_)
        w.u8(c);
    w.u64(freeList_.size());
    for (nand::Pbn b : freeList_)
        w.u64(b.value());
    for (const OpenBlock &ob : open_) {
        w.u64(ob.block.value());
        w.u32(ob.nextPage);
    }
    w.u64(totalValid_);
    w.u64(retiredBlocks_);
}

bool
PageMapper::loadState(recovery::StateReader &r)
{
    const uint64_t totalPages = nand_.totalPages();
    const uint64_t totalBlocks = nand_.totalBlocks();
    const uint32_t ppb = nand_.geometry().pagesPerBlock;

    if (r.u64() != userPages_) {
        r.fail("mapper userPages does not match this configuration");
        return false;
    }
    if (r.u64() != lpnToPpn_.size()) {
        r.fail("mapper LPN table size mismatch");
        return false;
    }
    for (auto &p : lpnToPpn_) {
        const nand::Ppn ppn{r.u64()};
        if (r.ok() && ppn != nand::kInvalidPpn &&
            ppn.value() >= totalPages) {
            r.fail("mapper LPN entry points past end of NAND");
            return false;
        }
        p = ppn == nand::kInvalidPpn ? kUnmapped
                                     : static_cast<uint32_t>(ppn.value());
    }
    if (r.u64() != ppnToLpn_.size()) {
        r.fail("mapper PPN table size mismatch");
        return false;
    }
    for (auto &l : ppnToLpn_) {
        const Lpn lpn{r.u64()};
        if (r.ok() && lpn != kInvalidLpn && lpn.value() >= userPages_) {
            r.fail("mapper PPN entry points past end of volume");
            return false;
        }
        l = lpn == kInvalidLpn ? kUnmapped
                               : static_cast<uint32_t>(lpn.value());
    }
    if (r.u64() != blockValid_.size()) {
        r.fail("mapper block table size mismatch");
        return false;
    }
    for (auto &v : blockValid_) {
        v = r.u32();
        if (r.ok() && v > ppb) {
            r.fail("mapper block valid count above pages-per-block");
            return false;
        }
    }
    for (auto &f : blockFree_)
        f = r.u8();
    for (auto &x : blockRetired_)
        x = r.u8();
    for (auto &c : candidate_)
        c = r.u8();
    if (r.ok()) {
        for (size_t b = 0; b < blockFree_.size(); ++b) {
            if (blockFree_[b] > 1 || blockRetired_[b] > 1 ||
                candidate_[b] > 1) {
                r.fail("mapper block flag is neither 0 nor 1");
                return false;
            }
        }
    }
    const uint64_t nFree = r.checkCount(r.u64(), 8);
    if (r.ok() && nFree > totalBlocks) {
        r.fail("mapper free list longer than the block count");
        return false;
    }
    freeList_.clear();
    for (uint64_t i = 0; i < nFree; ++i) {
        const nand::Pbn b{r.u64()};
        if (r.ok() && b.value() >= totalBlocks) {
            r.fail("mapper free-list entry past end of NAND");
            return false;
        }
        freeList_.push_back(b);
    }
    for (auto &ob : open_) {
        ob.block = nand::Pbn{r.u64()};
        ob.nextPage = r.u32();
        if (r.ok() &&
            ((ob.block != kNoVictim && ob.block.value() >= totalBlocks) ||
             ob.nextPage > ppb)) {
            r.fail("mapper open-block pointer out of range");
            return false;
        }
    }
    totalValid_ = r.u64();
    retiredBlocks_ = r.u64();
    if (!r.ok())
        return false;

    // Rebuild the derived validity bitmap from the restored inverse
    // map (it is never serialized).
    validWords_.assign(validWords_.size(), 0);
    for (uint64_t p = 0; p < totalPages; ++p)
        if (ppnToLpn_[p] != kUnmapped)
            markValid(nand::Ppn{p});

    // Rebuild the victim buckets from the candidate set; they hold
    // exactly the live candidates, so they match the saved run's.
    bucketBits_.assign(bucketBits_.size(), 0);
    nonEmptyBuckets_.assign(nonEmptyBuckets_.size(), 0);
    for (uint64_t b = 0; b < totalBlocks; ++b)
        if (candidate_[b])
            setBucketBit(blockValid_[b], b);

    // Full structural validation against the (already restored) NAND
    // state; a payload that passed CRC but mutated semantics must
    // surface here, not as undefined behavior later.
    const std::string err = checkConsistency();
    if (!err.empty()) {
        r.fail("mapper state inconsistent after load: " + err);
        return false;
    }
    return true;
}

} // namespace ssdcheck::ssd
