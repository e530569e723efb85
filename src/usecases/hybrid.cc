#include "usecases/hybrid.h"

#include <algorithm>
#include <cassert>

#include "recovery/shard.h"

namespace ssdcheck::usecases {

HybridTier::HybridTier(ssd::SsdDevice &ssd, nvm::NvmDevice &nvm,
                       core::SsdCheck *check, HybridMode mode,
                       HybridConfig cfg)
    : ssd_(ssd), nvm_(nvm), check_(check), mode_(mode), cfg_(cfg),
      rng_(cfg.seed), nextDrain_(cfg.drainPeriod)
{
    assert(mode != HybridMode::HybridPas || check != nullptr);
    assert(cfg_.bufferWeight >= 0.0 && cfg_.bufferWeight <= 1.0);
    assert(cfg_.drainBatchPages > 0);
}

std::string
HybridTier::name() const
{
    return mode_ == HybridMode::Baseline ? "baseline(nvm-first)"
                                         : "hybrid-pas";
}

blockdev::IoResult
HybridTier::ssdSubmit(const blockdev::IoRequest &req, sim::SimTime now)
{
    // The model is fed here, not by the host loop: only the tier knows
    // which requests reach the SSD, and NVM-served requests must not
    // train the SSD's model.
    recovery::RequestPath path{ssd_,    nullptr, check_, nullptr,
                               nullptr, nullptr, {}};
    sim::SimTime t = now;
    sim::SimDuration lastOk = 0;
    return recovery::replayRequest(path, req, now, /*closed=*/false, t,
                                   lastOk);
}

void
HybridTier::drainUpTo(sim::SimTime now)
{
    const auto threshold = static_cast<uint64_t>(
        cfg_.drainThresholdFraction *
        static_cast<double>(nvm_.config().capacityPages));
    while (nextDrain_ <= now) {
        if (nvm_.dirtyPages() <= threshold) {
            nextDrain_ += cfg_.drainPeriod;
            continue;
        }
        const auto pages = nvm_.takeDirty(cfg_.drainBatchPages);
        sim::SimTime batchDone = nextDrain_;
        for (const uint64_t page : pages) {
            const auto res =
                ssdSubmit(blockdev::makeWrite4k(page), nextDrain_);
            batchDone = std::max(batchDone, res.completeTime);
        }
        // The background thread is closed-loop: it waits for its
        // batch to complete before sleeping again, so it can never
        // build an unbounded backlog inside the SSD.
        nextDrain_ = std::max(nextDrain_ + cfg_.drainPeriod, batchDone);
    }
}

blockdev::IoResult
HybridTier::submit(const blockdev::IoRequest &req, sim::SimTime now)
{
    drainUpTo(now);

    if (req.isRead()) {
        // Serve from the NVM when it holds the newest copy.
        if (nvm_.holds(req.firstPage()))
            return nvm_.submit(req, now);
        return ssdSubmit(req, now);
    }
    if (req.type == blockdev::IoType::Trim)
        return ssd_.submit(req, now);

    // Write routing: while the NVM has room, Baseline sends it every
    // write and Hybrid PAS the HL-predicted ones plus a W share of NL.
    if (!nvm_.full() &&
        (mode_ == HybridMode::Baseline || check_->predict(req, now).hl ||
         rng_.bernoulli(cfg_.bufferWeight)))
        return nvm_.submit(req, now);
    if (nvm_.full())
        ++backpressureWrites_;
    ++ssdDirectWrites_;
    // The SSD now holds the newest copy: stale dirty NVM copies must
    // never be drained over it.
    for (uint32_t p = 0; p < req.pages(); ++p)
        nvm_.invalidate(req.firstPage() + p);
    return ssdSubmit(req, now);
}

void
HybridTier::purge(sim::SimTime now)
{
    nvm_.purge(now);
    ssd_.purge(now);
}

} // namespace ssdcheck::usecases
