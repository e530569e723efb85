#include "ssd/volume.h"

#include <algorithm>
#include <cassert>

#include "recovery/state_io.h"

namespace ssdcheck::ssd {

Volume::Volume(const SsdConfig &cfg, uint32_t volumeIndex, sim::Rng rng,
               FaultInjector *faults)
    : cfg_(cfg), volumeIndex_(volumeIndex), rng_(rng), faults_(faults),
      nand_(cfg.volumeGeometry(), cfg.nandTiming),
      mapper_(nand_, cfg.userPagesPerVolume(), cfg.wearLevelThreshold > 0),
      gc_(mapper_, nand_, cfg.gcLowBlocks, cfg.gcHighBlocks,
          cfg.wearLevelThreshold, cfg.readDisturbLimit),
      buffer_(cfg.bufferPages())
{
    slcCycleCapacity_ = cfg.slcCapacityPages;
    victimScratch_.reserve(64);
}

sim::SimDuration
Volume::jitter(sim::SimDuration d)
{
    return static_cast<sim::SimDuration>(
        static_cast<double>(d) * rng_.lognormalFactor(cfg_.jitterSigma));
}

sim::SimDuration
Volume::flush(sim::SimTime at, IoDetail *detail, FlushReason reason)
{
    // The triggering request needs a free buffer: with double
    // buffering that means the previous flush must have finished.
    const sim::SimDuration stall =
        std::max<sim::SimDuration>(0, nandBusyUntil_ - at);
    const sim::SimTime flushStart = std::max(at, nandBusyUntil_);
    if (nandBusyUntil_ <= at)
        busyIncludesGc_ = false; // previous busy window fully drained

    const auto &entries = buffer_.drain();
    for (const auto &e : entries)
        mapper_.writePage(e.lpn, e.payload);

    sim::SimDuration flushDur = 0;
    if (cfg_.wbFlushCostEnabled) {
        flushDur = nand_.batchProgramTime(entries.size(), cfg_.slcCache) +
                   cfg_.flushOverheadTime;
        flushDur = jitter(flushDur);
    }

    // Injected program failure: the controller re-programs the wave
    // into a fresh block and retires the failing one into the
    // grown-bad-block list (data is preserved; overprovisioning is
    // not).
    if (faults_ != nullptr && faults_->programFails()) {
        flushDur += faults_->profile().programFailCost;
        if (mapper_.retireFreeBlock(cfg_.gcHighBlocks + 2)) {
            faults_->noteBlockRetired();
            ++counters_.retiredBlocks;
        }
        if (detail != nullptr)
            detail->programFailure = true;
    }

    nandBusyUntil_ = flushStart + flushDur;
    ++counters_.flushes;
    if (detail != nullptr)
        detail->flushTime += flushDur;
    if (trace_ != nullptr) {
        trace_->complete(
            "wb", "wb.flush", track_, flushStart, flushDur,
            {{"pages", static_cast<int64_t>(entries.size())},
             {"read_trigger", reason == FlushReason::ReadTrigger ? 1 : 0},
             {"stall_ns", stall}});
    }

    // Secondary feature: SLC->MLC migration at an externally invisible
    // and slightly randomized point (paper §VI).
    if (cfg_.slcCache) {
        slcUsedPages_ += entries.size();
        if (slcUsedPages_ >= slcCycleCapacity_) {
            // Only a chunk of the cache migrates while blocking the
            // array; the remainder drains lazily in background.
            const uint64_t chunk =
                std::min<uint64_t>(slcUsedPages_, cfg_.slcMigrateChunkPages);
            sim::SimDuration mig = nand_.batchReadTime(chunk) +
                                   nand_.batchProgramTime(chunk);
            if (!cfg_.wbFlushCostEnabled)
                mig = 0;
            if (trace_ != nullptr && mig > 0)
                trace_->complete("slc", "slc.migrate", track_,
                                 nandBusyUntil_, mig,
                                 {{"pages", static_cast<int64_t>(chunk)}});
            nandBusyUntil_ += mig;
            ++counters_.slcMigrations;
            slcUsedPages_ = 0;
            const double v = cfg_.slcCapacityVariation;
            slcCycleCapacity_ = std::max<uint64_t>(
                cfg_.bufferPages(),
                static_cast<uint64_t>(
                    static_cast<double>(cfg_.slcCapacityPages) *
                    rng_.uniformReal(1.0 - v, 1.0 + v)));
            if (detail != nullptr && mig > 0)
                detail->slcMigration = true;
        }
    }

    // GC runs when the flush depleted the free pool (paper §II-A).
    // The reclaim target varies a little per invocation, like adaptive
    // firmware does; this is what gives GC intervals a distribution.
    if (gc_.needed()) {
        victimScratch_.clear();
        const GcResult res =
            gc_.collect(static_cast<uint32_t>(rng_.nextBelow(4)),
                         trace_ != nullptr ? &victimScratch_ : nullptr);
        if (res.ran()) {
            sim::SimDuration gcDur =
                cfg_.gcCostEnabled ? jitter(res.duration) : 0;
            const sim::SimTime gcStart = nandBusyUntil_;
            // Injected erase failures: each reclaimed block may fail
            // its erase and go to the grown-bad-block list instead of
            // the free pool, eroding overprovisioning so later GC
            // rounds fire more often.
            if (faults_ != nullptr) {
                for (uint64_t b = 0; b < res.blocksErased; ++b) {
                    if (faults_->eraseFails() &&
                        mapper_.retireFreeBlock(cfg_.gcHighBlocks + 2)) {
                        faults_->noteBlockRetired();
                        ++counters_.retiredBlocks;
                    }
                }
            }
            nandBusyUntil_ += gcDur;
            ++counters_.gcInvocations;
            counters_.gcBlocksErased += res.blocksErased;
            counters_.gcPagesMoved += res.validMoved;
            counters_.wearLevelMoves += res.wearMoves;
            counters_.readRefreshMoves += res.refreshMoves;
            if (cfg_.gcCostEnabled)
                busyIncludesGc_ = true;
            if (detail != nullptr) {
                detail->gcRan = cfg_.gcCostEnabled;
                detail->gcTime += gcDur;
            }
            if (trace_ != nullptr) {
                trace_->instant(
                    "gc", "gc.trigger", track_, gcStart,
                    {{"free_blocks",
                      static_cast<int64_t>(mapper_.freeBlocks())}});
                trace_->complete(
                    "gc", "gc.run", track_, gcStart, gcDur,
                    {{"blocks_erased",
                      static_cast<int64_t>(res.blocksErased)},
                     {"pages_moved", static_cast<int64_t>(res.validMoved)},
                     {"wear_moves", static_cast<int64_t>(res.wearMoves)},
                     {"refresh_moves",
                      static_cast<int64_t>(res.refreshMoves)}});
                // Per-victim migrate spans, scaled into the jittered
                // window proportionally to their pre-jitter share.
                for (const GcVictim &v : victimScratch_) {
                    const sim::SimTime vs =
                        res.duration > 0
                            ? gcStart + gcDur * v.offset / res.duration
                            : gcStart;
                    const sim::SimDuration vd =
                        res.duration > 0 ? gcDur * v.cost / res.duration
                                         : 0;
                    trace_->complete(
                        "gc", "gc.migrate", track_, vs, vd,
                        {{"pbn", static_cast<int64_t>(v.pbn.value())},
                         {"pages", static_cast<int64_t>(v.validMoved)}});
                }
                trace_->instant(
                    "gc", "gc.erase", track_, gcStart + gcDur,
                    {{"blocks",
                      static_cast<int64_t>(res.blocksErased)}});
            }
        }
    }

    return stall;
}

sim::SimTime
Volume::serveWrite(sim::SimTime start, Lpn lpn, uint64_t payload,
                   IoDetail *detail)
{
    assert(lpn.value() < cfg_.userPagesPerVolume());
    ++counters_.writes;
    if (detail != nullptr)
        detail->volume = volumeIndex_;

    const sim::SimTime admit = std::max(start, writeGate_);
    sim::SimTime serviceStart = admit;

    buffer_.add(lpn, payload);
    if (trace_ != nullptr)
        trace_->instant("wb", "wb.enqueue", track_, admit,
                        {{"lpn", static_cast<int64_t>(lpn.value())},
                         {"fill", static_cast<int64_t>(buffer_.fill())}});
    if (buffer_.full()) {
        // Note: flush() may clear busyIncludesGc_, so capture whether
        // this request's stall overlapped a GC-laden window first.
        const bool stalledOnGc = busyIncludesGc_ && nandBusyUntil_ > admit;
        const sim::SimDuration stall =
            flush(admit, detail, FlushReason::Full);
        if (detail != nullptr) {
            detail->triggeredFlush = true;
            detail->waitTime += stall;
            if (stall > 0 && stalledOnGc)
                detail->gcRan = true; // the wait was GC's fault
        }
        if (cfg_.bufferType == BufferType::Fore) {
            // Fore: acknowledge only after the flush (and any GC /
            // migration it caused) completes.
            serviceStart = nandBusyUntil_;
        } else if (stall > 0) {
            // Back: double buffering absorbs the flush, but a second
            // flush arriving before the first finished must wait.
            serviceStart = admit + stall;
            ++counters_.backpressureStalls;
            if (detail != nullptr)
                detail->backpressured = true;
        }
    }

    const sim::SimTime ack = serviceStart + jitter(cfg_.writeAckTime);
    writeGate_ = std::max(admit + cfg_.writeCpuTime, serviceStart);
    return ack;
}

sim::SimTime
Volume::serveRead(sim::SimTime start, Lpn lpn, uint64_t *payloadOut,
                  IoDetail *detail)
{
    assert(lpn.value() < cfg_.userPagesPerVolume());
    ++counters_.reads;
    if (detail != nullptr)
        detail->volume = volumeIndex_;

    sim::SimTime ready = start;

    if (cfg_.readTriggerFlush && !buffer_.empty()) {
        // Paper §III-B3: some devices flush the buffer on every read,
        // no matter how few pages it holds.
        const sim::SimDuration stall =
            flush(start, detail, FlushReason::ReadTrigger);
        (void)stall;
        ready = nandBusyUntil_;
        if (detail != nullptr)
            detail->readTriggeredFlush = true;
    } else if (buffer_.lookup(lpn, payloadOut)) {
        // Served straight from the buffer: no NAND involvement.
        ++counters_.bufferHits;
        if (detail != nullptr)
            detail->bufferHit = true;
        if (trace_ != nullptr)
            trace_->instant("wb", "wb.hit", track_, start,
                            {{"lpn", static_cast<int64_t>(lpn.value())}});
        return start + jitter(cfg_.bufferReadTime);
    }

    // NAND access: wait for any flush/migration/GC, then the read
    // pipeline gate.
    const sim::SimTime busyReady = std::max(ready, nandBusyUntil_);
    if (detail != nullptr && busyReady > ready) {
        detail->blockedByBusy = true;
        detail->waitTime += busyReady - ready;
        if (busyIncludesGc_)
            detail->gcRan = true; // blocked behind a GC-laden window
    }
    ready = std::max(busyReady, readGate_);

    // The payload is loaded only for a caller that asked for it; a
    // plain read touches the map and the block's read counter alone.
    sim::SimDuration nandLat = cfg_.nandTiming.readLatency;
    if (!mapper_.readPage(lpn, payloadOut)) {
        // Unmapped (never written / trimmed): controller answers from
        // metadata without touching NAND.
        nandLat = 0;
        if (payloadOut != nullptr)
            *payloadOut = nand::kErasedPayload;
    }

    readGate_ = ready + cfg_.nandTiming.readLatency /
                            std::max(1u, cfg_.readParallelism);
    const sim::SimDuration service = jitter(cfg_.readOverheadTime + nandLat);
    if (trace_ != nullptr)
        trace_->complete("nand", "nand.read", track_, ready, service,
                         {{"lpn", static_cast<int64_t>(lpn.value())},
                          {"wait_ns", std::max<sim::SimDuration>(
                                          0, ready - start)}});
    return ready + service;
}

void
Volume::reset()
{
    buffer_.clear();
    mapper_.trimAll();
    writeGate_ = sim::kTimeZero;
    nandBusyUntil_ = sim::kTimeZero;
    readGate_ = sim::kTimeZero;
    slcUsedPages_ = 0;
    slcCycleCapacity_ = cfg_.slcCapacityPages;
}

void
Volume::prefill(uint64_t stampBase)
{
    for (uint64_t lpn = 0; lpn < cfg_.userPagesPerVolume(); ++lpn)
        mapper_.writePage(Lpn{lpn}, stampBase + lpn);
    // Preconditioning may leave the pool near the trigger; settle it
    // now so the first measured request doesn't eat a giant GC.
    if (gc_.needed())
        gc_.collect();
}

void
Volume::attachObservability(const obs::Sink &sink, const std::string &device)
{
    trace_ = sink.trace;
    track_ = obs::TraceTrack{obs::kDevicePid, volumeIndex_};
    if (sink.metrics != nullptr) {
        obs::Registry &reg = *sink.metrics;
        const obs::Labels labels = {
            {"device", device}, {"volume", std::to_string(volumeIndex_)}};
        reg.exportCounter("vol_writes", labels, &counters_.writes);
        reg.exportCounter("vol_reads", labels, &counters_.reads);
        reg.exportCounter("vol_flushes", labels, &counters_.flushes);
        reg.exportCounter("vol_backpressure_stalls", labels,
                          &counters_.backpressureStalls);
        reg.exportCounter("vol_gc_invocations", labels,
                          &counters_.gcInvocations);
        reg.exportCounter("vol_gc_blocks_erased", labels,
                          &counters_.gcBlocksErased);
        reg.exportCounter("vol_gc_pages_moved", labels,
                          &counters_.gcPagesMoved);
        reg.exportCounter("vol_slc_migrations", labels,
                          &counters_.slcMigrations);
        reg.exportCounter("vol_buffer_hits", labels, &counters_.bufferHits);
        reg.exportCounter("vol_wear_level_moves", labels,
                          &counters_.wearLevelMoves);
        reg.exportCounter("vol_read_refresh_moves", labels,
                          &counters_.readRefreshMoves);
        reg.exportCounter("vol_retired_blocks", labels,
                          &counters_.retiredBlocks);
    }
}

bool
Volume::peek(Lpn lpn, uint64_t *payload) const
{
    if (buffer_.lookup(lpn, payload))
        return true;
    return mapper_.readPage(lpn, payload);
}

void
Volume::saveState(recovery::StateWriter &w) const
{
    rng_.saveState(w);
    nand_.saveState(w);
    mapper_.saveState(w);
    buffer_.saveState(w);
    gc_.saveState(w);
    w.i64(writeGate_.ns());
    w.i64(nandBusyUntil_.ns());
    w.i64(readGate_.ns());
    w.boolean(busyIncludesGc_);
    w.u64(slcUsedPages_);
    w.u64(slcCycleCapacity_);
    w.u64(counters_.writes);
    w.u64(counters_.reads);
    w.u64(counters_.flushes);
    w.u64(counters_.backpressureStalls);
    w.u64(counters_.gcInvocations);
    w.u64(counters_.gcBlocksErased);
    w.u64(counters_.gcPagesMoved);
    w.u64(counters_.slcMigrations);
    w.u64(counters_.bufferHits);
    w.u64(counters_.wearLevelMoves);
    w.u64(counters_.readRefreshMoves);
    w.u64(counters_.retiredBlocks);
}

bool
Volume::loadState(recovery::StateReader &r)
{
    if (!rng_.loadState(r) || !nand_.loadState(r) ||
        !mapper_.loadState(r) || !buffer_.loadState(r) ||
        !gc_.loadState(r))
        return false;
    writeGate_ = sim::SimTime{r.i64()};
    nandBusyUntil_ = sim::SimTime{r.i64()};
    readGate_ = sim::SimTime{r.i64()};
    busyIncludesGc_ = r.boolean();
    slcUsedPages_ = r.u64();
    slcCycleCapacity_ = r.u64();
    counters_.writes = r.u64();
    counters_.reads = r.u64();
    counters_.flushes = r.u64();
    counters_.backpressureStalls = r.u64();
    counters_.gcInvocations = r.u64();
    counters_.gcBlocksErased = r.u64();
    counters_.gcPagesMoved = r.u64();
    counters_.slcMigrations = r.u64();
    counters_.bufferHits = r.u64();
    counters_.wearLevelMoves = r.u64();
    counters_.readRefreshMoves = r.u64();
    counters_.retiredBlocks = r.u64();
    return r.ok();
}

} // namespace ssdcheck::ssd
