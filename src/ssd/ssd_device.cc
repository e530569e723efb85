#include "ssd/ssd_device.h"

#include <algorithm>
#include <cassert>

#include "recovery/state_io.h"

namespace ssdcheck::ssd {

SsdDevice::SsdDevice(SsdConfig cfg)
    : cfg_(std::move(cfg)), router_(cfg_), rng_(cfg_.seed),
      faults_(cfg_.faults, sim::Rng(cfg_.seed).fork(0xFA17)),
      faultsInert_(cfg_.faults.inert())
{
    const std::string err = cfg_.validate();
    assert(err.empty() && "invalid SsdConfig");
    (void)err;
    for (uint32_t v = 0; v < cfg_.numVolumes(); ++v)
        volumes_.push_back(std::make_unique<Volume>(
            cfg_, v, rng_.fork(v + 1), faultsInert_ ? nullptr : &faults_));
}

uint64_t
SsdDevice::capacitySectors() const
{
    return cfg_.capacitySectors();
}

blockdev::IoResult
SsdDevice::submit(const blockdev::IoRequest &req, sim::SimTime now)
{
    return submitDetailed(req, now, nullptr);
}

blockdev::IoResult
SsdDevice::submitDetailed(const blockdev::IoRequest &req, sim::SimTime now,
                          IoDetail *detail, const uint64_t *writePayload,
                          uint64_t *readPayload)
{
    assert(now >= lastSubmit_ && "submissions must be time-ordered");
    lastSubmit_ = now;

    blockdev::IoResult res;
    res.submitTime = now;

    // Boundary validation: a zero-length or out-of-capacity command
    // is rejected from the command decoder without touching the page
    // map (a real device answers such commands with an error CQE).
    if (req.sectors == 0 ||
        req.lba + req.sectors > capacitySectors() ||
        req.lba + req.sectors < req.lba /* address overflow */) {
        res.status = blockdev::IoStatus::DeviceFault;
        res.completeTime = now + sim::microseconds(5);
        if (trace_ != nullptr)
            trace_->instant("dev", "dev.reject", kBusTrack, now,
                            {{"lba", static_cast<int64_t>(req.lba)},
                             {"sectors",
                              static_cast<int64_t>(req.sectors)}});
        return res;
    }

    ++requestsServed_;
    // An inert profile's hooks return at once without drawing, so
    // skipping them changes nothing simulated.
    if (!faultsInert_) {
        faults_.beginRequest(requestsServed_);
        if (faults_.driftDue(requestsServed_)) {
            applyDrift();
            if (trace_ != nullptr)
                trace_->instant(
                    "dev", "dev.drift", kBusTrack, now,
                    {{"kind", static_cast<int64_t>(cfg_.faults.driftKind)},
                     {"request", static_cast<int64_t>(requestsServed_)}});
        }
    }

    // Host interface occupancy serializes all traffic.
    const sim::SimTime busStart = std::max(now, busGate_);
    busGate_ = busStart + cfg_.busTime;
    const sim::SimTime start = busGate_;

    if (req.type == blockdev::IoType::Trim) {
        res.completeTime = start + sim::microseconds(10);
        if (trace_ != nullptr)
            trace_->complete("dev", "dev.trim", kBusTrack, now,
                             res.completeTime - now,
                             {{"lba", static_cast<int64_t>(req.lba)},
                              {"sectors",
                               static_cast<int64_t>(req.sectors)}});
        return res;
    }

    if (cfg_.optimalMode) {
        // Fig. 3 SSD_Optimal: immediate acknowledgement, functional
        // store kept device-side for correctness.
        const uint64_t firstPage = req.firstPage();
        for (uint32_t p = 0; p < req.pages(); ++p) {
            if (req.isWrite() && writePayload != nullptr)
                optimalStore_[firstPage + p] = *writePayload + p;
        }
        if (req.isRead() && readPayload != nullptr) {
            const auto it = optimalStore_.find(firstPage);
            *readPayload = it == optimalStore_.end() ? ~0ULL : it->second;
        }
        res.completeTime = start + sim::microseconds(15);
        return res;
    }

    // Serve each covered page; the request completes when the last
    // page does. Pages may straddle a volume-stripe boundary, in
    // which case each page routes independently.
    sim::SimTime complete = start;
    const uint64_t firstPage = req.firstPage();
    for (uint32_t p = 0; p < req.pages(); ++p) {
        const uint64_t lba =
            (firstPage + p) * blockdev::kSectorsPerPage;
        const uint32_t vol = router_.volumeOf(lba);
        const Lpn lpn{router_.localLpn(lba)};
        sim::SimTime done;
        if (req.isWrite()) {
            const uint64_t stamp =
                writePayload != nullptr ? *writePayload + p : 0;
            done = volumes_[vol]->serveWrite(start, lpn, stamp, detail);
        } else {
            // Only the first page's payload is reported.
            done = volumes_[vol]->serveRead(
                start, lpn, p == 0 ? readPayload : nullptr, detail);
        }
        complete = std::max(complete, done);
    }

    // Device-level unmodeled noise: rare random stalls that the
    // performance model cannot anticipate. Mostly write-linked
    // (wear-leveling, mapping-table flushes); reads see a quarter of
    // the rate.
    const double hiccupP =
        cfg_.hiccupProbability * (req.isRead() ? 0.25 : 1.0);
    if (hiccupP > 0.0 && rng_.bernoulli(hiccupP)) {
        const sim::SimDuration hic =
            rng_.uniformInt(cfg_.hiccupMin, cfg_.hiccupMax);
        if (trace_ != nullptr)
            trace_->instant("dev", "dev.hiccup", kBusTrack, complete,
                            {{"dur_ns", hic}});
        complete += hic;
        if (detail != nullptr)
            detail->hiccup = true;
    }

    // Injected read faults: in-device retry loops show up to the host
    // only as latency spikes; reads that stay uncorrectable after
    // every retry level complete as MediaError.
    if (!faultsInert_ && req.isRead()) {
        const ReadFault rf = faults_.onRead(req.firstPage());
        if (rf.retries > 0) {
            complete += static_cast<sim::SimDuration>(rf.retries) *
                        cfg_.faults.readRetryCost;
            if (detail != nullptr)
                detail->readRetries = rf.retries;
        }
        if (rf.hard) {
            res.status = blockdev::IoStatus::MediaError;
            if (detail != nullptr)
                detail->mediaError = true;
        }
    }

    // Injected command stall: firmware wedged on housekeeping long
    // enough that a host-side timeout policy would fire.
    const sim::SimDuration stall = faultsInert_ ? 0 : faults_.stallFor();
    if (stall > 0) {
        if (trace_ != nullptr)
            trace_->instant("dev", "dev.stall", kBusTrack, complete,
                            {{"dur_ns", stall}});
        complete += stall;
        if (detail != nullptr)
            detail->stalled = true;
    }

    res.completeTime = complete;
    if (trace_ != nullptr) {
        obs::TraceArg *a = trace_->completeFill(
            "dev", "dev.request", kBusTrack, now, complete - now, 4);
        a[0] = {"lba", static_cast<int64_t>(req.lba)};
        a[1] = {"pages", static_cast<int64_t>(req.pages())};
        a[2] = {"write", req.isWrite() ? 1 : 0};
        a[3] = {"status", static_cast<int64_t>(res.status)};
    }
    return res;
}

void
SsdDevice::attachObservability(const obs::Sink &sink)
{
    trace_ = sink.trace;
    if (sink.metrics != nullptr) {
        obs::Registry &reg = *sink.metrics;
        const obs::Labels labels = {{"device", cfg_.name}};
        reg.exportCounter("dev_requests_served", labels, &requestsServed_);
        const FaultCounters &fc = faults_.counters();
        reg.exportCounter("fault_read_unc_transient", labels,
                          &fc.readUncTransient);
        reg.exportCounter("fault_read_unc_hard", labels, &fc.readUncHard);
        reg.exportCounter("fault_program_failures", labels,
                          &fc.programFailures);
        reg.exportCounter("fault_erase_failures", labels,
                          &fc.eraseFailures);
        reg.exportCounter("fault_blocks_retired", labels,
                          &fc.blocksRetired);
        reg.exportCounter("fault_stalls", labels, &fc.stalls);
        reg.exportCounter("fault_drift_events", labels, &fc.driftEvents);
    }
    for (auto &v : volumes_)
        v->attachObservability(sink, cfg_.name);
}

void
SsdDevice::applyDrift()
{
    switch (cfg_.faults.driftKind) {
      case DriftKind::ShrinkBuffer:
      case DriftKind::GrowBuffer: {
        const uint32_t cur = volumes_[0]->bufferCapacity();
        uint32_t next = std::max(
            1u, static_cast<uint32_t>(static_cast<double>(cur) *
                                      cfg_.faults.driftBufferFactor));
        // Keep the drifted buffer inside the one-program-wave bound
        // the configuration validator enforces.
        next = std::min(next, cfg_.pagesPerBlock * cfg_.planesPerVolume);
        cfg_.bufferBytes = next * blockdev::kPageSize;
        for (auto &v : volumes_)
            v->setBufferCapacity(next);
        break;
      }
      case DriftKind::ToggleReadTrigger:
        // Volumes read cfg_ by reference, so the new flush algorithm
        // takes effect on the next read.
        cfg_.readTriggerFlush = !cfg_.readTriggerFlush;
        break;
      case DriftKind::None:
        break;
    }
}

void
SsdDevice::purge(sim::SimTime now)
{
    (void)now;
    for (auto &v : volumes_)
        v->reset();
    optimalStore_.clear();
    // Gates deliberately stay monotone: a purged device still cannot
    // answer before the host interface frees up.
}

void
SsdDevice::precondition()
{
    for (uint32_t v = 0; v < cfg_.numVolumes(); ++v)
        volumes_[v]->prefill(static_cast<uint64_t>(v) << 48);
}

bool
SsdDevice::peekPage(uint64_t pageIndex, uint64_t *payload) const
{
    const uint64_t lba = pageIndex * blockdev::kSectorsPerPage;
    if (cfg_.optimalMode) {
        const auto it = optimalStore_.find(pageIndex);
        if (it == optimalStore_.end())
            return false;
        if (payload != nullptr)
            *payload = it->second;
        return true;
    }
    const uint32_t vol = router_.volumeOf(lba);
    return volumes_[vol]->peek(Lpn{router_.localLpn(lba)}, payload);
}

const VolumeCounters &
SsdDevice::volumeCounters(uint32_t volume) const
{
    assert(volume < volumes_.size());
    return volumes_[volume]->counters();
}

VolumeCounters
SsdDevice::totalCounters() const
{
    VolumeCounters t;
    for (const auto &v : volumes_) {
        const VolumeCounters &c = v->counters();
        t.writes += c.writes;
        t.reads += c.reads;
        t.flushes += c.flushes;
        t.backpressureStalls += c.backpressureStalls;
        t.gcInvocations += c.gcInvocations;
        t.gcBlocksErased += c.gcBlocksErased;
        t.gcPagesMoved += c.gcPagesMoved;
        t.slcMigrations += c.slcMigrations;
        t.bufferHits += c.bufferHits;
        t.wearLevelMoves += c.wearLevelMoves;
        t.readRefreshMoves += c.readRefreshMoves;
        t.retiredBlocks += c.retiredBlocks;
    }
    return t;
}

void
SsdDevice::saveState(recovery::StateWriter &w) const
{
    // Drift-mutable config fields: the rest of cfg_ is covered by the
    // snapshot's config hash, but these two change mid-run.
    w.u64(cfg_.bufferBytes);
    w.boolean(cfg_.readTriggerFlush);
    rng_.saveState(w);
    faults_.saveState(w);
    w.u32(static_cast<uint32_t>(volumes_.size()));
    for (const auto &v : volumes_)
        v->saveState(w);
    w.i64(busGate_.ns());
    w.i64(lastSubmit_.ns());
    w.u64(requestsServed_);
    // Serialize the optimal-mode store in key order so the snapshot
    // bytes are deterministic regardless of hash-table layout.
    std::vector<std::pair<uint64_t, uint64_t>> sorted(
        optimalStore_.begin(), // lint:allow(unordered-iter): copied out
        optimalStore_.end()); // lint:allow(unordered-iter): and sorted below
    std::sort(sorted.begin(), sorted.end());
    w.u64(sorted.size());
    for (const auto &[k, v] : sorted) {
        w.u64(k);
        w.u64(v);
    }
}

bool
SsdDevice::loadState(recovery::StateReader &r)
{
    const uint64_t bufferBytes = r.u64();
    const bool readTrigger = r.boolean();
    if (!rng_.loadState(r) || !faults_.loadState(r))
        return false;
    const uint32_t nVolumes = r.u32();
    if (r.ok() && nVolumes != volumes_.size()) {
        r.fail("device volume count does not match this configuration");
        return false;
    }
    for (auto &v : volumes_)
        if (!v->loadState(r))
            return false;
    cfg_.bufferBytes = bufferBytes;
    cfg_.readTriggerFlush = readTrigger;
    busGate_ = sim::SimTime{r.i64()};
    lastSubmit_ = sim::SimTime{r.i64()};
    requestsServed_ = r.u64();
    const uint64_t nStore = r.checkCount(r.u64(), 16);
    optimalStore_.clear();
    for (uint64_t i = 0; i < nStore; ++i) {
        const uint64_t k = r.u64();
        const uint64_t v = r.u64();
        optimalStore_[k] = v;
    }
    return r.ok();
}

} // namespace ssdcheck::ssd
