#include "core/diagnosis.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <cmath>

#include "blockdev/inflight_window.h"
#include "stats/chi_squared.h"
#include "stats/histogram.h"
#include "workload/pattern.h"

namespace ssdcheck::core {

using blockdev::IoRequest;
using blockdev::IoType;
using blockdev::kSectorsPerPage;

namespace {

/** Settle gap inserted between sub-tests. */
constexpr sim::SimDuration kSettle = sim::milliseconds(200);

/** Median of a non-empty vector (copies; inputs are small). */
template <typename T>
T
medianOf(std::vector<T> v)
{
    assert(!v.empty());
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
}

/**
 * @p n 4KB writes to @p pat's addresses at queue depth @p qd from
 * @p start. @return the clock after the last completion. Templated on
 * the concrete pattern so nextLba() can be devirtualized.
 */
template <typename Pattern>
sim::SimTime
driveWrites(blockdev::BlockDevice &dev, Pattern &pat, sim::Rng &rng,
            uint64_t n, uint32_t qd, sim::SimTime start)
{
    blockdev::InflightWindow window(qd);
    sim::SimTime t = start;
    for (uint64_t i = 0; i < n; ++i) {
        t = window.admit(t);
        const IoRequest req{pat.nextLba(rng), kSectorsPerPage, IoType::Write};
        window.push(dev.submit(req, t).completeTime);
    }
    return window.drain(t);
}

} // namespace

DiagnosisRunner::DiagnosisRunner(blockdev::BlockDevice &dev,
                                 DiagnosisConfig cfg, sim::SimTime startTime)
    : dev_(dev), cfg_(std::move(cfg)), rng_(cfg_.seed), now_(startTime)
{
}

uint32_t
DiagnosisRunner::highestScanBit() const
{
    if (cfg_.maxBit != 0)
        return cfg_.maxBit;
    const uint64_t sectors = dev_.capacitySectors();
    uint32_t top = 0;
    while ((1ULL << (top + 1)) < sectors)
        ++top;
    // The pinned/flipped bit must stay strictly inside the range.
    return top - 1;
}

void
DiagnosisRunner::precondition()
{
    dev_.purge(now_);
    const uint64_t pages = dev_.capacityPages();
    sim::Rng rng = rng_.fork(0xfee1);

    // SNIA-style: sequential fill, then random churn to fragment
    // blocks so GC reaches its steady state.
    workload::SequentialPattern seq(0, pages);
    now_ = driveWrites(dev_, seq, rng, pages, 32, now_) + kSettle;
    // GC's steady state (victim valid-page distribution) converges
    // only after substantially more than one capacity of random
    // overwrites.
    workload::UniformPattern rnd(pages);
    now_ = driveWrites(dev_, rnd, rng, (pages * 3) / 4, 32, now_) + kSettle;
}

void
DiagnosisRunner::sequentialFill()
{
    dev_.purge(now_);
    const uint64_t pages = dev_.capacityPages();
    sim::Rng rng = rng_.fork(0x5e0f);
    workload::SequentialPattern seq(0, pages);
    now_ = driveWrites(dev_, seq, rng, pages, 32, now_) + kSettle;
}

AllocVolumeScan
DiagnosisRunner::scanAllocationVolumes()
{
    // Throughput here must reflect the structural parallelism of the
    // volumes, not the GC regime, so every measurement starts from a
    // freshly purged device (the paper notes SSDs rarely invoke GC
    // without preconditioning). Each run is far smaller than the
    // free pool, so flush bandwidth is the only bottleneck.
    auto writeMbps = [this](auto &&pat) {
        if (cfg_.precondition)
            dev_.purge(now_);
        const sim::SimTime start = now_;
        const sim::SimTime end =
            driveWrites(dev_, pat, rng_, cfg_.allocScanRequests,
                        cfg_.allocScanQueueDepth, start);
        now_ = end + kSettle;
        const double bytes = static_cast<double>(cfg_.allocScanRequests) *
                             blockdev::kPageSize;
        return bytes / 1e6 / sim::toSeconds(end - start);
    };
    AllocVolumeScan scan;
    const uint64_t pages = dev_.capacityPages();
    scan.baselineMbps = writeMbps(workload::UniformPattern(pages));
    const uint32_t top = highestScanBit();
    for (uint32_t bit = 3; bit <= top; ++bit) {
        const double mbps =
            writeMbps(workload::BitFixedPattern(pages, bit, false));
        scan.perBitMbps.emplace_back(bit, mbps);
        if (mbps < scan.baselineMbps * cfg_.allocDropRatio)
            scan.volumeBits.push_back(bit);
    }
    return scan;
}

std::vector<uint32_t>
DiagnosisRunner::collectGcIntervals(uint64_t lbaA, int flipBit)
{
    std::unique_ptr<workload::AddressPattern> pat;
    if (flipBit < 0)
        pat = std::make_unique<workload::FixedPattern>(lbaA);
    else
        pat = std::make_unique<workload::FlipPattern>(
            lbaA, static_cast<uint32_t>(flipBit));

    std::vector<uint32_t> intervals;
    sim::SimTime t = now_;
    uint64_t writesSinceGc = 0;
    bool seenFirst = false;
    uint32_t warmupLeft = 5;
    for (uint64_t i = 0; i < cfg_.gcScanMaxWrites; ++i) {
        IoRequest req;
        req.type = IoType::Write;
        req.lba = pat->nextLba(rng_);
        req.sectors = kSectorsPerPage;
        const auto res = dev_.submit(req, t);
        t = res.completeTime;
        if (!res.clean())
            continue; // tainted latency is neither a write nor a GC mark
        ++writesSinceGc;
        if (res.latency() > cfg_.gcLatencyThreshold) {
            if (seenFirst) {
                if (warmupLeft > 0)
                    --warmupLeft;
                else
                    intervals.push_back(
                        static_cast<uint32_t>(writesSinceGc));
            }
            seenFirst = true;
            writesSinceGc = 0;
            if (intervals.size() >= cfg_.gcEventsPerRun)
                break;
        }
    }
    now_ = t + kSettle;
    return intervals;
}

GcVolumeScan
DiagnosisRunner::scanGcVolumes()
{
    GcVolumeScan scan;
    // Any fixed page-aligned address works; keep clear of bit
    // positions that will be flipped by choosing a low page.
    const uint64_t lbaA = 5 * kSectorsPerPage;
    scan.fixedIntervals = collectGcIntervals(lbaA, -1);
    if (scan.fixedIntervals.size() < 10)
        return scan; // GC not observable on this device

    // Shared binning across Fixed and all Flip runs.
    const uint32_t maxFixed =
        *std::max_element(scan.fixedIntervals.begin(),
                          scan.fixedIntervals.end());

    const uint32_t top = highestScanBit();
    for (uint32_t bit = 3; bit <= top; ++bit) {
        auto flip = collectGcIntervals(lbaA, static_cast<int>(bit));
        uint32_t maxAll = maxFixed;
        for (uint32_t v : flip)
            maxAll = std::max(maxAll, v);
        const int64_t width = std::max<int64_t>(1, maxAll / 24);
        stats::Histogram hFixed(0, width, 26), hFlip(0, width, 26);
        for (uint32_t v : scan.fixedIntervals)
            hFixed.add(v);
        for (uint32_t v : flip)
            hFlip.add(v);
        const auto res = stats::chiSquaredTwoSample(hFixed, hFlip);
        // An invalid test (too little data) conservatively reads as
        // "same distribution".
        const double p = res.valid ? res.pValue : 1.0;
        scan.perBitPValue.emplace_back(bit, p);
        // The threshold is strict (default 1e-3) because one p-value
        // is drawn per scanned bit: with enough events per run a true
        // GC-volume bit drives p down to ~1e-5 or below, while null
        // bits stay roughly uniform, so the strict cut controls the
        // multiple-comparison false-positive rate without heuristics.
        if (p < cfg_.gcPValueThreshold)
            scan.gcVolumeBits.push_back(bit);
        scan.flipIntervals[bit] = std::move(flip);
    }
    return scan;
}

uint64_t
randomVolume0Lba(const blockdev::BlockDevice &dev, sim::Rng &rng,
                 const std::vector<uint32_t> &volumeBits, bool upperHalf)
{
    const uint64_t pages = dev.capacityPages();
    // Partition reader/writer regions on page bit 10 (4MB interleave)
    // so both spread over the device without overlapping.
    constexpr uint32_t kRegionSectorBit = 13;
    for (;;) {
        uint64_t lba = rng.nextBelow(pages) * kSectorsPerPage;
        for (uint32_t b : volumeBits)
            lba &= ~(1ULL << b);
        if (upperHalf)
            lba |= (1ULL << kRegionSectorBit);
        else
            lba &= ~(1ULL << kRegionSectorBit);
        if (lba + kSectorsPerPage <= dev.capacitySectors())
            return lba;
    }
}

FlushPeriodEstimate
estimateFlushPeriod(const std::vector<uint64_t> &eventWriteCounts,
                    const std::vector<sim::SimDuration> &eventLatencies,
                    uint32_t minPages)
{
    FlushPeriodEstimate est;
    if (eventWriteCounts.size() < 5)
        return est;
    std::vector<uint64_t> diffs;
    for (size_t i = 1; i < eventWriteCounts.size(); ++i)
        diffs.push_back(eventWriteCounts[i] - eventWriteCounts[i - 1]);

    // Sporadic unmodeled stalls (the device's own noise) inject
    // spurious events that fragment the true period, and an
    // occasional window can be missed entirely, so a plain median/MAD
    // is brittle. Instead score each candidate period by how much of
    // the event train it reconstructs: fragments must sum back to the
    // period, missed windows show up as clean multiples.
    auto tolOf = [](uint64_t c) {
        return std::max<uint64_t>(
            2, static_cast<uint64_t>(0.1 * static_cast<double>(c)));
    };
    const uint64_t span =
        eventWriteCounts.back() - eventWriteCounts.front();

    size_t bestHits = 0;
    uint64_t bestCand = 0;
    double bestScore = 0.0;
    for (const uint64_t cand : diffs) {
        if (cand < minPages)
            continue;
        const uint64_t tol = tolOf(cand);
        uint64_t acc = 0;
        size_t hits = 0;
        for (const uint64_t d : diffs) {
            acc += d;
            if (acc + tol < cand)
                continue; // still accumulating fragments
            const uint64_t k = (acc + cand / 2) / cand;
            const uint64_t target = k * cand;
            const uint64_t err =
                acc > target ? acc - target : target - acc;
            if (k >= 1 && err <= tol * k)
                ++hits; // one reconstructed period boundary
            acc = 0;    // aligned or noise either way: restart
        }
        const double expected =
            static_cast<double>(span) / static_cast<double>(cand);
        if (expected < 4.0)
            continue;
        const double score = static_cast<double>(hits) / expected;
        if (score > bestScore ||
            (score == bestScore && hits > bestHits)) {
            bestScore = score;
            bestHits = hits;
            bestCand = cand;
        }
    }
    if (bestCand == 0 || bestHits < 4 || bestScore < 0.55)
        return est; // no period explains the event train
    // Refine: median of the diffs that directly match the candidate.
    std::vector<uint64_t> cluster;
    for (const uint64_t d : diffs) {
        const uint64_t tol = tolOf(bestCand);
        if (d + tol >= bestCand && d <= bestCand + tol)
            cluster.push_back(d);
    }
    const uint64_t period = cluster.empty() ? bestCand : medianOf(cluster);
    if (period < minPages)
        return est;
    est.pages = static_cast<uint32_t>(period);
    if (!eventLatencies.empty()) {
        double sum = 0.0;
        for (auto l : eventLatencies)
            sum += static_cast<double>(l);
        est.meanSpikeLatency = static_cast<sim::SimDuration>(
            sum / static_cast<double>(eventLatencies.size()));
    }
    return est;
}

DiagnosisRunner::SizeEstimate
DiagnosisRunner::backgroundReadTest(
    sim::SimDuration thinktime, const std::vector<uint32_t> &volumeBits,
    std::vector<std::pair<uint64_t, sim::SimDuration>> *series)
{
    sim::SimTime tw = now_;
    sim::SimTime tr = now_ + sim::microseconds(40);
    sim::SimTime lastSubmit = now_;
    uint64_t writesDone = 0;
    uint64_t readsDone = 0;
    bool inSpike = false;
    std::vector<uint64_t> eventCounts;
    std::vector<sim::SimDuration> eventLats;

    while (writesDone < cfg_.wbTestWrites) {
        // Keep the background-read rate tied to the write rate (a few
        // probes per write) so a longer thinktime doesn't flood the
        // run with reads and drown the flush signal in device noise.
        const bool readBudget = readsDone < 3 * writesDone + 10;
        if (tw <= tr || !readBudget) {
            tw = std::max(tw, lastSubmit);
            IoRequest req;
            req.type = IoType::Write;
            req.lba = randomVolume0Lba(dev_, rng_, volumeBits, false);
            req.sectors = kSectorsPerPage;
            const auto res = dev_.submit(req, tw);
            lastSubmit = tw;
            tw = res.completeTime + thinktime;
            ++writesDone;
        } else {
            tr = std::max(tr, lastSubmit);
            IoRequest req;
            req.type = IoType::Read;
            req.lba = randomVolume0Lba(dev_, rng_, volumeBits, true);
            req.sectors = kSectorsPerPage;
            const auto res = dev_.submit(req, tr);
            lastSubmit = tr;
            ++readsDone;
            if (!res.clean()) {
                // A failed/retried probe read is no flush evidence
                // either way; drop it without disturbing the spike
                // detector's phase.
                tr = res.completeTime + cfg_.readGap;
                continue;
            }
            const sim::SimDuration lat = res.latency();
            if (series != nullptr)
                series->emplace_back(writesDone, lat);
            if (lat > cfg_.hlLatencyThreshold) {
                // One event per contiguous blocked window.
                if (!inSpike) {
                    eventCounts.push_back(writesDone);
                    eventLats.push_back(lat);
                    inSpike = true;
                }
            } else {
                inSpike = false;
            }
            tr = res.completeTime + cfg_.readGap;
        }
    }
    now_ = std::max(tw, tr) + kSettle;
    return estimateFlushPeriod(eventCounts, eventLats, cfg_.minBufferPages);
}

bool
DiagnosisRunner::readTriggerFlushTest(
    const std::vector<uint32_t> &volumeBits)
{
    sim::SimTime t = now_;
    // Per-k tallies: does a read go slow no matter how few writes
    // preceded it?
    uint32_t hl[5] = {0, 0, 0, 0, 0};
    uint32_t total[5] = {0, 0, 0, 0, 0};

    for (uint32_t round = 0; round < cfg_.readTriggerRounds; ++round) {
        const uint32_t k = 1 + static_cast<uint32_t>(rng_.nextBelow(4));
        for (uint32_t i = 0; i < k; ++i) {
            IoRequest req;
            req.type = IoType::Write;
            req.lba = randomVolume0Lba(dev_, rng_, volumeBits, false);
            req.sectors = kSectorsPerPage;
            const auto res = dev_.submit(req, t);
            t = res.completeTime + sim::microseconds(100) +
                rng_.nextBelow(200) * 1000;
        }
        IoRequest req;
        req.type = IoType::Read;
        req.lba = randomVolume0Lba(dev_, rng_, volumeBits, true);
        req.sectors = kSectorsPerPage;
        const auto res = dev_.submit(req, t);
        if (res.clean()) {
            if (res.latency() > cfg_.hlLatencyThreshold)
                ++hl[k];
            ++total[k];
        }
        t = res.completeTime + sim::microseconds(150) +
            rng_.nextBelow(400) * 1000;
    }
    now_ = t + kSettle;

    for (uint32_t k = 1; k <= 4; ++k) {
        if (total[k] < 5)
            return false;
        const double frac =
            static_cast<double>(hl[k]) / static_cast<double>(total[k]);
        if (frac < 0.7)
            return false;
    }
    return true;
}

DiagnosisRunner::SizeEstimate
DiagnosisRunner::writeOnlyTest(const std::vector<uint32_t> &volumeBits)
{
    sim::SimTime t = now_;
    std::vector<uint64_t> eventCounts;
    std::vector<sim::SimDuration> eventLats;
    for (uint64_t i = 0; i < cfg_.wbTestWrites; ++i) {
        IoRequest req;
        req.type = IoType::Write;
        req.lba = randomVolume0Lba(dev_, rng_, volumeBits, false);
        req.sectors = kSectorsPerPage;
        const auto res = dev_.submit(req, t);
        if (res.clean() && res.latency() > cfg_.hlLatencyThreshold) {
            eventCounts.push_back(i);
            eventLats.push_back(res.latency());
        }
        t = res.completeTime + sim::microseconds(300);
    }
    now_ = t + kSettle;
    return estimateFlushPeriod(eventCounts, eventLats, cfg_.minBufferPages);
}

WbAnalysis
DiagnosisRunner::analyzeWriteBuffer(const std::vector<uint32_t> &volumeBits)
{
    WbAnalysis out;

    // Algorithm 1, line 1: background_read_test across several
    // thinktimes; all runs must agree on the size.
    std::vector<uint32_t> sizes;
    sim::SimDuration spikeSum = 0;
    bool first = true;
    for (const auto tt : cfg_.thinktimes) {
        auto *series = first ? &out.readLatencySeries : nullptr;
        const SizeEstimate est = backgroundReadTest(tt, volumeBits, series);
        first = false;
        sizes.push_back(est.pages);
        spikeSum += est.meanSpikeLatency;
    }
    const bool allFound =
        std::all_of(sizes.begin(), sizes.end(),
                    [](uint32_t s) { return s > 0; });
    const uint32_t sMin = *std::min_element(sizes.begin(), sizes.end());
    const uint32_t sMax = *std::max_element(sizes.begin(), sizes.end());
    if (allFound &&
        sMax - sMin <= std::max<uint32_t>(2, medianOf(sizes) / 10)) {
        out.bufferBytes =
            static_cast<uint64_t>(medianOf(sizes)) * blockdev::kPageSize;
        out.bufferType = BufferTypeFeature::Back;
        out.flushAlgorithms.fullTrigger = true;
        out.meanSpikeLatency =
            spikeSum / static_cast<sim::SimDuration>(sizes.size());
        return out;
    }

    // Algorithm 1, line 4: probe for the read-trigger flush algorithm.
    if (readTriggerFlushTest(volumeBits)) {
        out.flushAlgorithms.fullTrigger = true;
        out.flushAlgorithms.readTrigger = true;
        const SizeEstimate est = writeOnlyTest(volumeBits);
        if (est.pages > 0) {
            out.bufferBytes =
                static_cast<uint64_t>(est.pages) * blockdev::kPageSize;
            out.bufferType = BufferTypeFeature::Fore;
            out.meanSpikeLatency = est.meanSpikeLatency;
        } else {
            out.bufferType = BufferTypeFeature::Unknown;
        }
        return out;
    }

    // Algorithm 1, line 12: nothing usable found.
    return out;
}

FeatureSet
DiagnosisRunner::extractFeatures()
{
    FeatureSet fs;
    // 1. Allocation volumes on a purged device (flush-bandwidth
    //    bound, GC silent).
    const AllocVolumeScan alloc = scanAllocationVolumes();
    fs.allocationVolumeBits = alloc.volumeBits;

    // 2. GC volumes need GC active: full SNIA-style precondition.
    if (cfg_.precondition)
        precondition();
    const GcVolumeScan gc = scanGcVolumes();
    fs.gcVolumeBits = gc.gcVolumeBits;

    // 3. Buffer analysis wants flush events unobscured by heavy GC:
    //    sequential fill leaves the free pool deep enough that the
    //    tests only exercise the buffer.
    if (cfg_.precondition)
        sequentialFill();

    // The buffer analysis isolates one volume using both scans' bits.
    const WbAnalysis wb = analyzeWriteBuffer(fs.volumeBits());
    fs.bufferBytes = wb.bufferBytes;
    fs.bufferType = wb.bufferType;
    fs.flushAlgorithms = wb.flushAlgorithms;
    fs.observedFlushOverheadNs = wb.meanSpikeLatency;
    return fs;
}

} // namespace ssdcheck::core
