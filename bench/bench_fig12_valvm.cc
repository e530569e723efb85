/**
 * @file
 * Fig. 12 — VA-LVM vs Linear-LVM: throughput and 99.5th-percentile
 * latency of the read-intensive tenant for all nine combinations of a
 * read-intensive and a write-intensive workload on SSD D.
 *
 * Paper: up to 4.29x (avg 2.38x) read throughput; tail down to 6.53%
 * (avg 20.3%) of Linear-LVM's.
 */
#include "bench_common.h"

#include <algorithm>
#include <array>

#include "usecases/lvm.h"
#include "usecases/runner.h"
#include "workload/snia_synth.h"

using namespace ssdcheck;

namespace {

struct PairResult
{
    double readMbps;
    sim::SimDuration readTail;
    double writeMbps;
};

PairResult
runPair(workload::SniaWorkload readW, workload::SniaWorkload writeW,
        bool volumeAware)
{
    ssd::SsdDevice dev(ssd::makePreset(ssd::SsdModel::D));
    dev.precondition();
    const uint64_t span = dev.capacityPages() / 4; // per-tenant span
    const auto readTrace = workload::buildSniaTrace(readW, span, 0.008, 3);
    const auto writeTrace =
        workload::buildSniaTrace(writeW, span, 0.012, 4);

    auto vols = volumeAware ? usecases::makeVolumeAwareVolumes(
                                  dev, dev.config().volumeBits)
                            : usecases::makeLinearVolumes(dev, 2);
    // The writer loops so the colocation pressure lasts for the whole
    // read-tenant measurement, as in the paper's concurrent setup.
    const auto res = usecases::runClosedLoop(
        {{.trace = &readTrace, .dev = vols[0].get()},
         {.trace = &writeTrace, .dev = vols[1].get(), .loop = true}},
        sim::kTimeZero);
    return PairResult{res[0].throughputMbps(),
                      res[0].readLatency.percentile(99.5),
                      res[1].throughputMbps()};
}

} // namespace

int
main()
{
    bench::banner("Fig. 12", "VA-LVM vs Linear-LVM on SSD D: nine "
                             "read x write tenant combinations");

    stats::TablePrinter t;
    t.header({"combo", "tput Linear", "tput VA", "speedup",
              "p99.5 Linear", "p99.5 VA", "tail ratio"});
    double speedupSum = 0, tailSum = 0, speedupMax = 0;
    double tailMin = 1e9;
    int n = 0;
    for (const auto r : workload::readIntensiveWorkloads()) {
        for (const auto w : workload::writeIntensiveWorkloads()) {
            const PairResult lin = runPair(r, w, false);
            const PairResult va = runPair(r, w, true);
            const double speedup = va.readMbps / lin.readMbps;
            const double tail = static_cast<double>(va.readTail) /
                                static_cast<double>(lin.readTail);
            speedupSum += speedup;
            tailSum += tail;
            speedupMax = std::max(speedupMax, speedup);
            tailMin = std::min(tailMin, tail);
            ++n;
            t.row({toString(r) + "+" + toString(w),
                   stats::TablePrinter::num(lin.readMbps, 1),
                   stats::TablePrinter::num(va.readMbps, 1),
                   stats::TablePrinter::num(speedup, 2) + "x",
                   sim::formatDuration(lin.readTail),
                   sim::formatDuration(va.readTail),
                   stats::TablePrinter::pct(tail, 1)});
        }
    }
    t.print(std::cout);
    std::cout << "\nread-tenant speedup: max "
              << stats::TablePrinter::num(speedupMax, 2) << "x, avg "
              << stats::TablePrinter::num(speedupSum / n, 2)
              << "x   (paper: up to 4.29x, avg 2.38x)\n"
              << "tail latency vs Linear: min "
              << stats::TablePrinter::pct(tailMin, 1) << ", avg "
              << stats::TablePrinter::pct(tailSum / n, 1)
              << "   (paper: down to 6.53%, avg 20.3%)\n";
    return 0;
}
