/**
 * @file
 * Fig. 1 — Irregular performance behaviors in commodity SSDs.
 *
 * (a) Latency CDF of a random write+read mix on three devices: every
 *     device shows a long tail (orders of magnitude above the median).
 * (b) Throughput over time for each device: intra-device fluctuation
 *     and inter-device spread.
 */
#include "bench_common.h"

#include <algorithm>

#include "usecases/runner.h"
#include "workload/synthetic.h"

using namespace ssdcheck;

int
main()
{
    bench::banner("Fig. 1", "Irregular behaviors: tail latency CDFs and "
                            "throughput fluctuation on commodity SSDs");

    const ssd::SsdModel models[] = {ssd::SsdModel::A, ssd::SsdModel::C,
                                    ssd::SsdModel::F};

    std::vector<usecases::StreamResult> results;
    for (const auto m : models) {
        ssd::SsdDevice dev(ssd::makePreset(m));
        core::DiagnosisRunner prep(dev, core::DiagnosisConfig{});
        prep.precondition(); // SNIA steady state
        const auto trace =
            workload::buildRwMixedTrace(150000, dev.capacityPages(), 42);
        results.push_back(usecases::runClosedLoop(
            {{.trace = &trace, .dev = &dev}}, prep.now())[0]);
        results.back().name = dev.name();
    }

    std::cout << "(a) latency CDF points (us)\n";
    stats::TablePrinter cdf;
    cdf.header({"percentile", results[0].name, results[1].name,
                results[2].name});
    for (const double p :
         {50.0, 90.0, 99.0, 99.5, 99.9, 99.99, 100.0}) {
        cdf.row({stats::TablePrinter::num(p, 2),
                 stats::TablePrinter::num(
                     sim::toMicros(results[0].latency.percentile(p)), 0),
                 stats::TablePrinter::num(
                     sim::toMicros(results[1].latency.percentile(p)), 0),
                 stats::TablePrinter::num(
                     sim::toMicros(results[2].latency.percentile(p)), 0)});
    }
    cdf.print(std::cout);
    std::cout << "\npaper: every SSD shows an extreme latency tail "
                 "(>100x the median at the 99.9th+).\n\n";

    std::cout << "(b) throughput over time (MB/s per 100ms window)\n";
    stats::TablePrinter tp;
    tp.header({"window", results[0].name, results[1].name,
               results[2].name});
    const size_t windows = std::min({results[0].timeline.numWindows(),
                                     results[1].timeline.numWindows(),
                                     results[2].timeline.numWindows(),
                                     size_t{12}});
    for (size_t w = 0; w < windows; ++w) {
        tp.row({std::to_string(w),
                stats::TablePrinter::num(results[0].timeline.mbps(w), 1),
                stats::TablePrinter::num(results[1].timeline.mbps(w), 1),
                stats::TablePrinter::num(results[2].timeline.mbps(w), 1)});
    }
    tp.print(std::cout);
    std::cout << "\nthroughput fluctuation (CV) per device:";
    for (const auto &r : results)
        std::cout << "  " << r.name << "="
                  << stats::TablePrinter::num(r.timeline.mbpsCv(), 2);
    std::cout << "\npaper: large time-dependent fluctuation within each "
                 "device and large differences across devices.\n";
    return 0;
}
