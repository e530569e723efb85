/**
 * @file
 * Fig. 3 — Performance impact of WB and GC on the prototyped SSD.
 *
 * Five variants of the instrumented prototype run a 4KB random-write
 * workload:
 *   (a) latency distribution per variant (unsaturated run, so each
 *       request's latency reflects its own cause; paper: SSD_WB
 *       8.24x, SSD_GC 46.67x, SSD_All 47.12x over Optimal at p99.5);
 *   (b) throughput over time per variant (saturated QD16 run);
 *   (c) frequency of operation classes (paper: Others 93.37%,
 *       WB 6.39%, GC 0.24%);
 *   (d) latency-overhead breakdown, attributed to each request's
 *       ground-truth cause (paper: WB+GC = 92.3% of HL overhead,
 *       WB 43.4% / GC 48.9%).
 */
#include "bench_common.h"

#include <algorithm>

#include "stats/latency_recorder.h"
#include "stats/timeline.h"
#include "usecases/runner.h"
#include "workload/synthetic.h"

using namespace ssdcheck;

namespace {

constexpr int kClasses = 3; // Others, WB, GC
const char *kClassName[] = {"Others", "WB", "GC"};

struct VariantResult
{
    std::string name;
    stats::LatencyRecorder latency;        ///< Unsaturated QD1 run.
    stats::Timeline timeline{sim::milliseconds(100)}; ///< QD16 run.
    uint64_t count[kClasses] = {};
    double sumLatUs[kClasses] = {};
    uint64_t hlCount[kClasses] = {};
    double hlSumLatUs[kClasses] = {};
};

int
classOf(const ssd::IoDetail &d)
{
    switch (d.cause()) {
      case ssd::IoDetail::Cause::GarbageCollection:
        return 2;
      case ssd::IoDetail::Cause::WriteBuffer:
        return 1;
      case ssd::IoDetail::Cause::Others:
        break;
    }
    return 0;
}

VariantResult
runVariant(ssd::PrototypeVariant v)
{
    VariantResult out;
    out.name = toString(v);
    ssd::SsdDevice dev(ssd::makePrototype(v));
    dev.precondition();
    // Steady-state churn before measuring.
    const auto warm =
        workload::buildRandomWriteTrace(40000, dev.capacityPages(), 9);
    sim::SimTime t = usecases::runClosedLoop(
        {{.trace = &warm, .dev = &dev}}, sim::kTimeZero)[0].endTime;

    // Latency run: QD1 with thinktime so each latency reflects its
    // own request's cause, not upstream queueing.
    const auto latTrace =
        workload::buildRandomWriteTrace(120000, dev.capacityPages(), 10);
    for (const auto &rec : latTrace.records()) {
        ssd::IoDetail d;
        const auto res = dev.submitDetailed(rec.req, t, &d);
        const auto lat = res.latency();
        out.latency.add(lat);
        const int cls = classOf(d);
        ++out.count[cls];
        out.sumLatUs[cls] += sim::toMicros(lat);
        if (lat > sim::microseconds(250)) {
            ++out.hlCount[cls];
            out.hlSumLatUs[cls] += sim::toMicros(lat);
        }
        t = res.completeTime + sim::microseconds(400);
    }

    // Throughput run: saturated QD16.
    const auto tputTrace =
        workload::buildRandomWriteTrace(60000, dev.capacityPages(), 11);
    out.timeline = usecases::runClosedLoop(
        {{.trace = &tputTrace, .dev = &dev, .queueDepth = 16}}, t)[0].timeline;
    return out;
}

} // namespace

int
main()
{
    bench::banner("Fig. 3", "WB/GC impact on the prototyped SSD "
                            "(5 variants, 4KB random writes)");

    std::vector<VariantResult> results;
    for (const auto v : ssd::allPrototypeVariants())
        results.push_back(runVariant(v));
    const double optTail =
        sim::toMicros(results[0].latency.percentile(99.5));

    std::cout << "(a) latency distribution (us)\n";
    stats::TablePrinter a;
    a.header({"variant", "p50", "p99", "p99.5", "p99.9",
              "p99.5 vs Optimal"});
    for (const auto &r : results) {
        const double tail = sim::toMicros(r.latency.percentile(99.5));
        a.row({r.name,
               stats::TablePrinter::num(
                   sim::toMicros(r.latency.percentile(50)), 0),
               stats::TablePrinter::num(
                   sim::toMicros(r.latency.percentile(99)), 0),
               stats::TablePrinter::num(tail, 0),
               stats::TablePrinter::num(
                   sim::toMicros(r.latency.percentile(99.9)), 0),
               stats::TablePrinter::num(tail / optTail, 2) + "x"});
    }
    a.print(std::cout);
    std::cout << "paper: SSD_WB 8.24x, SSD_GC 46.67x, SSD_All 47.12x "
                 "over SSD_Optimal at p99.5.\n\n";

    std::cout << "(b) saturated QD16 throughput: level and "
                 "fluctuation across 100ms windows\n";
    stats::TablePrinter b;
    b.header({"variant", "mean MB/s", "vs Others", "CV", "min win",
              "max win"});
    const double othersMean = results[1].timeline.meanMbps();
    for (const auto &r : results) {
        double lo = 1e18, hi = 0;
        for (size_t w = 0; w < r.timeline.numWindows(); ++w) {
            lo = std::min(lo, r.timeline.mbps(w));
            hi = std::max(hi, r.timeline.mbps(w));
        }
        b.row({r.name, stats::TablePrinter::num(r.timeline.meanMbps(), 0),
               stats::TablePrinter::pct(r.timeline.meanMbps() / othersMean,
                                        0),
               stats::TablePrinter::num(r.timeline.mbpsCv(), 2),
               stats::TablePrinter::num(lo, 0),
               stats::TablePrinter::num(hi, 0)});
    }
    b.print(std::cout);
    std::cout << "paper: WB flush degrades throughput (to ~70%); GC adds "
                 "large fluctuation; SSD_All shows both.\n\n";

    const auto &all = results.back(); // SSD_All
    const double n = static_cast<double>(all.count[0] + all.count[1] +
                                         all.count[2]);
    std::cout << "(c) portion of each operation class (SSD_All)\n";
    stats::TablePrinter c;
    c.header({"class", "measured", "paper"});
    const char *paperPortion[] = {"93.37%", "6.39%", "0.24%"};
    for (int i = 0; i < kClasses; ++i)
        c.row({kClassName[i], stats::TablePrinter::pct(all.count[i] / n),
               paperPortion[i]});
    c.print(std::cout);

    // Overhead = latency above the Others-class median of the same
    // run, attributed per request to its ground-truth cause.
    const double baseUs = all.count[0] > 0
                              ? all.sumLatUs[0] /
                                    static_cast<double>(all.count[0])
                              : 0.0;
    double over[kClasses], hlOver[kClasses];
    double overSum = 0, hlOverSum = 0;
    for (int i = 0; i < kClasses; ++i) {
        over[i] = std::max(
            0.0, all.sumLatUs[i] -
                     static_cast<double>(all.count[i]) * baseUs);
        hlOver[i] = std::max(
            0.0, all.hlSumLatUs[i] -
                     static_cast<double>(all.hlCount[i]) * baseUs);
        overSum += over[i];
        hlOverSum += hlOver[i];
    }
    std::cout << "\n(d) latency-overhead breakdown (SSD_All)\n";
    stats::TablePrinter d;
    d.header({"class", "all requests", "HL requests", "paper (HL)"});
    const char *paperHl[] = {"7.7%", "43.4%", "48.9%"};
    for (int i = 0; i < kClasses; ++i)
        d.row({kClassName[i], stats::TablePrinter::pct(over[i] / overSum),
               stats::TablePrinter::pct(hlOver[i] / hlOverSum),
               paperHl[i]});
    d.print(std::cout);
    std::cout << "paper: WB+GC = 44.3% of all overhead and 92.3% of "
                 "HL overhead.\n";
    return 0;
}
