/**
 * @file
 * Ablation — the paper's §VI future work ("we expect more feature
 * extractions and performance models (e.g., wear-leveling, ECC, SLC
 * caching) can improve the accuracy... We plan to add these models in
 * the future work") implemented and measured: a two-cluster
 * secondary-feature model that separates SLC-migration events from GC
 * events and predicts each from its own interval history.
 *
 * Evaluated on the SLC-cache devices (SSD D and E) over the
 * write-intensive workloads.
 */
#include "bench_common.h"

#include "recovery/shard.h"
#include "workload/snia_synth.h"

using namespace ssdcheck;

namespace {

std::pair<double, double>
runVariant(ssd::SsdModel model, bool useSecondary)
{
    auto d = bench::diagnosePreset(model);
    core::RuntimeConfig rc;
    rc.useSecondaryModel = useSecondary;
    core::SsdCheck check(d.features, rc);
    sim::SimTime now = d.now;
    double hl = 0, nl = 0;
    int n = 0;
    for (const auto w :
         {workload::SniaWorkload::TPCE, workload::SniaWorkload::Homes,
          workload::SniaWorkload::Web, workload::SniaWorkload::RwMixed}) {
        const auto trace = workload::buildSniaTrace(
            w, d.dev->capacityPages(), 0.03, 1000 + static_cast<int>(w));
        sim::SimTime end = now;
        const auto acc = recovery::evaluatePredictionAccuracy(
            *d.dev, check, trace, now, &end);
        now = end + sim::milliseconds(100);
        hl += acc.hlAccuracy() * 100;
        nl += acc.nlAccuracy() * 100;
        ++n;
    }
    return {hl / n, nl / n};
}

} // namespace

int
main()
{
    bench::banner("Ablation (§VI)", "Secondary-feature (SLC migration) "
                                    "model on the SLC-cache devices");

    stats::TablePrinter t;
    t.header({"SSD", "base model (HL/NL)", "+ secondary model (HL/NL)"});
    for (const auto m : {ssd::SsdModel::D, ssd::SsdModel::E}) {
        const auto base = runVariant(m, false);
        const auto sec = runVariant(m, true);
        t.row({ssd::toString(m),
               stats::TablePrinter::num(base.first, 1) + " / " +
                   stats::TablePrinter::num(base.second, 1),
               stats::TablePrinter::num(sec.first, 1) + " / " +
                   stats::TablePrinter::num(sec.second, 1)});
    }
    t.print(std::cout);
    std::cout
        << "\nThe model separates the two long-event classes cleanly "
           "(see tests/secondary_model_test.cc), but on these presets "
           "most residual HL misses come from aperiodic unmodeled "
           "stalls rather than from conflating migration with GC, so "
           "the end-to-end gain is small — an honest negative result "
           "for the paper's future-work hypothesis under our noise "
           "model.\n";
    return 0;
}
