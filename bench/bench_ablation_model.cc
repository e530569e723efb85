/**
 * @file
 * Ablation — contribution of each model component to HL accuracy.
 *
 * The paper calls out two of these directly: "the allocation volume
 * model substantially increases SSDcheck's accuracy on SSD D and E
 * compared to extremely low accuracy of SSDcheck without the model"
 * (§V-B) and "calibration engine, however, quickly resolves the
 * discrepancy". This bench quantifies both, plus the history-based GC
 * model, by re-running the Fig. 11 evaluation with one component
 * disabled at a time.
 */
#include "bench_common.h"

#include "recovery/shard.h"
#include "workload/snia_synth.h"

using namespace ssdcheck;

namespace {

struct Cell
{
    double hl;
    double nl;
};

Cell
runVariant(ssd::SsdModel model, const core::RuntimeConfig &rc)
{
    auto d = bench::diagnosePreset(model);
    core::SsdCheck check(d.features, rc);
    sim::SimTime now = d.now;
    double hl = 0, nl = 0;
    int n = 0;
    for (const auto w :
         {workload::SniaWorkload::TPCE, workload::SniaWorkload::Exch,
          workload::SniaWorkload::RwMixed}) {
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
    return Cell{hl / n, nl / n};
}

} // namespace

int
main()
{
    bench::banner("Ablation", "HL/NL accuracy with model components "
                              "disabled (TPCE + Exch + RW Mixed)");

    struct Variant
    {
        const char *name;
        core::RuntimeConfig rc;
    };
    std::vector<Variant> variants;
    variants.push_back({"full model", {}});
    {
        core::RuntimeConfig rc;
        rc.useVolumeModel = false;
        variants.push_back({"- volume model", rc});
    }
    {
        core::RuntimeConfig rc;
        rc.useGcModel = false;
        variants.push_back({"- gc model", rc});
    }
    {
        core::RuntimeConfig rc;
        rc.useCalibrator = false;
        variants.push_back({"- calibrator", rc});
    }

    stats::TablePrinter t;
    t.header({"variant", "SSD A (HL/NL)", "SSD D (HL/NL)",
              "SSD E (HL/NL)"});
    for (const auto &v : variants) {
        std::vector<std::string> row{v.name};
        for (const auto m :
             {ssd::SsdModel::A, ssd::SsdModel::D, ssd::SsdModel::E}) {
            const Cell c = runVariant(m, v.rc);
            row.push_back(stats::TablePrinter::num(c.hl, 1) + " / " +
                          stats::TablePrinter::num(c.nl, 1));
        }
        t.row(row);
    }
    t.print(std::cout);
    std::cout << "\npaper (§V-B): without the allocation-volume model, "
                 "accuracy on the multi-volume devices D and E is "
                 "extremely low; the calibrator is what keeps the "
                 "model in phase at runtime.\n";
    return 0;
}
