/**
 * @file
 * Hybrid PAS: prediction-guided NVM write tiering.
 *
 * Scenario: a storage server pairs a small NVM (e.g. PCM) with an
 * SSD. The naive policy sends every write to the NVM until it fills,
 * then collapses onto the irregular SSD. Hybrid PAS (paper §IV-B)
 * asks SSDcheck for each write: predicted-slow writes go to the NVM,
 * the rest mostly to the SSD — keeping the NVM available and the
 * write stream consistent.
 */
#include <cstdio>

#include "core/ssdcheck.h"
#include "nvm/nvm_device.h"
#include "ssd/presets.h"
#include "ssd/ssd_device.h"
#include "usecases/hybrid.h"
#include "usecases/runner.h"
#include "workload/synthetic.h"

using namespace ssdcheck;

namespace {

void
runMode(usecases::HybridMode mode)
{
    ssd::SsdDevice ssd(ssd::makePreset(ssd::SsdModel::C));
    core::DiagnosisRunner runner(ssd, core::DiagnosisConfig{});
    const core::FeatureSet fs = runner.extractFeatures();
    runner.precondition();
    core::SsdCheck check(fs);

    nvm::NvmConfig ncfg;
    ncfg.capacityPages = 4096; // 16 MB of PCM-class memory
    nvm::NvmDevice nvm(ncfg);

    usecases::HybridConfig hcfg;
    hcfg.bufferWeight = 0.05;
    hcfg.drainPeriod = sim::microseconds(800);
    hcfg.drainBatchPages = 1;
    usecases::HybridTier tier(
        ssd, nvm,
        mode == usecases::HybridMode::HybridPas ? &check : nullptr, mode,
        hcfg);

    const auto trace =
        workload::buildRandomWriteTrace(60000, 128 * 1024, 31);
    const auto res = usecases::runClosedLoop(
        {{.trace = &trace, .dev = &tier, .thinktime = sim::microseconds(100)}},
        runner.now())[0];

    std::printf("%s:\n", tier.name().c_str());
    const size_t w = res.timeline.numWindows();
    std::printf("  throughput (first 5 windows / last 5 windows): ");
    for (size_t i = 0; i < std::min<size_t>(5, w); ++i)
        std::printf("%.0f ", res.timeline.mbps(i));
    std::printf("/ ");
    for (size_t i = w >= 5 ? w - 5 : 0; i < w; ++i)
        std::printf("%.0f ", res.timeline.mbps(i));
    std::printf("MB/s\n");
    std::printf("  NVM pressure: %llu pages, backpressure events: %llu\n\n",
                static_cast<unsigned long long>(tier.nvmWritePages()),
                static_cast<unsigned long long>(tier.backpressureWrites()));
}

} // namespace

int
main()
{
    std::printf("Write-intensive workload through an NVM+SSD tier\n\n");
    runMode(usecases::HybridMode::Baseline);
    runMode(usecases::HybridMode::HybridPas);
    std::printf("The baseline rides the NVM and then collapses onto the "
                "SSD; Hybrid PAS stays consistent and keeps the NVM "
                "lightly loaded for the writes that need it.\n");
    return 0;
}
