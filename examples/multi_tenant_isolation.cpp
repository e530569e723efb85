/**
 * @file
 * Multi-tenant performance isolation with VA-LVM.
 *
 * Scenario: a cloud host colocates a latency-sensitive read service
 * with a write-heavy logging service on one SSD. With a conventional
 * linear split both tenants stripe across every internal volume, so
 * the logger's buffer flushes and GC stall the reader. VA-LVM uses
 * SSDcheck's diagnosed volume bits to pin each tenant to its own
 * internal volume (paper §IV-A / Fig. 9).
 */
#include <cstdio>

#include "core/diagnosis.h"
#include "ssd/presets.h"
#include "ssd/ssd_device.h"
#include "usecases/lvm.h"
#include "usecases/runner.h"
#include "workload/snia_synth.h"

using namespace ssdcheck;

namespace {

void
runScheme(bool volumeAware, const std::vector<uint32_t> &volumeBits)
{
    ssd::SsdDevice dev(ssd::makePreset(ssd::SsdModel::D));
    dev.precondition();

    const uint64_t span = dev.capacityPages() / 4;
    const auto readTrace = workload::buildSniaTrace(
        workload::SniaWorkload::Exch, span, 0.008, 21);
    const auto writeTrace = workload::buildSniaTrace(
        workload::SniaWorkload::Web, span, 0.012, 22);

    auto vols = volumeAware
                    ? usecases::makeVolumeAwareVolumes(dev, volumeBits)
                    : usecases::makeLinearVolumes(dev, 2);
    const auto res = usecases::runClosedLoop(
        {{.trace = &readTrace, .dev = vols[0].get(), .name = "read-service"},
         {.trace = &writeTrace,
          .dev = vols[1].get(),
          .name = "log-writer",
          .loop = true}},
        sim::kTimeZero);
    std::printf("%s:\n", volumeAware ? "VA-LVM (volume-aware)"
                                     : "Linear-LVM (conventional)");
    for (const auto &r : res) {
        std::printf("  %-14s %7.1f MB/s   read p99.5 %-10s requests %llu\n",
                    r.name.c_str(), r.throughputMbps(),
                    r.readLatency.empty()
                        ? "-"
                        : sim::formatDuration(
                              r.readLatency.percentile(99.5))
                              .c_str(),
                    static_cast<unsigned long long>(r.requests));
    }
    std::printf("\n");
}

} // namespace

int
main()
{
    // Step 1: discover the internal volume layout (black-box).
    ssd::SsdDevice probe(ssd::makePreset(ssd::SsdModel::D));
    core::DiagnosisRunner runner(probe, core::DiagnosisConfig{});
    const auto scan = runner.scanAllocationVolumes();
    std::printf("Diagnosed %zu allocation-volume bit(s):",
                scan.volumeBits.size());
    for (const auto b : scan.volumeBits)
        std::printf(" %u", b);
    std::printf("\n\n");

    // Step 2: run the colocated tenants under both partitioners.
    runScheme(false, scan.volumeBits);
    runScheme(true, scan.volumeBits);

    std::printf("VA-LVM pins each tenant to its own internal volume: "
                "the read service no longer waits on the logger's "
                "flushes and GC.\n");
    return 0;
}
