/**
 * @file
 * Quickstart: diagnose a black-box SSD, build the runtime model, and
 * predict per-request latencies on a small mixed workload.
 *
 * This is the whole SSDcheck flow in ~60 lines:
 *   1. create a (simulated) black-box device,
 *   2. run the diagnosis snippets -> FeatureSet,
 *   3. construct the runtime framework,
 *   4. replay I/O in predict-before-issue mode and report accuracy.
 */
#include <cstdio>

#include "core/ssdcheck.h"
#include "recovery/shard.h"
#include "ssd/presets.h"
#include "ssd/ssd_device.h"
#include "workload/synthetic.h"

using namespace ssdcheck;

int
main()
{
    // 1. A black-box device. Swap the preset to explore Table I.
    ssd::SsdDevice dev(ssd::makePreset(ssd::SsdModel::A));
    std::printf("Device: %s (%llu MB)\n", dev.name().c_str(),
                static_cast<unsigned long long>(
                    dev.capacitySectors() * 512 / 1000000));

    // 2. Diagnosis: extract the internal features (paper SIII-B).
    core::DiagnosisConfig dcfg;
    core::DiagnosisRunner runner(dev, dcfg);
    const core::FeatureSet features = runner.extractFeatures();
    std::printf("Diagnosed: %s\n", features.summary().c_str());

    if (!features.bufferModelUsable()) {
        std::printf("No usable buffer model; prediction disabled.\n");
        return 0;
    }

    // 3. Runtime framework (paper SIII-C).
    core::SsdCheck check(features);

    // 4. Predict-before-issue replay of a random read/write mix.
    const auto trace = workload::buildRwMixedTrace(
        200000, dev.capacityPages(), /*seed=*/7);
    const core::AccuracyResult acc =
        recovery::evaluatePredictionAccuracy(dev, check, trace,
                                             runner.now());

    std::printf("Requests: %llu  (HL fraction %.2f%%)\n",
                static_cast<unsigned long long>(acc.nlTotal + acc.hlTotal),
                acc.hlFraction() * 100.0);
    std::printf("NL prediction accuracy: %.2f%%\n",
                acc.nlAccuracy() * 100.0);
    std::printf("HL prediction accuracy: %.2f%%\n",
                acc.hlAccuracy() * 100.0);
    return 0;
}
