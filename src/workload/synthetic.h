/**
 * @file
 * Synthetic trace builders.
 *
 * buildMixedTrace() is the general engine: it walks the address space
 * with a tunable random/sequential mix, read/write ratio and request
 * size mix — the knobs Table II characterizes real traces by. The
 * motivation (Fig. 1) and Hybrid-PAS (Fig. 15a) benchmarks use the
 * specialized builders.
 */
#pragma once

#include <cstdint>
#include <string>

#include "sim/rng.h"
#include "workload/trace.h"

namespace ssdcheck::workload {

/** Parameters of the general mixed-trace generator. */
struct MixedTraceParams
{
    uint64_t requests = 100000;
    double writeFraction = 0.5;   ///< P(request is a write).
    double randomFraction = 1.0;  ///< P(jump to a random address).
    uint64_t spanPages = 64 * 1024; ///< Working-set span (4KB pages).
    /** Fractions of requests sized 1, 2, and 4 pages (rest is 1). */
    double twoPageFraction = 0.0;
    double fourPageFraction = 0.0;
    uint64_t seed = 42;
};

/** Build a trace from MixedTraceParams (arrivals all zero). */
Trace buildMixedTrace(const MixedTraceParams &p, std::string name);

/** 4KB uniform-random writes over @p spanPages (Fig. 3 workload). */
Trace buildRandomWriteTrace(uint64_t requests, uint64_t spanPages,
                            uint64_t seed);

/**
 * The paper's "RW Mixed" extreme: alternating random 4KB reads and
 * writes over @p spanPages.
 */
Trace buildRwMixedTrace(uint64_t requests, uint64_t spanPages,
                        uint64_t seed);

} // namespace ssdcheck::workload

