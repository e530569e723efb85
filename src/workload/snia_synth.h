/**
 * @file
 * Synthetic equivalents of the paper's SNIA IOTTA traces (Table II).
 *
 * The real traces are not redistributable here; these generators
 * match the three characteristics the paper reports for each —
 * request count, write fraction and randomness — which are the
 * properties its analysis depends on (write intensity drives
 * flush/GC rates; randomness drives volume activation and GC
 * valid-page spread). See DESIGN.md for the substitution rationale.
 *
 *   Trace               #reqs   writes  random
 *   TPCE                1.3M    92.4%   99.9%
 *   Homes               2.0M    90.4%   53.8%
 *   Web                 2.0M    91.5%   14.8%
 *   Exchange (Exch)     7.6M     9.4%   99.8%
 *   LiveMapsBackEnd     3.6M    22.2%   50.5%
 *   BuildServer (Build) 0.6M    53.9%   85.6%
 */
#pragma once

#include <string>
#include <vector>

#include "workload/trace.h"

namespace ssdcheck::workload {

/** The six real-trace workloads plus the synthetic RW-Mixed. */
enum class SniaWorkload { TPCE, Homes, Web, Exch, Live, Build, RwMixed };

/** All workloads in paper order (RW Mixed last, as in Fig. 11). */
std::vector<SniaWorkload> allSniaWorkloads();

/** Write-intensive group of Table II (used by Fig. 12). */
std::vector<SniaWorkload> writeIntensiveWorkloads();

/** Read-intensive group of Table II (used by Figs. 12-14). */
std::vector<SniaWorkload> readIntensiveWorkloads();

/** Abbreviated name used in the paper ("TPCE", "Exch", ...). */
std::string toString(SniaWorkload w);

/**
 * Look up a workload by its toString() name ("TPCE", "RW Mixed", ...).
 * @return true and fill @p out when the name is known.
 */
bool sniaWorkloadByName(const std::string &name, SniaWorkload *out);

/** Paper-reported characteristics (for Table II comparison). */
struct SniaPaperStats
{
    uint64_t requests;
    double writeFraction;
    double randomFraction;
};

/** Table II's published numbers for @p w. */
SniaPaperStats paperStats(SniaWorkload w);

/** True when @p scale is a buildSniaTrace() scale: in (0, 1], so
 *  never NaN. Every front door that takes a scale checks it. */
inline bool
validScale(double scale)
{
    return scale > 0.0 && scale <= 1.0;
}

/**
 * Build the synthetic equivalent of @p w.
 * @param spanPages working-set span (should be <= device capacity).
 * @param scale shrink factor on the paper's request count so full
 *        sweeps stay fast; 1.0 reproduces the published counts.
 *        Must satisfy validScale().
 */
Trace buildSniaTrace(SniaWorkload w, uint64_t spanPages,
                     double scale = 1.0, uint64_t seed = 12345);

} // namespace ssdcheck::workload

