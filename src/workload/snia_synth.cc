#include "workload/snia_synth.h"

#include <cassert>
#include <cmath>

#include "workload/synthetic.h"

namespace ssdcheck::workload {

std::vector<SniaWorkload>
allSniaWorkloads()
{
    return {SniaWorkload::TPCE, SniaWorkload::Homes, SniaWorkload::Web,
            SniaWorkload::Exch, SniaWorkload::Live, SniaWorkload::Build,
            SniaWorkload::RwMixed};
}

std::vector<SniaWorkload>
writeIntensiveWorkloads()
{
    return {SniaWorkload::TPCE, SniaWorkload::Homes, SniaWorkload::Web};
}

std::vector<SniaWorkload>
readIntensiveWorkloads()
{
    return {SniaWorkload::Exch, SniaWorkload::Live, SniaWorkload::Build};
}

std::string
toString(SniaWorkload w)
{
    switch (w) {
      case SniaWorkload::TPCE: return "TPCE";
      case SniaWorkload::Homes: return "Homes";
      case SniaWorkload::Web: return "Web";
      case SniaWorkload::Exch: return "Exch";
      case SniaWorkload::Live: return "Live";
      case SniaWorkload::Build: return "Build";
      case SniaWorkload::RwMixed: return "RW Mixed";
    }
    return "?";
}

bool
sniaWorkloadByName(const std::string &name, SniaWorkload *out)
{
    for (const SniaWorkload w : allSniaWorkloads()) {
        if (toString(w) == name) {
            *out = w;
            return true;
        }
    }
    return false;
}

SniaPaperStats
paperStats(SniaWorkload w)
{
    switch (w) {
      case SniaWorkload::TPCE: return {1300000, 0.924, 0.999};
      case SniaWorkload::Homes: return {2000000, 0.904, 0.538};
      case SniaWorkload::Web: return {2000000, 0.915, 0.148};
      case SniaWorkload::Exch: return {7600000, 0.094, 0.998};
      case SniaWorkload::Live: return {3600000, 0.222, 0.505};
      case SniaWorkload::Build: return {600000, 0.539, 0.856};
      case SniaWorkload::RwMixed: return {1000000, 0.5, 1.0};
    }
    return {0, 0.0, 0.0};
}

Trace
buildSniaTrace(SniaWorkload w, uint64_t spanPages, double scale,
               uint64_t seed)
{
    assert(validScale(scale));
    const SniaPaperStats ps = paperStats(w);
    const uint64_t n = std::max<uint64_t>(
        1000, static_cast<uint64_t>(
                  std::llround(static_cast<double>(ps.requests) * scale)));

    if (w == SniaWorkload::RwMixed) {
        Trace t = buildRwMixedTrace(n, spanPages, seed);
        t.setName(toString(w));
        return t;
    }

    MixedTraceParams p;
    p.requests = n;
    p.writeFraction = ps.writeFraction;
    p.randomFraction = ps.randomFraction;
    p.spanPages = spanPages;
    // Enterprise traces carry some multi-page requests; keep a mild,
    // fixed mix so the page-level machinery is exercised.
    p.twoPageFraction = 0.08;
    p.fourPageFraction = 0.04;
    p.seed = seed ^ (static_cast<uint64_t>(w) * 0x51ed2701ULL);
    Trace t = buildMixedTrace(p, toString(w));
    return t;
}

} // namespace ssdcheck::workload
