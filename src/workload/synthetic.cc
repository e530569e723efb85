#include "workload/synthetic.h"

#include <cassert>

namespace ssdcheck::workload {

using blockdev::IoRequest;
using blockdev::IoType;
using blockdev::kSectorsPerPage;

Trace
buildMixedTrace(const MixedTraceParams &p, std::string name)
{
    assert(p.spanPages > 4);
    sim::Rng rng(p.seed);
    Trace t(std::move(name));
    t.reserve(p.requests);

    uint64_t cursor = rng.nextBelow(p.spanPages);
    for (uint64_t i = 0; i < p.requests; ++i) {
        // Pick request size first so sequential runs stay adjacent.
        uint32_t pages = 1;
        const double u = rng.uniform01();
        if (u < p.fourPageFraction)
            pages = 4;
        else if (u < p.fourPageFraction + p.twoPageFraction)
            pages = 2;

        if (rng.bernoulli(p.randomFraction) || cursor + pages > p.spanPages)
            cursor = rng.nextBelow(p.spanPages - pages);

        IoRequest req;
        req.type = rng.bernoulli(p.writeFraction) ? IoType::Write
                                                  : IoType::Read;
        req.lba = cursor * kSectorsPerPage;
        req.sectors = pages * kSectorsPerPage;
        t.add(req);

        cursor += pages; // sequential continuation point
    }
    return t;
}

Trace
buildRandomWriteTrace(uint64_t requests, uint64_t spanPages, uint64_t seed)
{
    MixedTraceParams p;
    p.requests = requests;
    p.writeFraction = 1.0;
    p.randomFraction = 1.0;
    p.spanPages = spanPages;
    p.seed = seed;
    return buildMixedTrace(p, "rand-write-4k");
}

Trace
buildRwMixedTrace(uint64_t requests, uint64_t spanPages, uint64_t seed)
{
    sim::Rng rng(seed);
    Trace t("RW Mixed");
    t.reserve(requests);
    for (uint64_t i = 0; i < requests; ++i) {
        IoRequest req;
        req.type = rng.bernoulli(0.5) ? IoType::Write : IoType::Read;
        req.lba = rng.nextBelow(spanPages) * kSectorsPerPage;
        req.sectors = kSectorsPerPage;
        t.add(req);
    }
    return t;
}

} // namespace ssdcheck::workload
