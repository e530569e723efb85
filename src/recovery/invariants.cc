#include "recovery/invariants.h"

#include <cinttypes>
#include <cstdarg>
#include <cstdio>

#include "ssd/page_mapper.h"
#include "ssd/volume.h"

namespace ssdcheck::recovery {

namespace {

std::string
fmt(const char *format, ...)
{
    char buf[256];
    va_list ap;
    va_start(ap, format);
    std::vsnprintf(buf, sizeof buf, format, ap);
    va_end(ap);
    return buf;
}

/**
 * Reference victim scan: the closed block with the fewest valid pages,
 * lowest block number on ties — the greedy policy restated as an O(n)
 * scan, independent of the mapper's bucket bitmaps.
 */
nand::Pbn
referenceVictim(const ssd::PageMapper &m)
{
    nand::Pbn best = ssd::PageMapper::kNoVictim;
    uint32_t bestValid = 0;
    for (uint64_t b = 0; b < m.totalBlocks(); ++b) {
        const nand::Pbn pbn{b};
        if (!m.isGcCandidate(pbn))
            continue;
        const uint32_t valid = m.blockValidCount(pbn);
        if (best == ssd::PageMapper::kNoVictim || valid < bestValid) {
            best = pbn;
            bestValid = valid;
        }
    }
    return best;
}

} // namespace

std::vector<std::string>
checkInvariants(const Shard &run)
{
    std::vector<std::string> violations;
    const ssd::SsdDevice &dev = run.device();

    // -- per-volume FTL coherence ----------------------------------------
    for (uint32_t v = 0; v < dev.config().numVolumes(); ++v) {
        const ssd::Volume &vol = dev.volume(v);
        const ssd::PageMapper &mapper = vol.mapper();
        const std::string err = mapper.checkConsistency();
        if (!err.empty())
            violations.push_back(
                fmt("volume %u: mapper inconsistent: %s", v, err.c_str()));
        if (vol.bufferFill() > vol.bufferCapacity())
            violations.push_back(
                fmt("volume %u: write buffer holds %u pages over its "
                    "capacity of %u",
                    v, vol.bufferFill(), vol.bufferCapacity()));
        const nand::Pbn picked = mapper.pickVictimGreedy();
        const nand::Pbn reference = referenceVictim(mapper);
        // The greedy policy is fully determined by (valid count, block
        // number), so the buckets must name exactly the scan's victim.
        if (picked != reference)
            violations.push_back(
                fmt("volume %u: greedy victim %" PRIu64
                    " disagrees with reference scan %" PRIu64,
                    v, picked.value(), reference.value()));
    }

    // -- counter conservation across layers ------------------------------
    // The model scores every workload completion (and nothing else).
    if (const core::SsdCheck *check = run.checkPtr()) {
        const core::AccuracyResult &acc = check->accuracy();
        const uint64_t completed = acc.nlTotal + acc.hlTotal + acc.faulted;
        if (completed != run.cursor())
            violations.push_back(
                fmt("accuracy counters account for %" PRIu64
                    " requests but the workload cursor is at %" PRIu64,
                    completed, run.cursor()));
        if (acc.nlCorrect > acc.nlTotal || acc.hlCorrect > acc.hlTotal)
            violations.push_back("accuracy correct counts exceed totals");
    }

    const blockdev::ResilienceCounters &rc = run.resilient().counters();
    const core::HealthSupervisor *sup = run.supervisorPtr();
    const resilience::PolicyDevice *pol = run.policyPtr();
    const uint64_t probes = sup != nullptr ? sup->counters().probesIssued : 0;
    // QD1 barrier: nothing is in flight, so host submissions are
    // exactly the completed workload requests plus supervisor probes.
    // With a policy layer those arrive at the policy; the resilient
    // path below it sees only what was forwarded, plus hedges.
    const uint64_t hostSubmissions =
        pol != nullptr ? pol->counters().submissions : rc.submissions;
    if (hostSubmissions != run.cursor() + probes)
        violations.push_back(
            fmt("host path saw %" PRIu64 " submissions but cursor "
                "%" PRIu64 " + %" PRIu64 " probes were issued",
                hostSubmissions, run.cursor(), probes));
    // Every attempt the retry loop issued reaches the device exactly
    // once (a deadline can expire before the first attempt, so
    // submissions + retries is only an upper bound).
    if (dev.requestsServed() != rc.attemptsIssued)
        violations.push_back(
            fmt("device served %" PRIu64 " requests but the resilient "
                "path issued %" PRIu64 " attempts",
                dev.requestsServed(), rc.attemptsIssued));
    if (rc.attemptsIssued > rc.submissions + rc.retries)
        violations.push_back("resilient attempts exceed submissions + "
                             "retries");
    if (rc.recovered + rc.exhausted > rc.retries + rc.submissions)
        violations.push_back("resilience outcome counters exceed attempts");

    // -- policy-layer conservation ---------------------------------------
    if (pol != nullptr) {
        const resilience::PolicyCounters &pc = pol->counters();
        if (pc.forwarded + pc.shedTotal() != pc.submissions)
            violations.push_back(
                fmt("policy forwarded %" PRIu64 " + shed %" PRIu64
                    " does not sum to %" PRIu64 " submissions",
                    pc.forwarded, pc.shedTotal(), pc.submissions));
        if (rc.submissions != pc.forwarded + pc.hedgesIssued)
            violations.push_back(
                fmt("resilient path saw %" PRIu64 " submissions but the "
                    "policy forwarded %" PRIu64 " + %" PRIu64 " hedges",
                    rc.submissions, pc.forwarded, pc.hedgesIssued));
        // Every hedge pair resolves to exactly one winner and one
        // cancelled loser.
        if (pc.hedgeCancelled != pc.hedgesIssued ||
            pc.hedgeWins > pc.hedgesIssued)
            violations.push_back("policy hedge accounting does not pair "
                                 "up with issued hedges");
        if (pc.breakerCloses > pc.breakerOpens + pc.breakerReopens)
            violations.push_back(
                "policy breaker closed more often than it opened");
        // The deadline budget dominates: no exchange may consume more
        // sim time than its cap.
        if (pol->config().deadlineBudget > 0 &&
            pol->maxExchange() > pol->config().deadlineBudget)
            violations.push_back(
                fmt("policy observed a %" PRId64 "ns exchange over the "
                    "%" PRId64 "ns deadline budget",
                    pol->maxExchange(), pol->config().deadlineBudget));
    }

    // -- time sanity ------------------------------------------------------
    if (run.now().ns() < 0)
        violations.push_back(fmt("virtual time is negative (%" PRId64 ")",
                                 run.now().ns()));

    // -- supervisor state-machine sanity ----------------------------------
    if (sup != nullptr) {
        const core::HealthCounters &hc = sup->counters();
        if (hc.falseAlarms > hc.suspectEntries ||
            hc.degradedEntries > hc.suspectEntries)
            violations.push_back(
                "supervisor resolved more Suspect entries than occurred");
        if (hc.hotSwaps > hc.rediagnoseAttempts ||
            hc.rediagnoseFailures > hc.rediagnoseAttempts)
            violations.push_back(
                "supervisor resolved more re-diagnoses than attempted");
        if (hc.probeWrites + hc.probeReads != hc.probesIssued)
            violations.push_back(
                fmt("supervisor probe split %" PRIu64 "+%" PRIu64
                    " does not sum to %" PRIu64 " issued",
                    hc.probeWrites, hc.probeReads, hc.probesIssued));
        if (hc.recoveries > hc.hotSwaps)
            violations.push_back(
                "supervisor recovered more models than were swapped in");
    }
    return violations;
}

} // namespace ssdcheck::recovery
