/**
 * @file
 * Unit tests of the misprediction audit log: cause-classification
 * precedence, report bucketing, the committed JSONL byte fixture, and
 * the JSONL round trip the tools/audit binary consumes.
 */
#include <cstdint>
#include <fstream>
#include <iterator>
#include <limits>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "obs/audit_log.h"
#include "sim/rng.h"
#include "sim/sim_time.h"

#ifndef SSDCHECK_FIXTURE_DIR
#error "SSDCHECK_FIXTURE_DIR must point at tests/fixtures"
#endif

namespace ssdcheck::obs {
namespace {

constexpr sim::SimDuration kGcThreshold = sim::milliseconds(3);

AuditRecord
hlMiss(sim::SimDuration actualNs)
{
    AuditRecord r;
    r.actualNs = actualNs;
    r.actualHl = true;
    r.predictedHl = false;
    r.flushEstimateNs = sim::microseconds(400);
    return r;
}

/**
 * The log behind tests/fixtures/audit_v1.jsonl: one record of every
 * cause, then negative values and each field at the extremes of its
 * width.
 */
AuditLog
pinnedLog()
{
    AuditLog log(kGcThreshold);
    AuditRecord none; // an NL request the model called NL
    none.submit = sim::SimTime{1500};
    none.actualNs = sim::microseconds(85);
    none.predictedEetNs = sim::microseconds(90);
    none.type = 1;
    none.volume = 2;
    none.bufferCounter = 17;
    none.bufferSize = 62;
    none.gcIntervalCounter = 4;
    none.flushEstimateNs = sim::microseconds(400);
    none.gcEstimateNs = sim::milliseconds(6);
    log.add(none);
    AuditRecord taint = hlMiss(sim::milliseconds(9));
    taint.status = 2;
    taint.attempts = 3;
    log.add(taint);
    log.add(hlMiss(sim::milliseconds(5))); // gc-drift
    AuditRecord flush = hlMiss(sim::microseconds(300));
    flush.flushExpected = true;
    log.add(flush); // unmodeled-flush
    AuditRecord unknown = hlMiss(sim::microseconds(100));
    unknown.gcExpected = true;
    log.add(unknown);
    AuditRecord neg = hlMiss(-42); // unknown, every signed field < 0
    neg.submit = sim::SimTime{-1};
    neg.predictedEetNs = -7;
    neg.flushEstimateNs = -400000;
    neg.gcEstimateNs = -1;
    log.add(neg);
    constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
    constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
    AuditRecord lo; // every field at its minimum
    lo.submit = sim::SimTime{kMin};
    lo.actualNs = kMin;
    lo.predictedEetNs = kMin;
    lo.attempts = 0;
    lo.flushEstimateNs = kMin;
    lo.gcEstimateNs = kMin;
    log.add(lo);
    AuditRecord hi; // every field at its maximum (an HL miss)
    hi.submit = sim::SimTime{kMax};
    hi.actualNs = kMax;
    hi.predictedEetNs = kMax;
    hi.type = 0xFF;
    hi.status = 0xFF;
    hi.attempts = 0xFFFFFFFFu;
    hi.actualHl = true;
    hi.flushExpected = true;
    hi.gcExpected = true;
    hi.volume = 0xFFFFFFFFu;
    hi.bufferCounter = 0xFFFFFFFFu;
    hi.bufferSize = 0xFFFFFFFFu;
    hi.gcIntervalCounter = 0xFFFFFFFFu;
    hi.flushEstimateNs = kMax;
    hi.gcEstimateNs = kMax;
    log.add(hi);
    return log;
}

/** A record of random fields; signed values of every digit count. */
AuditRecord
randomRecord(sim::Rng &rng)
{
    const auto i64 = [&rng] {
        const auto mag = static_cast<int64_t>(rng.next() >>
                                              (1 + rng.nextBelow(63)));
        return rng.next() & 1 ? -mag : mag;
    };
    const auto u32 = [&rng] {
        return static_cast<uint32_t>(rng.next() >> rng.nextBelow(32));
    };
    AuditRecord r;
    r.submit = sim::SimTime{i64()};
    r.actualNs = i64();
    r.predictedEetNs = i64();
    r.type = static_cast<uint8_t>(rng.next());
    r.status = rng.nextBelow(4) == 0 ? static_cast<uint8_t>(rng.next()) : 0;
    r.attempts = rng.nextBelow(4) == 0 ? u32() : 1;
    r.predictedHl = rng.next() & 1;
    r.actualHl = rng.next() & 1;
    r.flushExpected = rng.next() & 1;
    r.gcExpected = rng.next() & 1;
    r.volume = u32();
    r.bufferCounter = u32();
    r.bufferSize = u32();
    r.gcIntervalCounter = u32();
    r.flushEstimateNs = i64();
    r.gcEstimateNs = i64();
    return r;
}

TEST(ClassifyAudit, NonMissesAreNone)
{
    AuditRecord hit = hlMiss(sim::milliseconds(5));
    hit.predictedHl = true; // correctly called: not a miss
    EXPECT_EQ(classifyAudit(hit, kGcThreshold), AuditCause::None);

    AuditRecord nl;
    nl.actualHl = false;
    nl.status = 1; // even a faulted NL request is not an HL miss
    EXPECT_EQ(classifyAudit(nl, kGcThreshold), AuditCause::None);
}

TEST(ClassifyAudit, FaultTaintTrumpsMagnitude)
{
    AuditRecord r = hlMiss(sim::milliseconds(10)); // GC-magnitude...
    r.status = 2;
    EXPECT_EQ(classifyAudit(r, kGcThreshold), AuditCause::FaultTaint);
    r.status = 0;
    r.attempts = 3; // ...or host-retried: still taint first.
    EXPECT_EQ(classifyAudit(r, kGcThreshold), AuditCause::FaultTaint);
}

TEST(ClassifyAudit, GcMagnitudeTrumpsFlushMagnitude)
{
    const AuditRecord r = hlMiss(kGcThreshold + 1);
    EXPECT_EQ(classifyAudit(r, kGcThreshold), AuditCause::GcDrift);
    // At exactly the threshold it is not GC-magnitude.
    EXPECT_EQ(classifyAudit(hlMiss(kGcThreshold), kGcThreshold),
              AuditCause::UnmodeledFlush);
    // Threshold 0 = unknown threshold: never classify as GC.
    EXPECT_EQ(classifyAudit(r, 0), AuditCause::UnmodeledFlush);
}

TEST(ClassifyAudit, FlushBandIsHalfTheCalibratedEstimate)
{
    AuditRecord r = hlMiss(sim::microseconds(200)); // exactly half
    EXPECT_EQ(classifyAudit(r, kGcThreshold), AuditCause::UnmodeledFlush);
    r.actualNs = sim::microseconds(199);
    EXPECT_EQ(classifyAudit(r, kGcThreshold), AuditCause::Unknown);
    r.flushEstimateNs = 0; // uncalibrated: cannot claim flush
    r.actualNs = sim::microseconds(300);
    EXPECT_EQ(classifyAudit(r, kGcThreshold), AuditCause::Unknown);
}

TEST(AuditLog, AnalyzeBucketsByCause)
{
    AuditLog log(kGcThreshold);
    log.add(hlMiss(sim::milliseconds(5)));  // gc-drift
    log.add(hlMiss(sim::microseconds(300))); // unmodeled-flush
    AuditRecord taint = hlMiss(sim::milliseconds(5));
    taint.attempts = 2;
    log.add(taint);
    AuditRecord hit = hlMiss(sim::milliseconds(5));
    hit.predictedHl = true; // HL event, correctly predicted
    log.add(hit);
    AuditRecord nl;
    log.add(nl);

    const AuditReport rep = log.analyze();
    EXPECT_EQ(rep.total, 5u);
    EXPECT_EQ(rep.hlEvents, 4u);
    EXPECT_EQ(rep.hlMisses, 3u);
    EXPECT_EQ(rep.gcDrift, 1u);
    EXPECT_EQ(rep.unmodeledFlush, 1u);
    EXPECT_EQ(rep.faultTaint, 1u);
    EXPECT_EQ(rep.unknown, 0u);
    EXPECT_EQ(log.causeOf(0), AuditCause::GcDrift);

    const std::string text = rep.format();
    EXPECT_NE(text.find("HL misses:          3"), std::string::npos) << text;
    EXPECT_NE(text.find("gc-drift:         1 (33.3%)"), std::string::npos)
        << text;
}

TEST(AuditLog, JsonlRoundTripPreservesEveryField)
{
    AuditLog log(kGcThreshold);
    AuditRecord r;
    r.submit = sim::kTimeZero + sim::seconds(2);
    r.actualNs = sim::milliseconds(4);
    r.predictedEetNs = sim::microseconds(120);
    r.type = 2;
    r.status = 0;
    r.attempts = 1;
    r.predictedHl = false;
    r.actualHl = true;
    r.flushExpected = true;
    r.gcExpected = false;
    r.volume = 3;
    r.bufferCounter = 17;
    r.bufferSize = 62;
    r.gcIntervalCounter = 40;
    r.flushEstimateNs = sim::microseconds(400);
    r.gcEstimateNs = sim::milliseconds(6);
    log.add(r);

    std::ostringstream os;
    log.writeJsonl(os);
    const std::string line = os.str();
    EXPECT_NE(line.find("\"actual_ns\":4000000"), std::string::npos) << line;
    EXPECT_NE(line.find("\"cause\":\"gc-drift\""), std::string::npos) << line;

    std::istringstream is(line);
    AuditLog back(kGcThreshold);
    ASSERT_TRUE(AuditLog::readJsonl(is, &back));
    ASSERT_EQ(back.size(), 1u);
    const AuditRecord &b = back.records()[0];
    EXPECT_EQ(b.submit, r.submit);
    EXPECT_EQ(b.actualNs, r.actualNs);
    EXPECT_EQ(b.predictedEetNs, r.predictedEetNs);
    EXPECT_EQ(b.type, r.type);
    EXPECT_EQ(b.status, r.status);
    EXPECT_EQ(b.attempts, r.attempts);
    EXPECT_EQ(b.predictedHl, r.predictedHl);
    EXPECT_EQ(b.actualHl, r.actualHl);
    EXPECT_EQ(b.flushExpected, r.flushExpected);
    EXPECT_EQ(b.gcExpected, r.gcExpected);
    EXPECT_EQ(b.volume, r.volume);
    EXPECT_EQ(b.bufferCounter, r.bufferCounter);
    EXPECT_EQ(b.bufferSize, r.bufferSize);
    EXPECT_EQ(b.gcIntervalCounter, r.gcIntervalCounter);
    EXPECT_EQ(b.flushEstimateNs, r.flushEstimateNs);
    EXPECT_EQ(b.gcEstimateNs, r.gcEstimateNs);
    // The re-read log classifies identically.
    EXPECT_EQ(back.causeOf(0), log.causeOf(0));
}

TEST(AuditLog, WriteJsonlReproducesCommittedFixture)
{
    // tests/fixtures/audit_v1.jsonl holds the bytes writeJsonl
    // produced for pinnedLog() before the writer was rewritten for
    // speed.
    std::ifstream in(std::string(SSDCHECK_FIXTURE_DIR) + "/audit_v1.jsonl",
                     std::ios::binary);
    const std::string pinned{std::istreambuf_iterator<char>(in),
                             std::istreambuf_iterator<char>()};
    ASSERT_FALSE(pinned.empty()) << "missing tests/fixtures/audit_v1.jsonl";
    std::ostringstream os;
    pinnedLog().writeJsonl(os);
    EXPECT_EQ(os.str(), pinned);
}

TEST(AuditLog, RandomLogsRoundTripByteForByte)
{
    for (uint64_t seed = 1; seed <= 6; ++seed) {
        sim::Rng rng(seed);
        AuditLog log(static_cast<sim::SimDuration>(rng.nextBelow(1u << 30)));
        const size_t n = 2000 + rng.nextBelow(2000);
        for (size_t i = 0; i < n; ++i)
            log.add(randomRecord(rng));
        std::ostringstream os;
        log.writeJsonl(os);
        const std::string bytes = os.str();
        // Several 64 KB output blocks.
        ASSERT_GT(bytes.size(), 4 * 64 * 1024u) << "seed " << seed;

        std::istringstream is(bytes);
        AuditLog back(log.gcThreshold());
        ASSERT_TRUE(AuditLog::readJsonl(is, &back)) << "seed " << seed;
        ASSERT_EQ(back.size(), n) << "seed " << seed;
        std::ostringstream again;
        back.writeJsonl(again);
        EXPECT_TRUE(again.str() == bytes) << "seed " << seed;
    }
}

TEST(AuditLog, ReadJsonlRejectsMalformedLineWithLineNumber)
{
    std::istringstream is("\n{\"submit_ns\":1,\"oops\":2}\n");
    AuditLog log;
    size_t errorLine = 0;
    EXPECT_FALSE(AuditLog::readJsonl(is, &log, &errorLine));
    EXPECT_EQ(errorLine, 2u); // blank lines are skipped but counted
    EXPECT_EQ(log.size(), 0u);
}

} // namespace
} // namespace ssdcheck::obs
