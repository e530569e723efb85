/** @file Unit tests for workload/trace.h. */
#include <gtest/gtest.h>

#include <vector>

#include "workload/trace.h"

namespace ssdcheck::workload {
namespace {

using blockdev::IoRequest;
using blockdev::IoType;
using blockdev::kSectorsPerPage;

IoRequest
req(IoType t, uint64_t page, uint32_t pages = 1)
{
    IoRequest r;
    r.type = t;
    r.lba = page * kSectorsPerPage;
    r.sectors = pages * kSectorsPerPage;
    return r;
}

TEST(TraceTest, AddAndIndex)
{
    Trace t("demo");
    t.add(req(IoType::Write, 1));
    t.add(req(IoType::Read, 2));
    EXPECT_EQ(t.name(), "demo");
    EXPECT_EQ(t.size(), 2u);
    EXPECT_TRUE(t[0].req.isWrite());
    EXPECT_TRUE(t[1].req.isRead());
}

TEST(TraceTest, CharacterizeCountsWrites)
{
    Trace t;
    t.add(req(IoType::Write, 0));
    t.add(req(IoType::Write, 10));
    t.add(req(IoType::Read, 20));
    t.add(req(IoType::Write, 30));
    const TraceStats s = t.characterize();
    EXPECT_EQ(s.requests, 4u);
    EXPECT_DOUBLE_EQ(s.writeFraction, 0.75);
    EXPECT_EQ(s.totalBytes, 4u * 4096);
}

TEST(TraceTest, CharacterizeRandomness)
{
    // Perfectly sequential run: only the first request is "random".
    Trace seq;
    for (uint64_t p = 0; p < 10; ++p)
        seq.add(req(IoType::Write, p));
    EXPECT_DOUBLE_EQ(seq.characterize().randomFraction, 0.1);

    // Strided accesses: everything is random.
    Trace rnd;
    for (uint64_t p = 0; p < 10; ++p)
        rnd.add(req(IoType::Write, p * 5));
    EXPECT_DOUBLE_EQ(rnd.characterize().randomFraction, 1.0);
}

TEST(TraceTest, CharacterizeSequentialWithMixedSizes)
{
    // Multi-page request followed by its adjacent successor counts
    // as sequential.
    Trace t;
    t.add(req(IoType::Write, 0, 4));
    t.add(req(IoType::Write, 4, 1));
    const TraceStats s = t.characterize();
    EXPECT_DOUBLE_EQ(s.randomFraction, 0.5); // only the first
}

TEST(TraceTest, PoissonArrivalsAreMonotoneAndRoughlyRate)
{
    Trace t;
    for (int i = 0; i < 20000; ++i)
        t.add(req(IoType::Read, i % 100));
    sim::Rng rng(1);
    t.assignPoissonArrivals(10000.0, rng); // 10k IOPS
    sim::SimDuration prev = -1;
    for (size_t i = 0; i < t.size(); ++i) {
        EXPECT_GE(t.arrival(i), prev);
        prev = t.arrival(i);
    }
    // Mean inter-arrival ~100us -> span ~2s.
    const double spanSec = sim::toSeconds(t.arrival(t.size() - 1));
    EXPECT_NEAR(spanSec, 2.0, 0.1);
}

TEST(TraceTest, ClosedLoopAppendsReadArrivalZero)
{
    Trace t;
    for (int i = 0; i < 5; ++i)
        t.add(req(IoType::Write, i));
    t.add(req(IoType::Read, 7), 0);
    for (size_t i = 0; i < t.size(); ++i)
        EXPECT_EQ(t.arrival(i), 0) << i;
}

TEST(TraceTest, AddAfterTimedRecordRepeatsItsArrival)
{
    Trace t;
    t.add(req(IoType::Write, 0));
    t.add(req(IoType::Write, 1), 500);
    t.add(req(IoType::Read, 2));
    t.add(req(IoType::Read, 3));
    ASSERT_EQ(t.size(), 4u);
    EXPECT_EQ(t.arrival(0), 0);
    EXPECT_EQ(t.arrival(1), 500);
    EXPECT_EQ(t.arrival(2), 500);
    EXPECT_EQ(t.arrival(3), 500);
}

TEST(TraceTest, NonzeroFirstArrivalIsKept)
{
    Trace t;
    t.add(req(IoType::Write, 0), 1000);
    t.add(req(IoType::Write, 1), 2000);
    EXPECT_EQ(t.arrival(0), 1000);
    EXPECT_EQ(t.arrival(1), 2000);
}

TEST(TraceTest, TruncateAfterPoissonArrivalsKeepsThemAligned)
{
    Trace t;
    for (int i = 0; i < 100; ++i)
        t.add(req(IoType::Read, i));
    sim::Rng rng(3);
    t.assignPoissonArrivals(10000.0, rng);
    std::vector<sim::SimDuration> before;
    for (size_t i = 0; i < t.size(); ++i)
        before.push_back(t.arrival(i));
    t.truncate(40);
    ASSERT_EQ(t.size(), 40u);
    for (size_t i = 0; i < t.size(); ++i) {
        EXPECT_EQ(t.arrival(i), before[i]) << i;
        EXPECT_EQ(t[i].req.lba, i * kSectorsPerPage) << i;
    }
    // Appending after the cut continues from the kept last arrival.
    t.add(req(IoType::Read, 999));
    EXPECT_EQ(t.arrival(40), before[39]);
}

TEST(TraceTest, TruncateShortens)
{
    Trace t;
    for (int i = 0; i < 10; ++i)
        t.add(req(IoType::Write, i));
    t.truncate(3);
    EXPECT_EQ(t.size(), 3u);
    t.truncate(100); // no-op
    EXPECT_EQ(t.size(), 3u);
}

TEST(TraceTest, EmptyTraceCharacterize)
{
    Trace t;
    const TraceStats s = t.characterize();
    EXPECT_EQ(s.requests, 0u);
    EXPECT_EQ(s.writeFraction, 0.0);
}

} // namespace
} // namespace ssdcheck::workload
