/** @file Unit tests for workload/trace.h. */
#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "sim/rng.h"
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

bool
same(const IoRequest &a, const IoRequest &b)
{
    return a.lba == b.lba && a.sectors == b.sectors && a.type == b.type;
}

TEST(TraceTest, PackedColumnHoldsItsWholeRange)
{
    // The four (lba, sectors) corners in every type, then 10^5 seeded
    // requests anywhere in the range a stored record can hold.
    std::vector<IoRequest> want;
    for (const uint64_t lba : {uint64_t{0}, kTraceMaxLba})
        for (const uint32_t sectors : {uint32_t{0}, kTraceMaxSectors})
            for (const IoType type :
                 {IoType::Read, IoType::Write, IoType::Trim})
                want.push_back({.lba = lba, .sectors = sectors, .type = type});
    sim::Rng rng(25);
    for (int i = 0; i < 100000; ++i)
        want.push_back(
            {.lba = rng.nextBelow(kTraceMaxLba + 1),
             .sectors =
                 static_cast<uint32_t>(rng.nextBelow(kTraceMaxSectors + 1)),
             .type = static_cast<IoType>(rng.nextBelow(3))});
    Trace t("full range");
    sim::SimDuration at = 0;
    for (const IoRequest &r : want) {
        t.add(r, at);
        at += static_cast<sim::SimDuration>(rng.nextBelow(1000));
    }
    ASSERT_EQ(t.size(), want.size());
    ASSERT_EQ(t.records().size(), t.size());

    // Each reader reports its first wrong record (want.size(): none).
    auto firstBad = [&](auto get) {
        for (size_t i = 0; i < want.size(); ++i)
            if (!same(get(i), want[i]))
                return i;
        return want.size();
    };
    EXPECT_EQ(firstBad([&](size_t i) { return t[i].req; }), want.size());
    const auto view = t.records();
    EXPECT_EQ(firstBad([&](size_t i) { return view[i].req; }), want.size());
    std::vector<IoRequest> iterated;
    for (const auto &rec : t.records())
        iterated.push_back(rec.req);
    ASSERT_EQ(iterated.size(), want.size());
    EXPECT_EQ(firstBad([&](size_t i) { return iterated[i]; }), want.size());

    std::stringstream ss;
    t.saveText(ss);
    const auto back = Trace::loadText(ss);
    ASSERT_TRUE(back.has_value());
    ASSERT_EQ(back->size(), want.size());
    EXPECT_EQ(firstBad([&](size_t i) { return (*back)[i].req; }),
              want.size());
    for (size_t i = 0; i < want.size(); ++i)
        ASSERT_EQ(back->arrival(i), t.arrival(i)) << i;
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
