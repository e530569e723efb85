/** @file Tests for trace text serialization. */
#include <gtest/gtest.h>

#include <sstream>

#include "workload/snia_synth.h"
#include "workload/trace.h"

namespace ssdcheck::workload {
namespace {

using blockdev::IoRequest;
using blockdev::IoType;

TEST(TraceIoTest, RoundTripPreservesEverything)
{
    Trace t("demo trace");
    for (int i = 0; i < 100; ++i) {
        IoRequest req;
        req.type = i % 3 == 0   ? IoType::Read
                   : i % 3 == 1 ? IoType::Write
                                : IoType::Trim;
        req.lba = static_cast<uint64_t>(i) * 8;
        req.sectors = (i % 4 + 1) * 8;
        t.add(req, i * 1000);
    }
    std::stringstream ss;
    t.saveText(ss);
    const auto back = Trace::loadText(ss);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(back->name(), "demo trace");
    ASSERT_EQ(back->size(), t.size());
    for (size_t i = 0; i < t.size(); ++i) {
        EXPECT_EQ(back->arrival(i), t.arrival(i));
        EXPECT_EQ((*back)[i].req.type, t[i].req.type);
        EXPECT_EQ((*back)[i].req.lba, t[i].req.lba);
        EXPECT_EQ((*back)[i].req.sectors, t[i].req.sectors);
    }
}

TEST(TraceIoTest, RoundTripOfSyntheticTraceKeepsStats)
{
    const Trace t = buildSniaTrace(SniaWorkload::Build, 4096, 0.01);
    std::stringstream ss;
    t.saveText(ss);
    const auto back = Trace::loadText(ss);
    ASSERT_TRUE(back.has_value());
    const auto a = t.characterize();
    const auto b = back->characterize();
    EXPECT_EQ(a.requests, b.requests);
    EXPECT_DOUBLE_EQ(a.writeFraction, b.writeFraction);
    EXPECT_DOUBLE_EQ(a.randomFraction, b.randomFraction);
}

TEST(TraceIoTest, EmptyTraceRoundTrips)
{
    Trace t("empty");
    std::stringstream ss;
    t.saveText(ss);
    const auto back = Trace::loadText(ss);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(back->name(), "empty");
    EXPECT_TRUE(back->empty());
}

TEST(TraceIoTest, MissingHeaderRejected)
{
    std::stringstream ss("0 w 8 8\n");
    EXPECT_FALSE(Trace::loadText(ss).has_value());
}

TEST(TraceIoTest, BadTypeRejected)
{
    std::stringstream ss("# x\n0 q 8 8\n");
    EXPECT_FALSE(Trace::loadText(ss).has_value());
}

TEST(TraceIoTest, MalformedLineRejected)
{
    std::stringstream ss("# x\n0 w eight 8\n");
    EXPECT_FALSE(Trace::loadText(ss).has_value());
}

TEST(TraceIoTest, NonMonotoneArrivalsRejected)
{
    std::stringstream ss("# x\n100 w 8 8\n50 w 16 8\n");
    EXPECT_FALSE(Trace::loadText(ss).has_value());
}

TEST(TraceIoTest, BlankLinesSkipped)
{
    std::stringstream ss("# x\n\n0 w 8 8\n\n10 r 16 8\n");
    const auto back = Trace::loadText(ss);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(back->size(), 2u);
}

TEST(TraceIoTest, ParseErrorsReportTheOffendingLine)
{
    size_t line = 999;
    std::stringstream empty("");
    EXPECT_FALSE(Trace::loadText(empty, &line).has_value());
    EXPECT_EQ(line, 0u); // nothing to point at

    std::stringstream noHeader("0 w 8 8\n");
    EXPECT_FALSE(Trace::loadText(noHeader, &line).has_value());
    EXPECT_EQ(line, 1u);

    std::stringstream badType("# x\n0 w 8 8\n1 q 8 8\n");
    EXPECT_FALSE(Trace::loadText(badType, &line).has_value());
    EXPECT_EQ(line, 3u);

    std::stringstream garbage("# x\n0 w 8 8\n1 w 16 8\nnot a record\n");
    EXPECT_FALSE(Trace::loadText(garbage, &line).has_value());
    EXPECT_EQ(line, 4u);

    // Blank lines still count toward the reported line number.
    std::stringstream withBlanks("# x\n\n\n100 w 8 8\n50 w 16 8\n");
    EXPECT_FALSE(Trace::loadText(withBlanks, &line).has_value());
    EXPECT_EQ(line, 5u); // the non-monotone arrival

    // Nothing but spaces or tabs may follow the sectors field.
    std::stringstream fractional("# x\n0 w 8 8\n0 w 0 8.5\n");
    EXPECT_FALSE(Trace::loadText(fractional, &line).has_value());
    EXPECT_EQ(line, 3u);

    std::stringstream junk("# x\n0 w 0 8 junk\n");
    EXPECT_FALSE(Trace::loadText(junk, &line).has_value());
    EXPECT_EQ(line, 2u);

    // Arrivals are offsets from the trace start: never negative.
    std::stringstream negative("# x\n\n-5 w 16 8\n");
    EXPECT_FALSE(Trace::loadText(negative, &line).has_value());
    EXPECT_EQ(line, 3u);

    // A successful parse leaves the caller's value untouched.
    line = 999;
    std::stringstream good("# x\n0 w 8 8\n");
    EXPECT_TRUE(Trace::loadText(good, &line).has_value());
    EXPECT_EQ(line, 999u);

    // Trailing spaces and tabs are still fine.
    std::stringstream blanks("# x\n0 w 8 8 \t\n");
    EXPECT_TRUE(Trace::loadText(blanks, &line).has_value());
    EXPECT_EQ(line, 999u);
}

} // namespace
} // namespace ssdcheck::workload
