/** @file Unit and statistical tests for sim/rng.h. */
#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <vector>

#include "recovery/state_io.h"
#include "sim/rng.h"

namespace ssdcheck::sim {
namespace {

TEST(RngTest, SameSeedSameStream)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(RngTest, DifferentSeedsDifferentStreams)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i) {
        if (a.next() == b.next())
            ++same;
    }
    EXPECT_LT(same, 3);
}

TEST(RngTest, NextBelowRespectsBound)
{
    Rng rng(7);
    for (uint64_t bound : {1ULL, 2ULL, 3ULL, 17ULL, 1000ULL, 1ULL << 40}) {
        for (int i = 0; i < 200; ++i)
            EXPECT_LT(rng.nextBelow(bound), bound);
    }
}

TEST(RngTest, NextBelowCoversRange)
{
    Rng rng(11);
    std::set<uint64_t> seen;
    for (int i = 0; i < 1000; ++i)
        seen.insert(rng.nextBelow(8));
    EXPECT_EQ(seen.size(), 8u);
}

TEST(RngTest, NextBelowMatchesTwoDivisionRejection)
{
    // The textbook form: compute 2^64 mod bound up front and redraw
    // below it. nextBelow must give the same values from the same
    // number of raw draws, including bounds just above 2^63 where
    // about half the draws are rejected.
    auto reference = [](Rng &rng, uint64_t bound) {
        const uint64_t threshold = (0 - bound) % bound;
        for (;;) {
            const uint64_t r = rng.next();
            if (r >= threshold)
                return r % bound;
        }
    };
    Rng boundRng(5);
    Rng a(11), b(11);
    for (int i = 0; i < 20000; ++i) {
        uint64_t bound = boundRng.next() >> boundRng.nextBelow(64);
        if (i % 4 == 0)
            bound = (1ULL << 63) + boundRng.nextBelow(1000);
        if (bound == 0)
            bound = 1;
        ASSERT_EQ(a.nextBelow(bound), reference(b, bound)) << bound;
        ASSERT_EQ(a.draws(), b.draws());
    }
}

TEST(RngTest, UniformIntInclusiveBounds)
{
    Rng rng(3);
    bool sawLo = false, sawHi = false;
    for (int i = 0; i < 2000; ++i) {
        const int64_t v = rng.uniformInt(-3, 3);
        EXPECT_GE(v, -3);
        EXPECT_LE(v, 3);
        sawLo |= (v == -3);
        sawHi |= (v == 3);
    }
    EXPECT_TRUE(sawLo);
    EXPECT_TRUE(sawHi);
}

TEST(RngTest, Uniform01InUnitInterval)
{
    Rng rng(5);
    double sum = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        const double v = rng.uniform01();
        ASSERT_GE(v, 0.0);
        ASSERT_LT(v, 1.0);
        sum += v;
    }
    EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST(RngTest, BernoulliMatchesProbability)
{
    Rng rng(9);
    const int n = 50000;
    int hits = 0;
    for (int i = 0; i < n; ++i)
        hits += rng.bernoulli(0.3) ? 1 : 0;
    EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(RngTest, GaussianMomentsRoughlyStandard)
{
    Rng rng(13);
    const int n = 50000;
    double sum = 0.0, sq = 0.0;
    for (int i = 0; i < n; ++i) {
        const double v = rng.gaussian();
        sum += v;
        sq += v * v;
    }
    EXPECT_NEAR(sum / n, 0.0, 0.03);
    EXPECT_NEAR(sq / n, 1.0, 0.05);
}

TEST(RngTest, LognormalFactorMedianNearOne)
{
    Rng rng(17);
    const int n = 20001;
    std::vector<double> vals;
    vals.reserve(n);
    for (int i = 0; i < n; ++i)
        vals.push_back(rng.lognormalFactor(0.2));
    std::sort(vals.begin(), vals.end());
    EXPECT_NEAR(vals[n / 2], 1.0, 0.05);
    for (double v : vals)
        EXPECT_GT(v, 0.0);
}

TEST(RngTest, LognormalSigmaZeroIsIdentity)
{
    Rng rng(19);
    for (int i = 0; i < 10; ++i)
        EXPECT_DOUBLE_EQ(rng.lognormalFactor(0.0), 1.0);
}

TEST(RngTest, ForkedStreamsAreIndependent)
{
    Rng parent(23);
    Rng c1 = parent.fork(1);
    Rng c2 = parent.fork(2);
    int same = 0;
    for (int i = 0; i < 100; ++i) {
        if (c1.next() == c2.next())
            ++same;
    }
    EXPECT_LT(same, 3);
}

TEST(RngTest, ForkIsDeterministicGivenParentState)
{
    Rng p1(31), p2(31);
    Rng c1 = p1.fork(5);
    Rng c2 = p2.fork(5);
    for (int i = 0; i < 50; ++i)
        EXPECT_EQ(c1.next(), c2.next());
}

/** Property sweep: nextBelow stays unbiased across bounds. */
class RngBoundSweep : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(RngBoundSweep, MeanNearHalfBound)
{
    const uint64_t bound = GetParam();
    Rng rng(bound * 977 + 1);
    const int n = 30000;
    double sum = 0.0;
    for (int i = 0; i < n; ++i)
        sum += static_cast<double>(rng.nextBelow(bound));
    const double expected = (static_cast<double>(bound) - 1.0) / 2.0;
    EXPECT_NEAR(sum / n, expected, static_cast<double>(bound) * 0.02 + 0.5);
}

INSTANTIATE_TEST_SUITE_P(Bounds, RngBoundSweep,
                         ::testing::Values(2, 3, 10, 100, 4096, 1000000));

// -- snapshot/replay equivalence (recovery subsystem contract) ----------

TEST(RngSnapshotTest, DrawsCounterCountsRawDraws)
{
    Rng rng(99);
    EXPECT_EQ(rng.draws(), 0u);
    EXPECT_EQ(rng.seed(), 99u);
    rng.next();
    rng.next();
    EXPECT_EQ(rng.draws(), 2u);
    rng.uniform01(); // one raw draw
    EXPECT_EQ(rng.draws(), 3u);
}

TEST(RngSnapshotTest, SaveLoadResumesBitIdenticalStream)
{
    Rng a(0xfeedULL);
    for (int i = 0; i < 1000; ++i)
        a.next();
    recovery::StateWriter w;
    a.saveState(w);
    Rng b(1); // any state; loadState overwrites completely
    recovery::StateReader r(w.bytes().data(), w.bytes().size());
    ASSERT_TRUE(b.loadState(r));
    EXPECT_TRUE(r.atEnd());
    EXPECT_EQ(b.seed(), a.seed());
    EXPECT_EQ(b.draws(), a.draws());
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(RngSnapshotTest, ReplayToMatchesRestoredState)
{
    // The O(1) restore and the O(draws) replay land on the same
    // stream position: (seed, draws) fully describes a stream.
    Rng a(0xabcdULL);
    for (int i = 0; i < 137; ++i)
        a.next();
    Rng replayed = Rng::replayTo(a.seed(), a.draws());
    for (size_t i = 0; i < 4; ++i)
        EXPECT_EQ(replayed.stateWord(i), a.stateWord(i));
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(replayed.next(), a.next());
}

TEST(RngSnapshotTest, RestoreFromWordsIsExact)
{
    Rng a(7);
    for (int i = 0; i < 42; ++i)
        a.next();
    const uint64_t words[4] = {a.stateWord(0), a.stateWord(1),
                               a.stateWord(2), a.stateWord(3)};
    Rng b(1234);
    b.restore(a.seed(), a.draws(), words);
    EXPECT_EQ(b.draws(), 42u);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(RngSnapshotTest, LoadStateFailsOnTruncation)
{
    Rng a(5);
    a.next();
    recovery::StateWriter w;
    a.saveState(w);
    for (size_t cut = 0; cut < w.size(); ++cut) {
        Rng b(6);
        recovery::StateReader r(w.bytes().data(), cut);
        EXPECT_FALSE(b.loadState(r)) << "cut at " << cut;
    }
}

} // namespace
} // namespace ssdcheck::sim
