/** @file Property tests for blockdev/inflight_window.h. */
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <queue>
#include <vector>

#include "blockdev/inflight_window.h"
#include "sim/rng.h"

namespace ssdcheck::blockdev {
namespace {

/** The min-heap window the sorted ring must match step for step. */
class ReferenceWindow
{
  public:
    explicit ReferenceWindow(uint32_t depth) : depth_(depth) {}

    bool full() const { return heap_.size() >= depth_; }

    sim::SimTime admit(sim::SimTime t)
    {
        if (full()) {
            t = std::max(t, heap_.top());
            heap_.pop();
        }
        return t;
    }

    void push(sim::SimTime complete) { heap_.push(complete); }

    sim::SimTime drain(sim::SimTime t)
    {
        for (; !heap_.empty(); heap_.pop())
            t = std::max(t, heap_.top());
        return t;
    }

  private:
    uint32_t depth_;
    std::priority_queue<sim::SimTime, std::vector<sim::SimTime>,
                        std::greater<>>
        heap_;
};

class InflightWindowProperty : public ::testing::TestWithParam<uint32_t>
{
};

TEST_P(InflightWindowProperty, MatchesPriorityQueueOnRandomCompletions)
{
    const uint32_t depth = GetParam();
    for (uint64_t seed = 1; seed <= 20; ++seed) {
        sim::Rng rng(seed);
        InflightWindow w(depth);
        ReferenceWindow ref(depth);
        sim::SimTime t = sim::kTimeZero;
        for (int i = 0; i < 5000; ++i) {
            ASSERT_EQ(w.full(), ref.full()) << "seed " << seed << " i " << i;
            const sim::SimTime tw = w.admit(t);
            const sim::SimTime tr = ref.admit(t);
            ASSERT_EQ(tw, tr) << "seed " << seed << " i " << i;
            t = tw;
            // Mostly later than everything in flight, sometimes far
            // earlier, with ties from a coarse grid.
            sim::SimTime complete = t + static_cast<sim::SimDuration>(
                                            rng.nextBelow(64) * 1000);
            if (rng.bernoulli(0.2))
                complete = sim::SimTime{static_cast<int64_t>(
                    rng.nextBelow(static_cast<uint64_t>(t.ns()) + 1))};
            w.push(complete);
            ref.push(complete);
            // Occasionally drain mid-stream, as a phase boundary does.
            if (rng.bernoulli(0.01)) {
                const sim::SimTime drained = w.drain(t);
                ASSERT_EQ(drained, ref.drain(t)) << "seed " << seed;
                t = drained;
            }
        }
        ASSERT_EQ(w.drain(t), ref.drain(t)) << "seed " << seed;
        EXPECT_FALSE(w.full());
    }
}

INSTANTIATE_TEST_SUITE_P(Depths, InflightWindowProperty,
                         ::testing::Values(1u, 8u, 32u));

} // namespace
} // namespace ssdcheck::blockdev
