/**
 * @file
 * The host's one queue-depth discipline: the completion times of the
 * at most depth requests a closed-loop host keeps in flight.
 * Diagnosis's QD-N write drives, the use-case runners and the benches
 * all step their clock through it.
 */
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "sim/sim_time.h"

namespace ssdcheck::blockdev {

class InflightWindow
{
  public:
    explicit InflightWindow(uint32_t depth) : depth_(depth)
    {
        assert(depth > 0);
    }

    bool full() const { return inflight_.size() >= depth_; }

    /** Clock at which the next request may issue from @p t: when
     *  full, retire the earliest completion and wait for it. */
    sim::SimTime admit(sim::SimTime t)
    {
        if (full()) {
            t = std::max(t, inflight_.top());
            inflight_.pop();
        }
        return t;
    }

    void push(sim::SimTime complete) { inflight_.push(complete); }

    /** Clock after every in-flight request has completed. */
    sim::SimTime drain(sim::SimTime t)
    {
        for (; !inflight_.empty(); inflight_.pop())
            t = std::max(t, inflight_.top());
        return t;
    }

  private:
    uint32_t depth_;
    std::priority_queue<sim::SimTime, std::vector<sim::SimTime>,
                        std::greater<>>
        inflight_;
};

} // namespace ssdcheck::blockdev
