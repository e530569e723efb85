/**
 * @file
 * The host's one queue-depth discipline: the completion times of the
 * at most depth requests a closed-loop host keeps in flight.
 * Diagnosis's QD-N write drives and the use-case runners all step
 * their clock through it.
 */
#pragma once

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdint>
#include <vector>

#include "sim/sim_time.h"

namespace ssdcheck::blockdev {

/**
 * The in-flight completion times, kept sorted in a fixed ring (the
 * next power of two at or above depth). admit() takes the minimum at
 * the head; push() inserts from the tail, so a completion later than
 * every one in flight, the common case, lands without moving any.
 * The minimum sequence is that of a min-heap, without its
 * data-dependent sift-down on every admit.
 */
class InflightWindow
{
  public:
    explicit InflightWindow(uint32_t depth)
        : depth_(depth), mask_(std::bit_ceil(depth) - 1), ring_(mask_ + 1)
    {
        assert(depth > 0);
    }

    bool full() const { return size_ >= depth_; }

    /** Clock at which the next request may issue from @p t: when
     *  full, the earliest in-flight completion. */
    sim::SimTime nextAdmit(sim::SimTime t) const
    {
        return full() ? std::max(t, ring_[head_]) : t;
    }

    /** nextAdmit(@p t), retiring the completion it waits for. */
    sim::SimTime admit(sim::SimTime t)
    {
        const sim::SimTime at = nextAdmit(t);
        if (full()) {
            head_ = (head_ + 1) & mask_;
            --size_;
        }
        return at;
    }

    void push(sim::SimTime complete)
    {
        assert(!full());
        uint32_t i = size_++;
        for (; i > 0 && complete < ring_[(head_ + i - 1) & mask_]; --i)
            ring_[(head_ + i) & mask_] = ring_[(head_ + i - 1) & mask_];
        ring_[(head_ + i) & mask_] = complete;
    }

    /** Clock after every in-flight request has completed. */
    sim::SimTime drain(sim::SimTime t)
    {
        if (size_ > 0)
            t = std::max(t, ring_[(head_ + size_ - 1) & mask_]);
        size_ = 0;
        return t;
    }

  private:
    uint32_t depth_;
    uint32_t mask_;
    uint32_t head_ = 0;
    uint32_t size_ = 0;
    std::vector<sim::SimTime> ring_;
};

} // namespace ssdcheck::blockdev
