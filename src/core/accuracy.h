/**
 * @file
 * Prediction-accuracy counts (paper §V-B, Fig. 11).
 *
 * A QD1 closed-loop replay (recovery/shard.h; like the paper's
 * modified fio replay) queries SSDcheck before every request and
 * compares the predicted class against the measured one. NL accuracy
 * and HL accuracy are per-class recall, reported separately because
 * they matter differently (§II-C): missing an HL request loses a
 * scheduling opportunity; flagging an NL request delays
 * latency-critical work.
 */
#pragma once

#include <cstdint>

namespace ssdcheck::core {

/** Confusion counts of one accuracy evaluation. */
struct AccuracyResult
{
    uint64_t nlTotal = 0;
    uint64_t nlCorrect = 0;
    uint64_t hlTotal = 0;
    uint64_t hlCorrect = 0;
    /** Requests that failed or were retried (excluded from recall). */
    uint64_t faulted = 0;

    /** NL recall (1.0 when no NL requests occurred). */
    double nlAccuracy() const
    {
        return nlTotal == 0 ? 1.0
                            : static_cast<double>(nlCorrect) /
                                  static_cast<double>(nlTotal);
    }

    /** HL recall (1.0 when no HL requests occurred). */
    double hlAccuracy() const
    {
        return hlTotal == 0 ? 1.0
                            : static_cast<double>(hlCorrect) /
                                  static_cast<double>(hlTotal);
    }

    /** Fraction of requests that were HL. */
    double hlFraction() const
    {
        const uint64_t total = nlTotal + hlTotal;
        return total == 0 ? 0.0
                          : static_cast<double>(hlTotal) /
                                static_cast<double>(total);
    }
};

} // namespace ssdcheck::core

