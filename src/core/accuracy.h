/**
 * @file
 * Prediction-accuracy counts (paper §V-B, Fig. 11).
 *
 * Every loop that feeds the model (the QD1 closed-loop replay of
 * recovery/shard.h, like the paper's modified fio replay; PAS; Hybrid
 * PAS) queries SSDcheck before a request and hands it the completion.
 * SsdCheck::onComplete compares the predicted class against the
 * measured one and keeps these counts (SsdCheck::accuracy()). NL
 * accuracy and HL accuracy are per-class recall, reported separately
 * because they matter differently (§II-C): missing an HL request
 * loses a scheduling opportunity; flagging an NL request delays
 * latency-critical work.
 */
#pragma once

#include <cstdint>

namespace ssdcheck::recovery {
class StateWriter;
class StateReader;
} // namespace ssdcheck::recovery

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

    bool operator==(const AccuracyResult &) const = default;

    /** Counts accumulated since @p earlier (a snapshot of these). */
    AccuracyResult since(const AccuracyResult &earlier) const
    {
        return {nlTotal - earlier.nlTotal, nlCorrect - earlier.nlCorrect,
                hlTotal - earlier.hlTotal, hlCorrect - earlier.hlCorrect,
                faulted - earlier.faulted};
    }

    /** The Shard's Accuracy snapshot section: the five counts. */
    void saveState(recovery::StateWriter &w) const;
    void loadState(recovery::StateReader &r);

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

