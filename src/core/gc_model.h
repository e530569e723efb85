/**
 * @file
 * History-based GC model (paper §III-C1).
 *
 * Counts buffer flushes between observed GC events and keeps a sliding
 * window of those intervals. A GC is predicted on the next flush once
 * the interval counter reaches a conservative low quantile of the
 * history — the paper's rationale: the valid-page distribution (and
 * hence the interval distribution) drifts slowly, so recent history
 * predicts the near future.
 */
#pragma once

#include <cstdint>
#include <deque>

namespace ssdcheck::recovery {
class StateWriter;
class StateReader;
} // namespace ssdcheck::recovery

namespace ssdcheck::core {

/** Tunables of the GC interval model. */
struct GcModelConfig
{
    uint32_t historyWindow = 48; ///< Intervals remembered.
    uint32_t minHistory = 6;     ///< No predictions before this many.
    double quantile = 0.25;      ///< Predict once counter passes this.
};

/** Flush-interval counter + distribution for one GC volume. */
class GcModel
{
  public:
    explicit GcModel(GcModelConfig cfg = {});

    /** Account one buffer flush. */
    void onFlush() { ++intervalCounter_; }

    /** Account an observed GC event; records the interval. */
    void onGcObserved();

    /**
     * Would a flush occurring now be expected to trigger GC?
     * True once the counter (including the pending flush) reaches the
     * configured quantile of the recorded interval distribution.
     */
    bool gcExpectedOnNextFlush() const
    {
        return threshold_ != 0 && intervalCounter_ + 1 >= threshold_;
    }

    /** Calibrator: drop stale history (paper: "reset the interval
     *  distribution to remove the current, ineffective history"). */
    void resetHistory();

    uint32_t intervalCounter() const { return intervalCounter_; }
    const std::deque<uint32_t> &history() const { return history_; }

    /** Serialize the interval counter and history window. */
    void saveState(recovery::StateWriter &w) const;

    /** Restore state saved by saveState(). @return reader still ok. */
    bool loadState(recovery::StateReader &r);

  private:
    /** Recompute threshold_ after history_ changed. */
    void updateThreshold();

    GcModelConfig cfg_; // snapshot:skip(construction-time config; loadState only validates it against the checkpoint)
    uint32_t intervalCounter_ = 0;
    /// The configured quantile of history_ (0 while it is too short).
    /// Declared here it fills padding, so GcModel keeps its size.
    uint32_t threshold_ = 0; // snapshot:skip(derived from history_; loadState recomputes it)
    std::deque<uint32_t> history_;
};

} // namespace ssdcheck::core

