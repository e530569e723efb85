/**
 * @file
 * Prediction-aware schedulers (paper §IV-B, Fig. 10).
 *
 * SSD-only PAS: when the queue mixes reads and writes, ask SSDcheck
 * whether the oldest read would be slow in its original position
 * (i.e. after the writes queued ahead of it — in particular whether
 * one of those writes will trigger a buffer flush). If so, dispatch
 * the read first, hiding the flush behind it. Otherwise dispatch in
 * arrival order.
 *
 * Ideal PAS: the same policy with a perfect oracle (ground truth from
 * the simulated device) — the paper's "ideal" bars in Fig. 14 that
 * bound the cost of misprediction.
 */
#pragma once

#include <cstdint>
#include <deque>
#include <string>

#include "core/ssdcheck.h"
#include "ssd/ssd_device.h"
#include "usecases/scheduler.h"

namespace ssdcheck::usecases {

/**
 * The PAS queue and dispatch rule (Fig. 10); the two schedulers below
 * differ only in the predictor that answers "would it be slow?".
 */
class PasQueue : public Scheduler
{
  public:
    void enqueue(const QueuedRequest &qr) override;
    bool empty() const override { return q_.empty(); }
    size_t depth() const override { return q_.size(); }
    QueuedRequest dequeue(sim::SimTime now) override;

  protected:
    /** Would @p read be HL if issued at @p now in original order? */
    virtual bool oldestReadWouldBeSlow(const QueuedRequest &read,
                                       sim::SimTime now) const = 0;

    /** Write pages queued ahead of @p read on volume @p vol, with
     *  @p volumeOf placing each request. */
    template <typename VolumeOf>
    uint32_t writePagesAhead(const QueuedRequest &read, uint32_t vol,
                             VolumeOf volumeOf) const
    {
        uint32_t pages = 0;
        for (const auto &qr : q_) {
            if (&qr == &read)
                break;
            if (qr.req.isWrite() && volumeOf(qr.req) == vol)
                pages += qr.req.pages();
        }
        return pages;
    }

  private:
    std::deque<QueuedRequest> q_;
};

/** SSD-only PAS (paper §IV-B): SSDcheck's model is the predictor. */
class PasScheduler : public PasQueue
{
  public:
    /** @param check the SSDcheck instance driving this device. */
    explicit PasScheduler(const core::SsdCheck &check);

    std::string name() const override { return "pas"; }

  private:
    bool oldestReadWouldBeSlow(const QueuedRequest &read,
                               sim::SimTime now) const override;

    const core::SsdCheck &check_;
};

/** PAS with a perfect (device ground truth) predictor. */
class IdealPasScheduler : public PasQueue
{
  public:
    explicit IdealPasScheduler(const ssd::SsdDevice &dev);

    std::string name() const override { return "ideal"; }

  private:
    bool oldestReadWouldBeSlow(const QueuedRequest &read,
                               sim::SimTime now) const override;

    const ssd::SsdDevice &dev_;
};

} // namespace ssdcheck::usecases
