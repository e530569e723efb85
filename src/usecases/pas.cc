#include "usecases/pas.h"

#include <cassert>

namespace ssdcheck::usecases {

namespace {

/**
 * First read in queue order within the reorder window (up to and not
 * across the first barrier), or end().
 */
std::deque<QueuedRequest>::iterator
oldestRead(std::deque<QueuedRequest> &q)
{
    for (auto it = q.begin(); it != q.end(); ++it) {
        if (it->req.isRead())
            return it;
        if (it->barrier)
            break; // cannot pull a read across a barrier
    }
    return q.end();
}

/** True when the queue holds both reads and writes. */
bool
mixed(const std::deque<QueuedRequest> &q)
{
    bool hasRead = false, hasWrite = false;
    for (const auto &qr : q) {
        hasRead |= qr.req.isRead();
        hasWrite |= qr.req.isWrite();
        if (hasRead && hasWrite)
            return true;
    }
    return false;
}

} // namespace

void
PasQueue::enqueue(const QueuedRequest &qr)
{
    q_.push_back(qr);
}

QueuedRequest
PasQueue::dequeue(sim::SimTime now)
{
    assert(!q_.empty());
    auto pick = q_.begin();
    if (mixed(q_) && !q_.front().req.isRead()) {
        const auto read = oldestRead(q_);
        if (read != q_.end() && oldestReadWouldBeSlow(*read, now))
            pick = read;
    }
    const QueuedRequest qr = *pick;
    q_.erase(pick);
    return qr;
}

PasScheduler::PasScheduler(const core::SsdCheck &check) : check_(check) {}

bool
PasScheduler::oldestReadWouldBeSlow(const QueuedRequest &read,
                                    sim::SimTime now) const
{
    const core::PredictionEngine *engine = check_.engine();
    if (engine == nullptr || !check_.enabled())
        return false;

    // Current-state prediction covers an already-busy volume and a
    // read-trigger flush on the current buffer contents.
    if (check_.predict(read.req, now).hl)
        return true;

    // "Based on the original order": account the writes queued ahead
    // of the read into the modeled buffer counter.
    const uint32_t vol = engine->volumeOf(read.req);
    const core::WriteBufferModel &wb = engine->wbModel(vol);
    const uint32_t hypothetical =
        wb.counter() +
        writePagesAhead(read, vol, [engine](const blockdev::IoRequest &r) {
            return engine->volumeOf(r);
        });
    if (check_.features().flushAlgorithms.readTrigger)
        return hypothetical > 0; // any buffered page flushes on the read
    return hypothetical >= wb.size(); // a flush will land before the read
}

IdealPasScheduler::IdealPasScheduler(const ssd::SsdDevice &dev) : dev_(dev)
{
}

bool
IdealPasScheduler::oldestReadWouldBeSlow(const QueuedRequest &read,
                                         sim::SimTime now) const
{
    const ssd::SsdConfig &cfg = dev_.config();
    const uint32_t vol = cfg.volumeOf(read.req.lba);
    const ssd::Volume &v = dev_.volume(vol);

    if (v.nandBusyUntil() > now)
        return true; // the read would wait on an active flush/GC
    const uint32_t hypothetical =
        v.bufferFill() +
        writePagesAhead(read, vol, [&cfg](const blockdev::IoRequest &r) {
            return cfg.volumeOf(r.lba);
        });
    if (cfg.readTriggerFlush)
        return hypothetical > 0;
    return hypothetical >= cfg.bufferPages();
}

} // namespace ssdcheck::usecases
