#include "usecases/runner.h"

#include <algorithm>
#include <cassert>

#include "blockdev/inflight_window.h"
#include "recovery/shard.h"

namespace ssdcheck::usecases {

double
StreamResult::throughputMbps() const
{
    const sim::SimDuration span = endTime - startTime;
    if (span <= 0)
        return 0.0;
    return static_cast<double>(bytes) / 1e6 / sim::toSeconds(span);
}

namespace {

void
record(StreamResult &out, const blockdev::IoRequest &req,
       sim::SimTime baseline, const blockdev::IoResult &res)
{
    const sim::SimTime complete = res.completeTime;
    const sim::SimDuration lat = complete - baseline;
    out.latency.add(lat);
    if (req.isRead())
        out.readLatency.add(lat);
    else if (req.isWrite())
        out.writeLatency.add(lat);
    // Timeline windows are relative to the stream's own start so runs
    // launched late in virtual time don't carry empty leading windows.
    out.timeline.add(complete - out.startTime, req.bytes());
    ++out.requests;
    out.bytes += req.bytes();
}

} // namespace

StreamResult
runClosedLoop(blockdev::BlockDevice &dev, const workload::Trace &trace,
              uint32_t queueDepth, sim::SimDuration thinktime,
              sim::SimTime start)
{
    StreamResult out;
    out.name = trace.name();
    out.startTime = start;

    blockdev::InflightWindow window(queueDepth);
    sim::SimTime t = start;
    out.endTime = start;
    for (const auto &rec : trace.records()) {
        t = window.admit(t);
        const auto res = dev.submit(rec.req, t);
        record(out, rec.req, t, res);
        window.push(res.completeTime + thinktime);
        out.endTime = std::max(out.endTime, res.completeTime);
    }
    return out;
}

std::vector<StreamResult>
runTenantsClosedLoop(const std::vector<TenantSpec> &tenants,
                     sim::SimTime start)
{
    struct State
    {
        size_t next = 0;           ///< Next trace index.
        sim::SimTime ready;    ///< Earliest next submission.
    };
    std::vector<StreamResult> out(tenants.size());
    std::vector<State> st(tenants.size());
    for (size_t i = 0; i < tenants.size(); ++i) {
        out[i].name = tenants[i].name.empty() ? tenants[i].trace->name()
                                              : tenants[i].name;
        out[i].startTime = start;
        out[i].endTime = start;
        st[i].ready = start;
    }

    auto allForegroundDone = [&]() {
        for (size_t i = 0; i < tenants.size(); ++i) {
            if (!tenants[i].loop && st[i].next < tenants[i].trace->size())
                return false;
        }
        return true;
    };

    while (!allForegroundDone()) {
        // Pick the runnable tenant with the earliest next submission.
        size_t best = tenants.size();
        for (size_t i = 0; i < tenants.size(); ++i) {
            if (!tenants[i].loop && st[i].next >= tenants[i].trace->size())
                continue;
            if (best == tenants.size() || st[i].ready < st[best].ready)
                best = i;
        }
        assert(best < tenants.size());

        State &s = st[best];
        const auto &rec =
            (*tenants[best].trace)[s.next % tenants[best].trace->size()];
        const auto res = tenants[best].dev->submit(rec.req, s.ready);
        record(out[best], rec.req, s.ready, res);
        out[best].endTime = std::max(out[best].endTime, res.completeTime);
        s.ready = res.completeTime + tenants[best].thinktime;
        ++s.next;
    }
    return out;
}

ScheduledRunResult
runScheduled(blockdev::BlockDevice &dev, Scheduler &sched,
             const workload::Trace &trace, sim::SimTime start,
             core::SsdCheck *check, uint32_t dispatchWidth)
{
    ScheduledRunResult out;
    out.schedulerName = sched.name();
    out.stream.name = trace.name();
    out.stream.startTime = start;

    const auto &records = trace.records();
    size_t next = 0;
    uint64_t seq = 0;
    sim::SimTime t = start;
    blockdev::InflightWindow window(dispatchWidth);
    // QD1 dispatch is closed: the next decision waits for the
    // completion, so the window stays empty.
    const bool closed = dispatchWidth == 1;
    recovery::RequestPath path{dev,     nullptr, check, nullptr,
                               nullptr, nullptr, {}};
    sim::SimDuration lastOk = 0;
    core::AccuracyResult acc;

    while (next < records.size() || !sched.empty()) {
        if (sched.empty()) {
            // Idle until the next arrival (in-flight work continues).
            t = std::max(t, start + trace.arrival(next));
        }
        while (next < records.size() && start + trace.arrival(next) <= t) {
            QueuedRequest qr;
            qr.req = records[next].req;
            qr.arrival = start + trace.arrival(next);
            qr.seq = seq++;
            sched.enqueue(qr);
            ++next;
        }
        out.maxQueueDepth = std::max<uint64_t>(out.maxQueueDepth,
                                               sched.depth());
        if (sched.empty())
            continue;

        // Wait for a free dispatch slot.
        if (window.full()) {
            t = window.admit(t);
            continue; // new arrivals may have landed meanwhile
        }

        const QueuedRequest qr = sched.dequeue(t);
        const auto res = recovery::replayRequest(path, qr.req, t, closed, t,
                                                 lastOk, acc);
        if (!closed)
            window.push(res.completeTime);
        // Latency includes queueing: completion minus arrival.
        record(out.stream, qr.req, qr.arrival, res);
        out.stream.endTime = std::max(out.stream.endTime, res.completeTime);
    }
    return out;
}

} // namespace ssdcheck::usecases
