#include "usecases/runner.h"

#include <algorithm>

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

std::vector<StreamResult>
runClosedLoop(const std::vector<Stream> &streams, sim::SimTime start)
{
    struct State
    {
        blockdev::InflightWindow window;
        sim::SimTime t;  ///< The stream's host clock.
        size_t next = 0; ///< Requests issued.
    };
    std::vector<StreamResult> out(streams.size());
    std::vector<State> st;
    st.reserve(streams.size());
    for (size_t i = 0; i < streams.size(); ++i) {
        out[i].name = streams[i].name.empty() ? streams[i].trace->name()
                                              : streams[i].name;
        out[i].startTime = start;
        out[i].endTime = start;
        st.push_back({blockdev::InflightWindow(streams[i].queueDepth), start});
    }

    for (;;) {
        // Pick the runnable stream whose window admits earliest.
        size_t best = streams.size();
        sim::SimTime bestAt;
        bool foregroundLeft = false;
        for (size_t i = 0; i < streams.size(); ++i) {
            const size_t n = streams[i].trace->size();
            const bool left = st[i].next < n;
            foregroundLeft = foregroundLeft || (left && !streams[i].loop);
            if (n == 0 || (!left && !streams[i].loop))
                continue;
            const sim::SimTime at = st[i].window.nextAdmit(st[i].t);
            if (best == streams.size() || at < bestAt) {
                best = i;
                bestAt = at;
            }
        }
        if (!foregroundLeft)
            break;

        const Stream &s = streams[best];
        State &x = st[best];
        x.t = x.window.admit(x.t);
        const blockdev::IoRequest &req =
            (*s.trace)[x.next % s.trace->size()].req;
        const auto res = s.dev->submit(req, x.t);
        record(out[best], req, x.t, res);
        out[best].endTime = std::max(out[best].endTime, res.completeTime);
        x.window.push(res.completeTime + s.thinktime);
        ++x.next;
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
    recovery::RequestPath path{dev,     nullptr, check, nullptr,
                               nullptr, nullptr, {}};
    sim::SimDuration lastOk = 0;

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
        const auto res =
            recovery::replayRequest(path, qr.req, t, false, t, lastOk);
        window.push(res.completeTime);
        // Latency includes queueing: completion minus arrival.
        record(out.stream, qr.req, qr.arrival, res);
        out.stream.endTime = std::max(out.stream.endTime, res.completeTime);
    }
    return out;
}

} // namespace ssdcheck::usecases
