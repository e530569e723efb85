/**
 * @file
 * Deterministic sim-time trace recorder (the observability tentpole's
 * first pillar).
 *
 * Records causally-ordered spans and instants of one simulation run —
 * host submit, resilient attempt/retry, device dispatch, write-buffer
 * enqueue/flush, GC trigger/victim/migrate, NAND ops, predictions —
 * and exports them as Chrome trace-event JSON ("traceEvents"), so a
 * run can be opened directly in chrome://tracing or Perfetto.
 *
 * Design constraints (see DESIGN.md "Observability"):
 *  - Sim-time only: every timestamp is a sim::SimTime; the recorder
 *    never reads the wall clock (lint R1 applies to src/obs).
 *  - Allocation-light hot path: an event is one POD append into a
 *    chunked arena (no realloc copies, one malloc per 8K events);
 *    names/categories/arg keys must be string literals (the recorder
 *    stores the pointers, it never copies).
 *  - Near-zero when disabled: components hold a TraceRecorder pointer
 *    that is null by default; every hook is guarded by one null check
 *    and no event storage exists until a recorder is attached.
 *  - Deterministic output: events serialize in record order with
 *    fixed-precision timestamps, so the same run produces a
 *    byte-identical trace at any --jobs value.
 */
#pragma once

#include <cstdint>
#include <initializer_list>
#include <iosfwd>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "sim/sim_time.h"

namespace ssdcheck::obs {

/** One event argument: a string-literal key and an integer value. */
struct TraceArg
{
    const char *key;
    int64_t value;
};

/** Where an event renders: Chrome's process (pid) / thread (tid). */
struct TraceTrack
{
    uint32_t pid = 0;
    uint32_t tid = 0;
};

// Track layout convention used across the repo (see DESIGN.md):
// pid 0 = the host stack, pid 1 = the device. Device tids are volume
// indices plus one interface track.
inline constexpr uint32_t kHostPid = 0;
inline constexpr uint32_t kDevicePid = 1;
inline constexpr uint32_t kHostWorkloadTid = 0;   ///< Replay engines.
inline constexpr uint32_t kHostResilientTid = 1;  ///< Retry/backoff path.
inline constexpr uint32_t kHostModelTid = 2;      ///< SSDcheck predictions.
inline constexpr uint32_t kHostSupervisorTid = 3; ///< Health supervisor.
inline constexpr uint32_t kDeviceInterfaceTid = 0xFFFF; ///< Bus/dispatch.

/** Records one run's events; export with writeChromeJson(). */
class TraceRecorder
{
  public:
    TraceRecorder();
    ~TraceRecorder();
    TraceRecorder(const TraceRecorder &) = delete;
    TraceRecorder &operator=(const TraceRecorder &) = delete;

    /**
     * A span [start, start+dur] (Chrome "X" complete event).
     * @param cat,name,args keys must be string literals (stored by
     *        pointer). At most kMaxArgs args are kept.
     */
    void complete(const char *cat, const char *name, TraceTrack track,
                  sim::SimTime start, sim::SimDuration dur,
                  std::initializer_list<TraceArg> args = {})
    {
        push('X', cat, name, track, start, dur, args);
    }

    /**
     * complete() for per-request hot paths: reserves @p numArgs
     * (≤ kMaxArgs) arg slots and returns them for the caller to fill
     * in place, skipping the initializer-list staging copy. The
     * returned span is valid until the next record call.
     */
    TraceArg *completeFill(const char *cat, const char *name,
                           TraceTrack track, sim::SimTime start,
                           sim::SimDuration dur, size_t numArgs)
    {
        return pushFill('X', cat, name, track, start, dur, numArgs);
    }

    /** A point event (Chrome "i" instant, thread scope). */
    void instant(const char *cat, const char *name, TraceTrack track,
                 sim::SimTime ts, std::initializer_list<TraceArg> args = {})
    {
        push('i', cat, name, track, ts, 0, args);
    }

    /** A sampled value (Chrome "C" counter event). */
    void counter(const char *name, TraceTrack track, sim::SimTime ts,
                 const char *key, int64_t value)
    {
        push('C', "counter", name, track, ts, 0, {{key, value}});
    }

    /** Display name of a pid (Chrome "process_name" metadata). */
    void setProcessName(uint32_t pid, const std::string &name);

    /** Display name of a (pid, tid) track ("thread_name" metadata). */
    void setThreadName(TraceTrack track, const std::string &name);

    /** Events recorded so far (metadata names not counted). */
    size_t events() const { return count_; }

    void clear();

    /** Serialize as Chrome trace-event JSON (object format). */
    void writeChromeJson(std::ostream &os) const;

    /** writeChromeJson into a string (tests, determinism checks). */
    std::string toChromeJson() const;

    /** Maximum args kept per event; extras are dropped. */
    static constexpr size_t kMaxArgs = 4;

    // One half-cache-line POD (32 bytes); args live in a chunked pool
    // so an event only pays for the args it actually has. Category and
    // name are interned to small ids at record time (see strings()) —
    // the arena is the hot path's dominant memory traffic, and two
    // L1-hot table probes cost less than the extra 16 bytes per event
    // ever did. pid/tid are stored narrow: every track id used in the
    // repo fits 16 bits (kDeviceInterfaceTid = 0xFFFF is the ceiling).
    // Public (read-only via eventAt/argsAt) for the binary trace
    // writer.
    struct Event
    {
        int64_t ts;
        int64_t dur;      ///< Only meaningful for phase 'X'.
        uint32_t argPos;  ///< First arg in the arg arena.
        uint16_t catId;   ///< Index into strings().
        uint16_t nameId;  ///< Index into strings().
        uint16_t pid;
        uint16_t tid;
        char phase;       ///< 'X', 'i' or 'C'.
        uint8_t numArgs;
    };

    // Both arenas use fixed-size chunks (power of two: index is a
    // shift + mask) deliberately below glibc's mmap threshold, so
    // repeated record/clear cycles recycle already-faulted heap pages
    // instead of mapping fresh ones — the dominant cost of a naive
    // growing vector at these event rates. An event's args are kept
    // contiguous within one chunk (the tail is padded when fewer than
    // kMaxArgs slots remain), so serialization reads one span.
    static constexpr size_t kEventShift = 10; ///< 1024 ev = 48 KB.
    static constexpr size_t kChunkEvents = size_t{1} << kEventShift;
    static constexpr size_t kArgShift = 12;   ///< 4096 args = 64 KB.
    static constexpr size_t kChunkArgs = size_t{1} << kArgShift;

    /** Event @p i in record order (i < events()). */
    const Event &eventAt(size_t i) const { return at(i); }

    /** Args of an event, contiguous (see Event::argPos/numArgs). */
    const TraceArg *eventArgs(const Event &e) const
    {
        return argsAt(e.argPos);
    }

    /** Interned category/name strings; Event ids index this. */
    const std::vector<const char *> &strings() const { return strings_; }

    /** pid → display-name pairs in registration order. */
    const std::vector<std::pair<uint32_t, std::string>> &
    processNames() const
    {
        return processNames_;
    }

    /** (pid, tid) → display-name pairs in registration order. */
    const std::vector<std::pair<TraceTrack, std::string>> &
    threadNames() const
    {
        return threadNames_;
    }

    /**
     * Raw append with a runtime-length arg span (the trace-convert
     * replay path; hot-path recording uses the literal-arg wrappers
     * above). The same literal-lifetime contract applies: @p cat,
     * @p name and arg keys are stored by pointer.
     */
    void append(char phase, const char *cat, const char *name,
                TraceTrack track, sim::SimTime ts, sim::SimDuration dur,
                const TraceArg *args, size_t numArgs)
    {
        pushSpan(phase, cat, name, track, ts, dur, args, numArgs);
    }

  private:

    void push(char phase, const char *cat, const char *name,
              TraceTrack track, sim::SimTime ts, sim::SimDuration dur,
              std::initializer_list<TraceArg> args)
    {
        pushSpan(phase, cat, name, track, ts, dur, args.begin(),
                 args.size());
    }

    void pushSpan(char phase, const char *cat, const char *name,
                  TraceTrack track, sim::SimTime ts, sim::SimDuration dur,
                  const TraceArg *args, size_t numArgs)
    {
        TraceArg *slot =
            pushFill(phase, cat, name, track, ts, dur, numArgs);
        const size_t n = numArgs < kMaxArgs ? numArgs : kMaxArgs;
        for (size_t i = 0; i < n; ++i)
            slot[i] = args[i];
    }

    TraceArg *pushFill(char phase, const char *cat, const char *name,
                       TraceTrack track, sim::SimTime ts,
                       sim::SimDuration dur, size_t numArgs)
    {
        // curEventChunk_/curArgChunk_ shortcut the vector-of-unique_ptr
        // double indirection: a push touches only member fields and the
        // two arena tails. The advance helpers (cold, out of line)
        // materialize or step to the chunk holding the current cursor,
        // reusing retained chunks after clear().
        if ((count_ & (kChunkEvents - 1)) == 0) [[unlikely]]
            advanceEventChunk();
        Event &e = curEventChunk_[count_ & (kChunkEvents - 1)];
        ++count_;
        e.catId = internId(cat);
        e.nameId = internId(name);
        e.ts = ts.ns();
        e.dur = dur;
        e.pid = static_cast<uint16_t>(track.pid);
        e.tid = static_cast<uint16_t>(track.tid);
        e.phase = phase;
        const size_t n = numArgs < kMaxArgs ? numArgs : kMaxArgs;
        const size_t apos = argCount_ & (kChunkArgs - 1);
        if (apos == 0 || apos + n > kChunkArgs) [[unlikely]]
            advanceArgChunk(n);
        e.argPos = static_cast<uint32_t>(argCount_);
        e.numArgs = static_cast<uint8_t>(n);
        TraceArg *slot = &curArgChunk_[argCount_ & (kChunkArgs - 1)];
        argCount_ += n;
        // Pull the next event/arg slots into cache now: pushes are
        // isolated (one per simulated request), so by the next push
        // the arena tail has been evicted and its read-for-ownership
        // would land on the critical path. Past-the-end prefetches at
        // chunk boundaries are harmless (prefetch never faults).
        __builtin_prefetch(&e + 1, 1);
        __builtin_prefetch(slot + n, 1);
        __builtin_prefetch(slot + n + 3, 1);
        return slot;
    }

    /**
     * Intern @p s by pointer identity (everything recorded is a
     * string literal or converter-owned stable storage, so equal
     * pointers mean equal strings; distinct addresses with equal
     * content just waste one table slot). The open-address table is
     * ~1 KB and L1-resident; a hit is two or three loads.
     */
    uint16_t internId(const char *s)
    {
        const auto h = reinterpret_cast<uintptr_t>(s);
        const size_t mask = table_.size() - 1;
        size_t i = (h >> 3) * 0x9E3779B97F4A7C15ull >> 32 & mask;
        for (;; i = (i + 1) & mask) {
            const uint32_t v = table_[i];
            if (v == 0)
                return internSlow(s);
            if (strings_[v - 1] == s)
                return static_cast<uint16_t>(v - 1);
        }
    }

    uint16_t internSlow(const char *s);
    void advanceEventChunk();
    void advanceArgChunk(size_t n);

    const Event &at(size_t i) const
    {
        return chunks_[i >> kEventShift][i & (kChunkEvents - 1)];
    }
    const TraceArg *argsAt(uint32_t pos) const
    {
        return &argChunks_[pos >> kArgShift][pos & (kChunkArgs - 1)];
    }

    std::vector<const char *> strings_;
    std::vector<uint32_t> table_; ///< Open-address: id + 1, 0 = empty.
    std::vector<std::unique_ptr<Event[]>> chunks_;
    size_t count_ = 0;
    std::vector<std::unique_ptr<TraceArg[]>> argChunks_;
    size_t argCount_ = 0;
    Event *curEventChunk_ = nullptr;   ///< chunks_.back(), raw.
    TraceArg *curArgChunk_ = nullptr;  ///< argChunks_.back(), raw.
    std::vector<std::pair<uint32_t, std::string>> processNames_;
    std::vector<std::pair<TraceTrack, std::string>> threadNames_;
};

} // namespace ssdcheck::obs
