#include "obs/trace_recorder.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <ostream>
#include <sstream>

namespace ssdcheck::obs {

namespace {

/** JSON-escape a (metadata) string value. */
std::string
escapeJson(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\t':
            out += "\\t";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x",
                              static_cast<unsigned>(c));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

/**
 * Nanoseconds rendered as microseconds with fixed 3-decimal precision
 * (the trace-event "ts"/"dur" unit). Fixed-point text, not doubles:
 * the output must be byte-stable across libc float formatting.
 */
void
writeMicros(std::ostream &os, int64_t ns)
{
    char buf[32];
    const char *sign = ns < 0 ? "-" : "";
    const int64_t mag = ns < 0 ? -ns : ns;
    std::snprintf(buf, sizeof buf, "%s%lld.%03lld", sign,
                  static_cast<long long>(mag / 1000),
                  static_cast<long long>(mag % 1000));
    os << buf;
}

void
writeArgs(std::ostream &os, const TraceArg *args, uint8_t numArgs)
{
    os << ",\"args\":{";
    for (uint8_t i = 0; i < numArgs; ++i) {
        if (i > 0)
            os << ',';
        os << '"' << args[i].key << "\":" << args[i].value;
    }
    os << '}';
}

} // namespace

namespace {

/**
 * Thread-local recycling pools for event/arg chunks. Faulting in a
 * fresh 48-64 KB chunk costs far more than every event it will ever
 * hold (each page is a minor fault on first touch), so chunks are
 * returned here on clear()/destruction and handed to the next grower
 * already faulted. Thread-local because each grid worker records into
 * its own recorder; chunk contents are never read before being
 * overwritten, so reuse cannot leak state between runs.
 */
template <typename T, size_t kCount>
class ChunkPool
{
  public:
    std::unique_ptr<T[]> acquire()
    {
        if (free_.empty())
            // for_overwrite: a value-initialized chunk would memset
            // memory push() is about to overwrite anyway.
            return std::make_unique_for_overwrite<T[]>(kCount);
        std::unique_ptr<T[]> p = std::move(free_.back());
        free_.pop_back();
        return p;
    }

    void release(std::vector<std::unique_ptr<T[]>> &chunks)
    {
        for (auto &c : chunks)
            if (free_.size() < kMaxFree)
                free_.push_back(std::move(c));
        chunks.clear();
    }

  private:
    /** Bound on retained memory (~48-64 MB per arena type). */
    static constexpr size_t kMaxFree = 1024;
    std::vector<std::unique_ptr<T[]>> free_;
};

} // namespace

// Out-of-line accessors so trace_recorder.h stays free of the pool.
static ChunkPool<TraceRecorder::Event, TraceRecorder::kChunkEvents> &
eventPool()
{
    thread_local ChunkPool<TraceRecorder::Event,
                           TraceRecorder::kChunkEvents> pool;
    return pool;
}

static ChunkPool<TraceArg, TraceRecorder::kChunkArgs> &
argPool()
{
    thread_local ChunkPool<TraceArg, TraceRecorder::kChunkArgs> pool;
    return pool;
}

TraceRecorder::TraceRecorder() : table_(256, 0) {}

uint16_t
TraceRecorder::internSlow(const char *s)
{
    if (strings_.size() * 2 >= table_.size()) {
        // Rehash at 50% load so the inline probe loop always finds an
        // empty slot. Distinct strings are a handful of literals in
        // practice; this path is effectively startup-only.
        std::vector<uint32_t> bigger(table_.size() * 2, 0);
        const size_t mask = bigger.size() - 1;
        for (uint32_t id = 1; id <= strings_.size(); ++id) {
            const auto h = reinterpret_cast<uintptr_t>(strings_[id - 1]);
            size_t i = (h >> 3) * 0x9E3779B97F4A7C15ull >> 32 & mask;
            while (bigger[i] != 0)
                i = (i + 1) & mask;
            bigger[i] = id;
        }
        table_ = std::move(bigger);
    }
    assert(strings_.size() < 0xFFFF && "trace string table overflow");
    strings_.push_back(s);
    const auto id = static_cast<uint32_t>(strings_.size());
    const auto h = reinterpret_cast<uintptr_t>(s);
    const size_t mask = table_.size() - 1;
    size_t i = (h >> 3) * 0x9E3779B97F4A7C15ull >> 32 & mask;
    while (table_[i] != 0)
        i = (i + 1) & mask;
    table_[i] = id;
    return static_cast<uint16_t>(id - 1);
}

TraceRecorder::~TraceRecorder()
{
    eventPool().release(chunks_);
    argPool().release(argChunks_);
}

void
TraceRecorder::advanceEventChunk()
{
    if (count_ == chunks_.size() << kEventShift)
        chunks_.push_back(eventPool().acquire());
    curEventChunk_ = chunks_[count_ >> kEventShift].get();
}

void
TraceRecorder::advanceArgChunk(size_t n)
{
    // Pad out the current chunk's tail so one event's args never
    // straddle a chunk boundary (serialization reads one span).
    const size_t apos = argCount_ & (kChunkArgs - 1);
    if (apos != 0 && apos + n > kChunkArgs)
        argCount_ += kChunkArgs - apos;
    if (argCount_ == argChunks_.size() << kArgShift)
        argChunks_.push_back(argPool().acquire());
    curArgChunk_ = argChunks_[argCount_ >> kArgShift].get();
}

void
TraceRecorder::setProcessName(uint32_t pid, const std::string &name)
{
    processNames_.emplace_back(pid, name);
}

void
TraceRecorder::setThreadName(TraceTrack track, const std::string &name)
{
    threadNames_.emplace_back(track, name);
}

void
TraceRecorder::clear()
{
    // Arenas are retained: a cleared recorder is about to record again
    // (attach/record/export cycles), and the chunks' pages are already
    // faulted in — the expensive part of growing.
    count_ = 0;
    argCount_ = 0;
    curEventChunk_ = nullptr;
    curArgChunk_ = nullptr;
    // Reset interning too: a cleared recorder must behave exactly like
    // a fresh one (string ids are observable through the binary trace
    // format).
    strings_.clear();
    std::fill(table_.begin(), table_.end(), 0u);
    processNames_.clear();
    threadNames_.clear();
}

void
TraceRecorder::writeChromeJson(std::ostream &os) const
{
    os << "{\"traceEvents\":[";
    bool first = true;
    const auto sep = [&]() {
        if (!first)
            os << ",";
        os << "\n";
        first = false;
    };
    for (const auto &[pid, name] : processNames_) {
        sep();
        os << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" << pid
           << ",\"tid\":0,\"args\":{\"name\":\"" << escapeJson(name)
           << "\"}}";
    }
    for (const auto &[track, name] : threadNames_) {
        sep();
        os << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":" << track.pid
           << ",\"tid\":" << track.tid << ",\"args\":{\"name\":\""
           << escapeJson(name) << "\"}}";
    }
    for (size_t i = 0; i < count_; ++i) {
        const Event &e = at(i);
        sep();
        os << "{\"name\":\"" << strings_[e.nameId] << "\",\"cat\":\""
           << strings_[e.catId] << "\",\"ph\":\"" << e.phase
           << "\",\"ts\":";
        writeMicros(os, e.ts);
        if (e.phase == 'X') {
            os << ",\"dur\":";
            writeMicros(os, e.dur);
        }
        os << ",\"pid\":" << e.pid << ",\"tid\":" << e.tid;
        if (e.phase == 'i')
            os << ",\"s\":\"t\"";
        if (e.numArgs > 0 || e.phase == 'C')
            writeArgs(os, argsAt(e.argPos), e.numArgs);
        os << '}';
    }
    os << "\n],\"displayTimeUnit\":\"ms\"}\n";
}

std::string
TraceRecorder::toChromeJson() const
{
    std::ostringstream os;
    writeChromeJson(os);
    return os.str();
}

} // namespace ssdcheck::obs
