#include "obs/audit_log.h"

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <istream>
#include <iterator>
#include <ostream>
#include <utility>

namespace ssdcheck::obs {

std::string_view
toString(AuditCause c)
{
    switch (c) {
      case AuditCause::None:
        return "none";
      case AuditCause::FaultTaint:
        return "fault-taint";
      case AuditCause::GcDrift:
        return "gc-drift";
      case AuditCause::UnmodeledFlush:
        return "unmodeled-flush";
      case AuditCause::Unknown:
        return "unknown";
    }
    return "?";
}

AuditCause
classifyAudit(const AuditRecord &r, sim::SimDuration gcThresholdNs)
{
    if (!r.isHlMiss())
        return AuditCause::None;
    // Order matters: taint trumps magnitude (a retried exchange can
    // reach any latency), and GC magnitude trumps flush magnitude
    // (a GC always rides on a flush). Taint is blockdev's
    // !IoResult::clean() on the record's raw bytes (src/obs does not
    // include src/blockdev).
    if (r.status != 0 || r.attempts > 1)
        return AuditCause::FaultTaint;
    if (gcThresholdNs > 0 && r.actualNs > gcThresholdNs)
        return AuditCause::GcDrift;
    // Flush-magnitude band: at least half the calibrated flush
    // overhead (the mean blocked-request wait is about half the flush
    // window) but below the GC threshold.
    if (r.flushEstimateNs > 0 && r.actualNs >= r.flushEstimateNs / 2)
        return AuditCause::UnmodeledFlush;
    return AuditCause::Unknown;
}

namespace {

/**
 * Thread-local recycling pool for record storage. Replay loops log
 * one ~80-byte record per request, so a fresh log's backing store is
 * tens of MB of never-touched pages — and on this path the minor
 * faults of first touch dominate the appends themselves. Destroyed
 * logs donate their (already-faulted) storage to the next one.
 */
class RecordStorePool
{
  public:
    std::vector<AuditRecord> acquire()
    {
        if (free_.empty()) {
            std::vector<AuditRecord> v;
            // Pre-faulting a first chunk is free in the disabled path
            // and skips the early realloc-copy ladder in the hot one.
            v.reserve(4096);
            return v;
        }
        std::vector<AuditRecord> v = std::move(free_.back());
        free_.pop_back();
        v.clear();
        return v;
    }

    void release(std::vector<AuditRecord> &&v)
    {
        // Only faulted-in storage is worth keeping.
        if (v.capacity() >= 4096 && free_.size() < kMaxFree)
            free_.push_back(std::move(v));
    }

  private:
    static constexpr size_t kMaxFree = 4;
    std::vector<std::vector<AuditRecord>> free_;
};

RecordStorePool &
recordPool()
{
    thread_local RecordStorePool pool;
    return pool;
}

} // namespace

AuditLog::AuditLog(sim::SimDuration gcThresholdNs)
    : records_(recordPool().acquire()), gcThresholdNs_(gcThresholdNs)
{
}

AuditLog::~AuditLog()
{
    recordPool().release(std::move(records_));
}

AuditReport
AuditLog::analyze() const
{
    AuditReport rep;
    rep.total = records_.size();
    for (const AuditRecord &r : records_) {
        if (r.actualHl)
            ++rep.hlEvents;
        switch (classifyAudit(r, gcThresholdNs_)) {
          case AuditCause::None:
            break;
          case AuditCause::FaultTaint:
            ++rep.hlMisses;
            ++rep.faultTaint;
            break;
          case AuditCause::GcDrift:
            ++rep.hlMisses;
            ++rep.gcDrift;
            break;
          case AuditCause::UnmodeledFlush:
            ++rep.hlMisses;
            ++rep.unmodeledFlush;
            break;
          case AuditCause::Unknown:
            ++rep.hlMisses;
            ++rep.unknown;
            break;
        }
    }
    return rep;
}

std::string
AuditReport::format() const
{
    char buf[512];
    const auto pct = [&](uint64_t n) {
        return hlMisses == 0 ? 0.0
                             : 100.0 * static_cast<double>(n) /
                                   static_cast<double>(hlMisses);
    };
    std::string out;
    std::snprintf(buf, sizeof buf,
                  "requests audited:   %llu\n"
                  "HL events:          %llu\n"
                  "HL misses:          %llu\n",
                  static_cast<unsigned long long>(total),
                  static_cast<unsigned long long>(hlEvents),
                  static_cast<unsigned long long>(hlMisses));
    out += buf;
    std::snprintf(buf, sizeof buf,
                  "  unmodeled-flush:  %llu (%.1f%%)\n"
                  "  gc-drift:         %llu (%.1f%%)\n"
                  "  fault-taint:      %llu (%.1f%%)\n"
                  "  unknown:          %llu (%.1f%%)\n",
                  static_cast<unsigned long long>(unmodeledFlush),
                  pct(unmodeledFlush),
                  static_cast<unsigned long long>(gcDrift), pct(gcDrift),
                  static_cast<unsigned long long>(faultTaint),
                  pct(faultTaint),
                  static_cast<unsigned long long>(unknown), pct(unknown));
    out += buf;
    return out;
}

namespace {

/** Fields serialized per record, in line order. */
struct FieldSpec
{
    std::string_view key; ///< `"name":`, exactly as it opens the field.
    int64_t (*get)(const AuditRecord &);
    void (*set)(AuditRecord &, int64_t);
};

constexpr FieldSpec kFields[] = {
    {"\"submit_ns\":", [](const AuditRecord &r) { return r.submit.ns(); },
     [](AuditRecord &r, int64_t v) { r.submit = sim::SimTime{v}; }},
    {"\"actual_ns\":", [](const AuditRecord &r) { return r.actualNs; },
     [](AuditRecord &r, int64_t v) { r.actualNs = v; }},
    {"\"eet_ns\":", [](const AuditRecord &r) { return r.predictedEetNs; },
     [](AuditRecord &r, int64_t v) { r.predictedEetNs = v; }},
    {"\"type\":",
     [](const AuditRecord &r) { return static_cast<int64_t>(r.type); },
     [](AuditRecord &r, int64_t v) { r.type = static_cast<uint8_t>(v); }},
    {"\"status\":",
     [](const AuditRecord &r) { return static_cast<int64_t>(r.status); },
     [](AuditRecord &r, int64_t v) { r.status = static_cast<uint8_t>(v); }},
    {"\"attempts\":",
     [](const AuditRecord &r) { return static_cast<int64_t>(r.attempts); },
     [](AuditRecord &r, int64_t v) {
         r.attempts = static_cast<uint32_t>(v);
     }},
    {"\"pred_hl\":",
     [](const AuditRecord &r) { return static_cast<int64_t>(r.predictedHl); },
     [](AuditRecord &r, int64_t v) { r.predictedHl = v != 0; }},
    {"\"actual_hl\":",
     [](const AuditRecord &r) { return static_cast<int64_t>(r.actualHl); },
     [](AuditRecord &r, int64_t v) { r.actualHl = v != 0; }},
    {"\"flush_expected\":",
     [](const AuditRecord &r) {
         return static_cast<int64_t>(r.flushExpected);
     },
     [](AuditRecord &r, int64_t v) { r.flushExpected = v != 0; }},
    {"\"gc_expected\":",
     [](const AuditRecord &r) { return static_cast<int64_t>(r.gcExpected); },
     [](AuditRecord &r, int64_t v) { r.gcExpected = v != 0; }},
    {"\"volume\":",
     [](const AuditRecord &r) { return static_cast<int64_t>(r.volume); },
     [](AuditRecord &r, int64_t v) { r.volume = static_cast<uint32_t>(v); }},
    {"\"buffer_counter\":",
     [](const AuditRecord &r) {
         return static_cast<int64_t>(r.bufferCounter);
     },
     [](AuditRecord &r, int64_t v) {
         r.bufferCounter = static_cast<uint32_t>(v);
     }},
    {"\"buffer_size\":",
     [](const AuditRecord &r) { return static_cast<int64_t>(r.bufferSize); },
     [](AuditRecord &r, int64_t v) {
         r.bufferSize = static_cast<uint32_t>(v);
     }},
    {"\"gc_interval_counter\":",
     [](const AuditRecord &r) {
         return static_cast<int64_t>(r.gcIntervalCounter);
     },
     [](AuditRecord &r, int64_t v) {
         r.gcIntervalCounter = static_cast<uint32_t>(v);
     }},
    {"\"flush_estimate_ns\":",
     [](const AuditRecord &r) { return r.flushEstimateNs; },
     [](AuditRecord &r, int64_t v) { r.flushEstimateNs = v; }},
    {"\"gc_estimate_ns\":", [](const AuditRecord &r) { return r.gcEstimateNs; },
     [](AuditRecord &r, int64_t v) { r.gcEstimateNs = v; }},
};

/** Parse the integer after @p key (`"name":`) out of one JSONL line. */
bool
findInt(const std::string &line, std::string_view key, int64_t *out)
{
    const size_t pos = line.find(key);
    if (pos == std::string::npos)
        return false;
    const char *p = line.c_str() + pos + key.size();
    char *end = nullptr;
    const long long v = std::strtoll(p, &end, 10);
    if (end == p)
        return false;
    *out = v;
    return true;
}

/** Output block: writeJsonl hands the stream one block per write. */
constexpr size_t kBlockBytes = 64 * 1024;

constexpr std::string_view kCauseKey = ",\"cause\":\"";
constexpr std::string_view kLineEnd = "\"}\n";

/** Longest line: every field at 20 characters, the longest cause. */
constexpr size_t kMaxLineBytes = [] {
    size_t n = kCauseKey.size() + std::string_view("unmodeled-flush").size() +
               kLineEnd.size();
    for (const FieldSpec &f : kFields)
        n += 1 + f.key.size() + 20;
    return n;
}();

char *
append(char *p, std::string_view text)
{
    std::memcpy(p, text.data(), text.size());
    return p + text.size();
}

/** Field @p I of @p r: separator, key text, decimal value. */
template <size_t I>
char *
renderField(char *p, const AuditRecord &r)
{
    constexpr FieldSpec f = kFields[I];
    *p++ = I == 0 ? '{' : ',';
    p = append(p, f.key);
    return std::to_chars(p, p + 20, f.get(r)).ptr;
}

template <size_t... I>
char *
renderFields(char *p, const AuditRecord &r, std::index_sequence<I...>)
{
    ((p = renderField<I>(p, r)), ...);
    return p;
}

} // namespace

void
AuditLog::writeJsonl(std::ostream &os) const
{
    std::vector<char> block(kBlockBytes);
    char *const begin = block.data();
    char *p = begin;
    for (const AuditRecord &r : records_) {
        if (kBlockBytes - static_cast<size_t>(p - begin) < kMaxLineBytes) {
            os.write(begin, p - begin);
            p = begin;
        }
        p = renderFields(p, r, std::make_index_sequence<std::size(kFields)>{});
        p = append(p, kCauseKey);
        p = append(p, toString(classifyAudit(r, gcThresholdNs_)));
        p = append(p, kLineEnd);
    }
    os.write(begin, p - begin);
}

bool
AuditLog::readJsonl(std::istream &is, AuditLog *out, size_t *errorLine)
{
    std::string line;
    size_t lineNo = 0;
    while (std::getline(is, line)) {
        ++lineNo;
        if (line.empty())
            continue;
        AuditRecord r;
        for (const FieldSpec &f : kFields) {
            int64_t v = 0;
            if (!findInt(line, f.key, &v)) {
                if (errorLine != nullptr)
                    *errorLine = lineNo;
                return false;
            }
            f.set(r, v);
        }
        out->add(r);
    }
    return true;
}

} // namespace ssdcheck::obs
