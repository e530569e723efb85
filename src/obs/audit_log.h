/**
 * @file
 * Misprediction audit log (the observability tentpole's third
 * pillar).
 *
 * For every completed request the facade records what the model
 * predicted, what actually happened, and the model inputs it predicted
 * from (buffer counter/size, GC interval counter, calibrated flush/GC
 * overhead estimates). HL misses — requests that measured HL but were
 * predicted NL — are then attributed to a proximate cause:
 *
 *   fault-taint      the exchange failed or was host-retried; the
 *                    latency measures the error path, not the model.
 *   gc-drift         the latency is GC-magnitude (above the monitor's
 *                    GC threshold): the interval history missed a GC.
 *   unmodeled-flush  flush-magnitude latency the buffer counter did
 *                    not anticipate (off-phase counter, drifted buffer
 *                    size, or an internal flush the model cannot see).
 *   unknown          HL of no recognizable signature (e.g. injected
 *                    hiccups).
 *
 * Records are plain integers (no blockdev dependency: status/type are
 * stored as raw uint8) so src/obs stays a leaf over src/sim. JSONL
 * export/import feeds the tools/audit report binary.
 */
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "sim/sim_time.h"

namespace ssdcheck::obs {

/** Proximate cause of one HL miss (None = not an HL miss). */
enum class AuditCause : uint8_t
{
    None,
    FaultTaint,
    GcDrift,
    UnmodeledFlush,
    Unknown,
};

/** Human-readable name of an AuditCause. */
std::string_view toString(AuditCause c);

/** One completed request as the model saw it. */
struct AuditRecord
{
    sim::SimTime submit;
    sim::SimDuration actualNs = 0;
    sim::SimDuration predictedEetNs = 0;
    uint8_t type = 0;    ///< blockdev::IoType as raw value.
    uint8_t status = 0;  ///< blockdev::IoStatus as raw value (0 = Ok).
    uint32_t attempts = 1;
    bool predictedHl = false;
    bool actualHl = false;
    bool flushExpected = false;
    bool gcExpected = false;
    // Model inputs at completion time.
    uint32_t volume = 0;
    uint32_t bufferCounter = 0;
    uint32_t bufferSize = 0;
    uint32_t gcIntervalCounter = 0;
    sim::SimDuration flushEstimateNs = 0;
    sim::SimDuration gcEstimateNs = 0;

    /** An HL the model called NL — the misses the audit explains. */
    bool isHlMiss() const { return actualHl && !predictedHl; }
};

/**
 * Attribute one record to a proximate cause.
 * @param gcThresholdNs the monitor's GC latency threshold.
 * @return None unless the record is an HL miss.
 */
AuditCause classifyAudit(const AuditRecord &r, sim::SimDuration gcThresholdNs);

/** Per-cause bucket counts over one log. */
struct AuditReport
{
    uint64_t total = 0;          ///< Records analyzed.
    uint64_t hlEvents = 0;       ///< Requests that measured HL.
    uint64_t hlMisses = 0;       ///< HL events predicted NL.
    uint64_t faultTaint = 0;
    uint64_t gcDrift = 0;
    uint64_t unmodeledFlush = 0;
    uint64_t unknown = 0;

    /** Multi-line operator report (CLI / tools/audit). */
    std::string format() const;
};

/** Append-only audit log with analysis and JSONL round-trip. */
class AuditLog
{
  public:
    /** @param gcThresholdNs classification threshold (see classify). */
    explicit AuditLog(sim::SimDuration gcThresholdNs = 0);

    /** Donates the record storage to a thread-local reuse pool. */
    ~AuditLog();

    /** The monitor's adapted thresholds become known at attach time. */
    void setGcThreshold(sim::SimDuration ns) { gcThresholdNs_ = ns; }
    sim::SimDuration gcThreshold() const { return gcThresholdNs_; }

    void add(const AuditRecord &r)
    {
        records_.push_back(r);
        // One record lands per simulated request; prefetch the next
        // slot so its read-for-ownership is off the critical path by
        // the time the next completion records (cf. TraceRecorder).
        const AuditRecord *next = records_.data() + records_.size();
        __builtin_prefetch(next, 1);
        __builtin_prefetch(reinterpret_cast<const char *>(next) + 64, 1);
    }

    /** Pre-size for @p n records (replay loops know their length). */
    void reserve(size_t n) { records_.reserve(n); }

    const std::vector<AuditRecord> &records() const { return records_; }
    size_t size() const { return records_.size(); }

    /** Cause of record @p i under the configured threshold. */
    AuditCause causeOf(size_t i) const
    {
        return classifyAudit(records_[i], gcThresholdNs_);
    }

    /** Bucket every record by cause. */
    AuditReport analyze() const;

    /**
     * One JSON object per line (machine-readable forensics). Lines are
     * rendered into a 64 KB block that goes to @p os whole.
     */
    void writeJsonl(std::ostream &os) const;

    /**
     * Parse a JSONL stream written by writeJsonl.
     * @return false on the first malformed line (@p errorLine set).
     */
    static bool readJsonl(std::istream &is, AuditLog *out,
                          size_t *errorLine = nullptr);

  private:
    std::vector<AuditRecord> records_;
    sim::SimDuration gcThresholdNs_;
};

} // namespace ssdcheck::obs
