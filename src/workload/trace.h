/**
 * @file
 * Block I/O traces: the replayable unit of every evaluation workload.
 *
 * A trace is an ordered list of records with optional arrival times.
 * Closed-loop replay ignores arrivals; open-loop replay (the
 * scheduler experiments) uses them. Arrivals live in a column of
 * their own that stays empty while every arrival is 0, so a
 * closed-loop trace costs 16 bytes per record. characterize()
 * computes the three statistics Table II reports: request count,
 * write fraction, and randomness (fraction of requests not
 * sequentially adjacent to the previous request).
 */
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "blockdev/request.h"
#include "sim/rng.h"
#include "sim/sim_time.h"

namespace ssdcheck::workload {

/** One trace entry; its arrival is Trace::arrival(i). */
struct TraceRecord
{
    blockdev::IoRequest req;
};
static_assert(sizeof(TraceRecord) == 16);

/** Table II-style workload statistics. */
struct TraceStats
{
    uint64_t requests = 0;
    double writeFraction = 0.0;
    double randomFraction = 0.0;
    uint64_t totalBytes = 0;
};

/** An ordered, replayable block I/O workload. */
class Trace
{
  public:
    Trace() = default;
    explicit Trace(std::string name) : name_(std::move(name)) {}

    /** Append a request at @p arrival (arrivals must be nondecreasing). */
    void add(const blockdev::IoRequest &req, sim::SimDuration arrival);

    /** Append a request at the last record's arrival (0 when none). */
    void add(const blockdev::IoRequest &req);

    /** Pre-size for @p n records (builders know their length). */
    void reserve(size_t n) { records_.reserve(n); }

    const std::string &name() const { return name_; }
    void setName(std::string n) { name_ = std::move(n); }

    size_t size() const { return records_.size(); }
    bool empty() const { return records_.empty(); }
    const TraceRecord &operator[](size_t i) const { return records_[i]; }
    const std::vector<TraceRecord> &records() const { return records_; }

    /** Arrival offset of record @p i from trace start. */
    sim::SimDuration arrival(size_t i) const
    {
        return arrivals_.empty() ? 0 : arrivals_[i];
    }

    /** Compute Table II statistics. */
    TraceStats characterize() const;

    /**
     * Assign Poisson arrivals at @p iops mean rate, preserving order.
     * Used by the open-loop scheduler experiments.
     */
    void assignPoissonArrivals(double iops, sim::Rng &rng);

    /** Truncate to the first @p n records. */
    void truncate(size_t n);

    /**
     * Write the trace as text: a `# name` header line, then one
     * `arrival_ns type lba sectors` line per record (type is r/w/t).
     */
    void saveText(std::ostream &os) const;

    /**
     * Parse a trace previously written by saveText().
     * @param errorLine when non-null and parsing fails, receives the
     *        1-based line number of the offending line (0 when the
     *        stream was empty).
     * @return the trace, or std::nullopt on malformed input.
     */
    static std::optional<Trace> loadText(std::istream &is,
                                         size_t *errorLine = nullptr);

  private:
    /** Arrival of the last record (0 when none). */
    sim::SimDuration lastArrival() const
    {
        return arrivals_.empty() ? 0 : arrivals_.back();
    }

    std::string name_;
    std::vector<TraceRecord> records_;
    /** Per-record arrivals; empty while every arrival is 0, else the
     *  same length as records_. */
    std::vector<sim::SimDuration> arrivals_;
};

} // namespace ssdcheck::workload

