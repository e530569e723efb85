/**
 * @file
 * Versioned, CRC-checked snapshot container.
 *
 * Layout (all integers little-endian):
 *
 *   offset  size  field
 *   0       8     magic "SSDCKPT1"
 *   8       4     format version (kFormatVersion)
 *   12      8     config hash (FNV-1a of the canonical run config)
 *   20      8     request index the snapshot was taken at
 *   28      8     virtual sim time (ns) at the barrier
 *   36      4     CRC-32 of bytes [0, 36)
 *   40      --    sections, each:
 *                   4  section id (SectionId)
 *                   8  payload size in bytes
 *                   4  CRC-32 of the payload
 *                   n  payload
 *
 * Snapshots are taken at quiescent request-stream barriers (between
 * closed-loop requests, queue depth 0), so no in-flight request or
 * pending callback ever needs serializing. Loading validates the
 * magic, version, header CRC and every section CRC before any
 * component sees a byte; every failure is a typed LoadError, never a
 * crash or a silent partial load.
 */
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "recovery/state_io.h"

namespace ssdcheck::recovery {

/** Current snapshot format version. Bump on any layout change.
 *  v2: ResilientDevice gained expired/attemptsIssued counters,
 *  FaultInjector gained burst-regime state, and the Resilience/Chaos
 *  sections were added.
 *  v3: NandArray serializes flat structure-of-arrays state (all write
 *  pointers, then erase counts, then read counts) instead of the old
 *  per-chip interleaved block records. */
inline constexpr uint32_t kFormatVersion = 3;

/** Snapshot file magic ("SSDCKPT1"). */
inline constexpr uint8_t kMagic[8] = {'S', 'S', 'D', 'C', 'K', 'P', 'T', '1'};

/** Fixed header size in bytes (see file comment for the layout). */
inline constexpr size_t kHeaderSize = 40;

/** Well-known section identifiers. */
enum class SectionId : uint32_t
{
    Device = 1,     ///< SsdDevice: volumes, mapper, buffers, faults.
    Model = 2,      ///< SsdCheck: features, calibrator, engine, monitor.
    Supervisor = 3, ///< HealthSupervisor state machine.
    Resilient = 4,  ///< ResilientDevice retry/error counters.
    Accuracy = 5,   ///< Accuracy counters + workload cursor + clock.
    Registry = 6,   ///< obs::Registry owned counters and timeline.
    RunParams = 7,  ///< Canonical run parameters (for --resume).
    Resilience = 8, ///< PolicyDevice: breaker/hedge/admission state.
    Chaos = 9,      ///< Chaos campaign shard cursor + digest.
};

/** Why a snapshot failed to load. */
enum class LoadError : uint8_t
{
    Ok = 0,
    IoError,          ///< File missing/unreadable.
    TooShort,         ///< Smaller than the fixed header.
    BadMagic,         ///< Not a snapshot file.
    BadVersion,       ///< Format version this build does not speak.
    BadHeaderCrc,     ///< Header bytes corrupted.
    Truncated,        ///< Section table walks past end of file.
    BadSectionCrc,    ///< A section payload is corrupted.
    DuplicateSection, ///< Same section id appears twice.
    MissingSection,   ///< A required section is absent.
    ConfigMismatch,   ///< Config hash differs from this run's config.
    Malformed,        ///< Section decoded but failed validation.
};

/** Human-readable name of a LoadError (stable, for messages/tests). */
std::string toString(LoadError e);

/** A parsed-and-verified snapshot: section payloads by id. */
class Snapshot
{
  public:
    /** Begin a snapshot at (requestIndex, simTime) for configHash. */
    void begin(uint64_t configHash, uint64_t requestIndex, int64_t simTimeNs);

    /** Add a section (id must be unique). */
    void addSection(SectionId id, std::vector<uint8_t> payload);

    /** Serialize to the on-disk byte layout. */
    std::vector<uint8_t> serialize() const;

    /**
     * Parse and fully verify a byte buffer. On any failure returns the
     * typed error and, when @p detail is non-null, a human-readable
     * explanation; *this is left empty.
     */
    [[nodiscard]] LoadError parse(const std::vector<uint8_t> &bytes,
                                  std::string *detail = nullptr);

    /** Section payload, or nullptr when absent. */
    const std::vector<uint8_t> *section(SectionId id) const;

    uint64_t configHash() const { return configHash_; }
    uint64_t requestIndex() const { return requestIndex_; }
    int64_t simTimeNs() const { return simTimeNs_; }
    size_t sectionCount() const { return sections_.size(); }

  private:
    uint64_t configHash_ = 0;
    uint64_t requestIndex_ = 0;
    int64_t simTimeNs_ = 0;
    std::map<uint32_t, std::vector<uint8_t>> sections_;
};

/**
 * Write @p bytes to @p path atomically: write to a temp file in the
 * same directory, fsync it, rename over the target, then fsync the
 * directory. A SIGKILL at any point leaves either the old complete
 * file or the new complete file, never a torn one.
 * @return empty string on success, else an error message.
 */
std::string writeFileAtomic(const std::string &path,
                            const std::vector<uint8_t> &bytes);

/**
 * Read a whole file. @return LoadError::Ok/IoError; fills @p out.
 */
[[nodiscard]] LoadError readFile(const std::string &path,
                                 std::vector<uint8_t> *out,
                                 std::string *detail = nullptr);

} // namespace ssdcheck::recovery
