/**
 * @file
 * Block I/O request and completion types.
 *
 * Addresses are in 512-byte sectors (LBA), matching the paper's use of
 * "LBA bit indices": the allocation/GC volume of a request is decided
 * by specific bit positions of its sector LBA. Payload sizes are in
 * sectors; the FTL operates on 4KB pages (8 sectors).
 */
#pragma once

#include <cstdint>
#include <string>

#include "sim/sim_time.h"

namespace ssdcheck::blockdev {

/** Bytes per LBA sector. */
inline constexpr uint32_t kSectorSize = 512;

/** Bytes per FTL page. */
inline constexpr uint32_t kPageSize = 4096;

/** Sectors per FTL page. */
inline constexpr uint32_t kSectorsPerPage = kPageSize / kSectorSize;

/** Kind of block I/O operation. */
enum class IoType : uint8_t { Read, Write, Trim };

/** Human-readable name of an IoType. */
std::string toString(IoType t);

/**
 * Completion status of one request. Devices may fail: media errors
 * (uncorrectable reads, program/erase failures), commands that never
 * complete in useful time, and malformed requests rejected at the
 * device boundary. Ok is the only status whose timestamps describe a
 * successful data transfer.
 */
enum class IoStatus : uint8_t
{
    Ok,          ///< Completed successfully.
    MediaError,  ///< Uncorrectable media error (retryable).
    Timeout,     ///< Host gave up waiting (retryable).
    DeviceFault, ///< Rejected/failed command (not retryable).
    /**
     * Shed by a host-side policy layer (breaker open, overload,
     * degraded mode) before reaching the device. Completes instantly
     * at the host; never produced by a device itself. Not retryable
     * through the same path — the caller must back off or reroute.
     */
    Rejected,
    /**
     * Deadline budget exhausted: the exchange (attempts + backoff)
     * would exceed the request's total-time cap, so the host stopped
     * it at the budget boundary. Not retryable — the budget is the
     * retry policy.
     */
    Expired,
};

/** Human-readable name of an IoStatus. */
std::string toString(IoStatus s);

/** True when a failed request is worth re-submitting. */
inline bool isRetryable(IoStatus s)
{
    return s == IoStatus::MediaError || s == IoStatus::Timeout;
}

/**
 * One block I/O request as seen at the device interface. The fields
 * run from widest to narrowest so the request packs into 16 bytes:
 * every workload holds its whole trace of them in memory.
 */
struct IoRequest
{
    uint64_t lba = 0;      ///< First sector address.
    uint32_t sectors = kSectorsPerPage; ///< Length in sectors.
    IoType type = IoType::Read;

    /** Length in bytes. */
    uint64_t bytes() const
    {
        return static_cast<uint64_t>(sectors) * kSectorSize;
    }

    /** Number of FTL pages touched (requests are page-aligned here). */
    uint32_t pages() const
    {
        return (sectors + kSectorsPerPage - 1) / kSectorsPerPage;
    }

    /** First page number covered. */
    uint64_t firstPage() const { return lba / kSectorsPerPage; }

    bool isRead() const { return type == IoType::Read; }
    bool isWrite() const { return type == IoType::Write; }
};
static_assert(sizeof(IoRequest) == 16);

/** Completion record returned by a device for one request. */
struct IoResult
{
    sim::SimTime submitTime;   ///< When the host submitted it.
    sim::SimTime completeTime; ///< When the device completed it.
    IoStatus status = IoStatus::Ok;
    /**
     * Host-visible submission count: 1 for a first-try success; a
     * resilience layer that re-issued the request bumps it per retry.
     * Latency observed on a multi-attempt request includes retry and
     * backoff time and must not calibrate device service estimates.
     */
    uint32_t attempts = 1;

    /** End-to-end device latency. */
    sim::SimDuration latency() const { return completeTime - submitTime; }

    /** True when the request completed successfully. */
    bool ok() const { return status == IoStatus::Ok; }

    /**
     * True for a first-try success: the one rule for which exchanges
     * measure the device. A failed or re-issued exchange carries
     * retry-loop and backoff time, so models, diagnosis, the
     * supervisor and the accuracy counts all leave it out.
     */
    bool clean() const { return ok() && attempts == 1; }
};

/** Convenience constructors for page-sized (4KB) requests. */
IoRequest makeRead4k(uint64_t pageIndex);
IoRequest makeWrite4k(uint64_t pageIndex);

} // namespace ssdcheck::blockdev

