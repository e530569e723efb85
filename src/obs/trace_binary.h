/**
 * @file
 * Compact binary trace format ("SSDTRBIN") for TraceRecorder runs.
 *
 * The hot path records POD events into the recorder's arenas and never
 * formats text; this layer is how those events leave the process
 * without paying JSON rendering either. A trace.bin is roughly half
 * the size of the Chrome JSON and is written with the same explicit
 * little-endian primitives as snapshots (recovery::state_io), so the
 * bytes are identical across hosts.
 *
 * Layout (all integers little-endian):
 *
 *   magic   8 bytes  "SSDTRBIN"
 *   version u32      kTraceBinaryVersion
 *   records, each introduced by a u8 tag:
 *     0x01 StringDef     u16 id, str (u32 len + bytes)
 *                        ids are dense and ascending; a def always
 *                        precedes the first record referencing it.
 *     0x02 ProcessName   u32 pid, str name
 *     0x03 ThreadName    u32 pid, u32 tid, str name
 *     0x04 Event         u8 phase, u16 catId, u16 nameId, u16 pid,
 *                        u16 tid, i64 ts, [i64 dur if phase == 'X'],
 *                        u8 numArgs, numArgs x (u16 keyId, i64 value)
 *     0xFF End           last record; nothing may follow.
 *
 * writeTraceBinary() encodes a retained recorder. The offline
 * converter (readTraceBinary + writeChromeJson, surfaced as
 * `ssdcheck trace-convert`) replays a file back into a TraceRecorder,
 * so its JSON is byte-identical to what the run itself would have
 * written — by construction, not by parallel implementation.
 */
#pragma once

#include <cstdint>
#include <deque>
#include <iosfwd>
#include <string>
#include <vector>

#include "obs/trace_recorder.h"
#include "recovery/state_io.h"

namespace ssdcheck::obs {

inline constexpr char kTraceBinaryMagic[8] = {'S', 'S', 'D', 'T',
                                              'R', 'B', 'I', 'N'};
inline constexpr uint32_t kTraceBinaryVersion = 1;

/** Record tags (see file-header format spec). */
enum TraceBinaryTag : uint8_t
{
    kTagStringDef = 0x01,
    kTagProcessName = 0x02,
    kTagThreadName = 0x03,
    kTagEvent = 0x04,
    kTagEnd = 0xFF,
};

/** Encode a fully retained recorder as one trace.bin stream. */
void writeTraceBinary(const TraceRecorder &rec, std::ostream &os);

/**
 * Parsed trace.bin: a replayed TraceRecorder plus the string storage
 * its events point into (the recorder stores strings by pointer, so
 * the reader must own stable copies).
 */
class TraceBinaryReader
{
  public:
    /** Parse a complete stream. @return false on malformed input. */
    bool read(std::istream &is);

    /** First parse failure description, empty while ok. */
    const std::string &error() const { return error_; }

    /** The replayed run; writeChromeJson() gives the converted JSON. */
    const TraceRecorder &recorder() const { return rec_; }

  private:
    TraceRecorder rec_;
    std::deque<std::string> storage_; ///< Stable addresses.
    std::vector<const char *> byId_;
    std::string error_;
};

/**
 * One-shot conversion: trace.bin in, Chrome trace JSON out —
 * byte-identical to the JSON the recorded run would have written.
 * @return false on malformed input (@p error set if non-null).
 */
bool convertTraceBinaryToJson(std::istream &in, std::ostream &out,
                              std::string *error = nullptr);

} // namespace ssdcheck::obs
