#include "obs/trace_binary.h"

#include <cassert>
#include <istream>
#include <iterator>
#include <ostream>

namespace ssdcheck::obs {

namespace {

/** Flush granularity: the size of the reused output block. */
constexpr size_t kFlushBytes = 64 * 1024;

size_t
slotOf(const char *s, size_t mask)
{
    const auto h = reinterpret_cast<uintptr_t>(s);
    return (h >> 3) * 0x9E3779B97F4A7C15ull >> 32 & mask;
}

/**
 * Streaming encoder over one recorder's events: header on
 * construction, then event() per event in record order, then finish()
 * exactly once. Strings (categories, names, arg keys) are interned by
 * pointer into one id space in first-reference order. Output is built
 * in one reused 64 KB block that goes to the stream whole.
 */
class TraceBinaryEncoder
{
  public:
    TraceBinaryEncoder(const TraceRecorder &rec, std::ostream &os);

    /** Encode one event of the recorder. */
    void event(const TraceRecorder::Event &e);

    /** Metadata records + End marker + flush. */
    void finish();

  private:
    /** Stream id of the recorder's interned string @p recId. */
    uint16_t recorderString(uint16_t recId);
    /** Stream id of @p s, defining it on first reference. */
    uint16_t intern(const char *s);
    uint16_t define(const char *s, size_t slot);
    void flush();

    /** Open-address slot of the pointer intern table. */
    struct Slot
    {
        const char *s = nullptr;
        uint16_t id = 0;
    };

    const TraceRecorder &rec_;
    std::ostream &os_;
    recovery::StateWriter w_; ///< The current output block.
    /// Stream id + 1 per recorder string id (0: not referenced yet).
    /// Categories and names resolve here without hashing; the pointer
    /// table below stays the one source of ids.
    std::vector<uint16_t> byRecorderId_;
    std::vector<Slot> slots_; ///< Power-of-two size, at most half full.
    size_t defined_ = 0;
};

TraceBinaryEncoder::TraceBinaryEncoder(const TraceRecorder &rec,
                                       std::ostream &os)
    : rec_(rec), os_(os), slots_(64)
{
    os_.write(kTraceBinaryMagic, sizeof kTraceBinaryMagic);
    w_.u32(kTraceBinaryVersion);
}

uint16_t
TraceBinaryEncoder::intern(const char *s)
{
    const size_t mask = slots_.size() - 1;
    for (size_t i = slotOf(s, mask);; i = (i + 1) & mask) {
        if (slots_[i].s == s)
            return slots_[i].id;
        if (slots_[i].s == nullptr)
            return define(s, i);
    }
}

uint16_t
TraceBinaryEncoder::define(const char *s, size_t slot)
{
    assert(defined_ < 0xFFFF && "trace binary string table overflow");
    const auto id = static_cast<uint16_t>(defined_++);
    w_.u8(kTagStringDef);
    w_.u16(id);
    w_.str(s);
    slots_[slot] = Slot{s, id};
    if (defined_ * 2 > slots_.size()) {
        std::vector<Slot> bigger(slots_.size() * 2);
        const size_t mask = bigger.size() - 1;
        for (const Slot &old : slots_) {
            if (old.s == nullptr)
                continue;
            size_t i = slotOf(old.s, mask);
            while (bigger[i].s != nullptr)
                i = (i + 1) & mask;
            bigger[i] = old;
        }
        slots_ = std::move(bigger);
    }
    return id;
}

uint16_t
TraceBinaryEncoder::recorderString(uint16_t recId)
{
    if (recId < byRecorderId_.size() && byRecorderId_[recId] != 0)
        return static_cast<uint16_t>(byRecorderId_[recId] - 1);
    if (recId >= byRecorderId_.size())
        byRecorderId_.resize(rec_.strings().size(), 0);
    // The pointer may already be defined as an arg key.
    const uint16_t id = intern(rec_.strings()[recId]);
    byRecorderId_[recId] = static_cast<uint16_t>(id + 1);
    return id;
}

void
TraceBinaryEncoder::event(const TraceRecorder::Event &e)
{
    // Intern before emitting the event tag so every StringDef lands
    // ahead of the record that references it.
    const TraceArg *args = rec_.eventArgs(e);
    const uint16_t cat = recorderString(e.catId);
    const uint16_t name = recorderString(e.nameId);
    uint16_t keyIds[TraceRecorder::kMaxArgs];
    for (uint8_t i = 0; i < e.numArgs; ++i)
        keyIds[i] = intern(args[i].key);
    w_.u8(kTagEvent);
    w_.u8(static_cast<uint8_t>(e.phase));
    w_.u16(cat);
    w_.u16(name);
    w_.u16(e.pid);
    w_.u16(e.tid);
    w_.i64(e.ts);
    if (e.phase == 'X')
        w_.i64(e.dur);
    w_.u8(e.numArgs);
    for (uint8_t i = 0; i < e.numArgs; ++i) {
        w_.u16(keyIds[i]);
        w_.i64(args[i].value);
    }
    if (w_.size() >= kFlushBytes)
        flush();
}

void
TraceBinaryEncoder::finish()
{
    // Metadata last: JSON rendering orders it from the replayed
    // vectors, not from stream position.
    for (const auto &[pid, name] : rec_.processNames()) {
        w_.u8(kTagProcessName);
        w_.u32(pid);
        w_.str(name);
    }
    for (const auto &[track, name] : rec_.threadNames()) {
        w_.u8(kTagThreadName);
        w_.u32(track.pid);
        w_.u32(track.tid);
        w_.str(name);
    }
    w_.u8(kTagEnd);
    flush();
    os_.flush();
}

void
TraceBinaryEncoder::flush()
{
    os_.write(reinterpret_cast<const char *>(w_.bytes().data()),
              static_cast<std::streamsize>(w_.size()));
    w_.clear();
}

} // namespace

void
writeTraceBinary(const TraceRecorder &rec, std::ostream &os)
{
    TraceBinaryEncoder enc(rec, os);
    for (size_t i = 0; i < rec.events(); ++i)
        enc.event(rec.eventAt(i));
    enc.finish();
}

bool
TraceBinaryReader::read(std::istream &is)
{
    const std::vector<uint8_t> buf{std::istreambuf_iterator<char>(is),
                                   std::istreambuf_iterator<char>()};
    recovery::StateReader r(buf);

    char magic[sizeof kTraceBinaryMagic];
    r.raw(reinterpret_cast<uint8_t *>(magic), sizeof magic);
    if (r.ok() &&
        std::memcmp(magic, kTraceBinaryMagic, sizeof magic) != 0) {
        error_ = "not a trace.bin stream (bad magic)";
        return false;
    }
    const uint32_t version = r.u32();
    if (r.ok() && version != kTraceBinaryVersion) {
        error_ = "unsupported trace.bin version " + std::to_string(version);
        return false;
    }

    bool sawEnd = false;
    while (r.ok() && !sawEnd) {
        const uint8_t tag = r.u8();
        switch (tag) {
          case kTagStringDef: {
            const uint16_t id = r.u16();
            std::string s = r.str();
            if (r.ok() && id != byId_.size()) {
                r.fail("string ids must be dense and ascending");
                break;
            }
            storage_.push_back(std::move(s));
            byId_.push_back(storage_.back().c_str());
            break;
          }
          case kTagProcessName: {
            const uint32_t pid = r.u32();
            const std::string name = r.str();
            if (r.ok())
                rec_.setProcessName(pid, name);
            break;
          }
          case kTagThreadName: {
            const uint32_t pid = r.u32();
            const uint32_t tid = r.u32();
            const std::string name = r.str();
            if (r.ok())
                rec_.setThreadName(TraceTrack{pid, tid}, name);
            break;
          }
          case kTagEvent: {
            const char phase = static_cast<char>(r.u8());
            const uint16_t cat = r.u16();
            const uint16_t name = r.u16();
            const uint16_t pid = r.u16();
            const uint16_t tid = r.u16();
            const int64_t ts = r.i64();
            const int64_t dur = phase == 'X' ? r.i64() : 0;
            const uint8_t numArgs = r.u8();
            if (r.ok() && numArgs > TraceRecorder::kMaxArgs) {
                r.fail("event arg count exceeds kMaxArgs");
                break;
            }
            TraceArg args[TraceRecorder::kMaxArgs];
            bool argsOk = true;
            for (uint8_t i = 0; i < numArgs; ++i) {
                const uint16_t key = r.u16();
                const int64_t value = r.i64();
                if (key >= byId_.size()) {
                    r.fail("event references an undefined string id");
                    argsOk = false;
                    break;
                }
                args[i] = TraceArg{byId_[key], value};
            }
            if (!r.ok() || !argsOk)
                break;
            if (cat >= byId_.size() || name >= byId_.size()) {
                r.fail("event references an undefined string id");
                break;
            }
            rec_.append(phase, byId_[cat], byId_[name],
                        TraceTrack{pid, tid}, sim::SimTime{ts}, dur, args,
                        numArgs);
            break;
          }
          case kTagEnd:
            sawEnd = true;
            break;
          default:
            r.fail("unknown record tag " + std::to_string(tag));
            break;
        }
    }
    if (r.ok() && !sawEnd)
        r.fail("stream ends without an End record");
    if (r.ok() && !r.atEnd())
        r.fail("trailing bytes after the End record");
    if (!r.ok()) {
        error_ = r.error();
        return false;
    }
    return true;
}

bool
convertTraceBinaryToJson(std::istream &in, std::ostream &out,
                         std::string *error)
{
    TraceBinaryReader reader;
    if (!reader.read(in)) {
        if (error != nullptr)
            *error = reader.error();
        return false;
    }
    reader.recorder().writeChromeJson(out);
    return true;
}

} // namespace ssdcheck::obs
