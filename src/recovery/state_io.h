/**
 * @file
 * Bounds-checked binary (de)serialization primitives for snapshots.
 *
 * Every field in a snapshot is written explicitly little-endian so the
 * format is identical across hosts, and every read is bounds-checked
 * against the remaining payload so a truncated or bit-flipped snapshot
 * can never walk the reader out of its buffer. StateReader is sticky:
 * after the first failure all further reads return zero values and
 * ok() stays false, which lets loadState() implementations chain reads
 * without checking each one.
 *
 * This layer knows nothing about devices or sections — it is the
 * lowest rung of src/recovery and depends only on the standard
 * library, so any component library can link it to implement
 * saveState()/loadState().
 */
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

namespace ssdcheck::recovery {

/** CRC-32 (IEEE 802.3, reflected) over a byte range. */
uint32_t crc32(const uint8_t *data, size_t len);
uint32_t crc32(const std::vector<uint8_t> &bytes);

/** FNV-1a 64-bit hash of a string (config fingerprinting). */
uint64_t fnv1a(const std::string &s);

/**
 * Append-only little-endian byte sink for snapshot payloads and the
 * binary trace encoder. A fixed-width field is one capacity check and
 * one store; clear() keeps the capacity, so a streaming producer can
 * refill one block instead of growing a fresh vector per flush.
 */
class StateWriter
{
  public:
    void u8(uint8_t v) { put(v); }
    void u16(uint16_t v) { put(v); }
    void u32(uint32_t v) { put(v); }
    void u64(uint64_t v) { put(v); }
    void i64(int64_t v) { u64(static_cast<uint64_t>(v)); }
    void f64(double v) { u64(std::bit_cast<uint64_t>(v)); }
    void boolean(bool v) { u8(v ? 1 : 0); }

    /** Length-prefixed UTF-8/opaque string (u32 length). */
    void str(std::string_view s);

    /** Raw bytes, no length prefix (caller wrote a count already). */
    void raw(const uint8_t *data, size_t len);

    const std::vector<uint8_t> &bytes() const { return bytes_; }
    std::vector<uint8_t> take() { return std::move(bytes_); }
    size_t size() const { return bytes_.size(); }

    /** Drop the contents, keep the capacity. */
    void clear() { bytes_.clear(); }

  private:
    template <typename T>
    void put(T v)
    {
        uint8_t le[sizeof v];
        if constexpr (std::endian::native == std::endian::little) {
            std::memcpy(le, &v, sizeof v);
        } else {
            for (size_t i = 0; i < sizeof v; ++i)
                le[i] = static_cast<uint8_t>(v >> (8 * i));
        }
        bytes_.insert(bytes_.end(), le, le + sizeof v);
    }

    std::vector<uint8_t> bytes_;
};

/**
 * Sticky bounds-checked little-endian reader over a byte range.
 *
 * The reader never throws and never reads out of bounds: a short or
 * malformed buffer trips the sticky failure flag and subsequent reads
 * return zero values / empty strings. Container length prefixes must
 * be validated with checkCount() before reserving memory, so a
 * corrupted length field cannot become an allocation bomb.
 */
class StateReader
{
  public:
    StateReader(const uint8_t *data, size_t len) : data_(data), len_(len) {}
    explicit StateReader(const std::vector<uint8_t> &bytes)
        : data_(bytes.data()), len_(bytes.size())
    {
    }

    uint8_t u8();
    uint16_t u16();
    uint32_t u32();
    uint64_t u64();
    int64_t i64() { return static_cast<int64_t>(u64()); }
    double f64();
    bool boolean();

    /** Read a u32-length-prefixed string (bounded by remaining()). */
    std::string str();

    /** Copy @p len raw bytes into @p out (zero-fills on failure). */
    void raw(uint8_t *out, size_t len);

    /**
     * Validate an element count read from the payload: fails unless
     * count * elemSize <= remaining(). Call before any reserve/resize
     * driven by untrusted data.
     * @return the count, or 0 after tripping the failure flag.
     */
    uint64_t checkCount(uint64_t count, size_t elemSize);

    /** Explicitly trip the failure flag (semantic validation). */
    void fail(const std::string &why);

    bool ok() const { return ok_; }
    /** First failure description, empty while ok(). */
    const std::string &error() const { return error_; }
    size_t remaining() const { return len_ - pos_; }
    bool atEnd() const { return pos_ == len_; }

  private:
    bool need(size_t n);

    const uint8_t *data_;
    size_t len_;
    size_t pos_ = 0;
    bool ok_ = true;
    std::string error_;
};

} // namespace ssdcheck::recovery
