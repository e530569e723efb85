#include "recovery/state_io.h"

#include <array>
#include <bit>

namespace ssdcheck::recovery {

namespace {

std::array<uint32_t, 256>
makeCrcTable()
{
    std::array<uint32_t, 256> table{};
    for (uint32_t i = 0; i < 256; ++i) {
        uint32_t c = i;
        for (int k = 0; k < 8; ++k)
            c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
        table[i] = c;
    }
    return table;
}

} // namespace

uint32_t
crc32(const uint8_t *data, size_t len)
{
    static const std::array<uint32_t, 256> table = makeCrcTable();
    uint32_t c = 0xffffffffu;
    for (size_t i = 0; i < len; ++i)
        c = table[(c ^ data[i]) & 0xffu] ^ (c >> 8);
    return c ^ 0xffffffffu;
}

uint32_t
crc32(const std::vector<uint8_t> &bytes)
{
    return crc32(bytes.data(), bytes.size());
}

uint64_t
fnv1a(const std::string &s)
{
    uint64_t h = 0xcbf29ce484222325ULL;
    for (unsigned char c : s) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    return h;
}

void
StateWriter::str(std::string_view s)
{
    u32(static_cast<uint32_t>(s.size()));
    raw(reinterpret_cast<const uint8_t *>(s.data()), s.size());
}

void
StateWriter::raw(const uint8_t *data, size_t len)
{
    bytes_.insert(bytes_.end(), data, data + len);
}

bool
StateReader::need(size_t n)
{
    if (!ok_)
        return false;
    if (len_ - pos_ < n) {
        fail("unexpected end of payload");
        return false;
    }
    return true;
}

uint8_t
StateReader::u8()
{
    if (!need(1))
        return 0;
    return data_[pos_++];
}

uint16_t
StateReader::u16()
{
    if (!need(2))
        return 0;
    uint16_t v = static_cast<uint16_t>(data_[pos_]);
    v |= static_cast<uint16_t>(data_[pos_ + 1]) << 8;
    pos_ += 2;
    return v;
}

uint32_t
StateReader::u32()
{
    if (!need(4))
        return 0;
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
        v |= static_cast<uint32_t>(data_[pos_++]) << (8 * i);
    return v;
}

uint64_t
StateReader::u64()
{
    if (!need(8))
        return 0;
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
        v |= static_cast<uint64_t>(data_[pos_++]) << (8 * i);
    return v;
}

double
StateReader::f64()
{
    return std::bit_cast<double>(u64());
}

bool
StateReader::boolean()
{
    const uint8_t v = u8();
    if (ok_ && v > 1)
        fail("boolean field is neither 0 nor 1");
    return v == 1;
}

std::string
StateReader::str()
{
    const uint32_t n = u32();
    if (!need(n))
        return std::string();
    std::string s(reinterpret_cast<const char *>(data_ + pos_), n);
    pos_ += n;
    return s;
}

void
StateReader::raw(uint8_t *out, size_t len)
{
    if (!need(len)) {
        std::memset(out, 0, len);
        return;
    }
    std::memcpy(out, data_ + pos_, len);
    pos_ += len;
}

uint64_t
StateReader::checkCount(uint64_t count, size_t elemSize)
{
    if (!ok_)
        return 0;
    if (elemSize == 0)
        elemSize = 1;
    if (count > remaining() / elemSize) {
        fail("element count exceeds remaining payload");
        return 0;
    }
    return count;
}

void
StateReader::fail(const std::string &why)
{
    if (!ok_)
        return;
    ok_ = false;
    error_ = why;
}

} // namespace ssdcheck::recovery
