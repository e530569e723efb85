#include "core/feature_set.h"

#include <algorithm>
#include <sstream>

#include "recovery/state_io.h"

namespace ssdcheck::core {

std::string
toString(BufferTypeFeature t)
{
    switch (t) {
      case BufferTypeFeature::Unknown:
        return "unknown";
      case BufferTypeFeature::Back:
        return "back";
      case BufferTypeFeature::Fore:
        return "fore";
    }
    return "?";
}

std::vector<uint32_t>
FeatureSet::volumeBits() const
{
    std::vector<uint32_t> bits = allocationVolumeBits;
    bits.insert(bits.end(), gcVolumeBits.begin(), gcVolumeBits.end());
    std::sort(bits.begin(), bits.end());
    bits.erase(std::unique(bits.begin(), bits.end()), bits.end());
    return bits;
}

std::string
FeatureSet::summary() const
{
    std::ostringstream os;
    os << numVolumes() << " volume(s) (";
    if (allocationVolumeBits.empty()) {
        os << "none";
    } else {
        for (size_t i = 0; i < allocationVolumeBits.size(); ++i) {
            if (i > 0)
                os << ", ";
            os << allocationVolumeBits[i];
        }
    }
    os << "), buffer " << bufferBytes / 1024 << "KB "
       << toString(bufferType) << ", flush ";
    if (flushAlgorithms.fullTrigger && flushAlgorithms.readTrigger)
        os << "full+read";
    else if (flushAlgorithms.fullTrigger)
        os << "full";
    else if (flushAlgorithms.readTrigger)
        os << "read";
    else
        os << "unknown";
    return os.str();
}

uint32_t
volumeIndexOf(const std::vector<uint32_t> &bits, uint64_t lba)
{
    uint32_t v = 0;
    for (size_t i = 0; i < bits.size(); ++i)
        v |= static_cast<uint32_t>((lba >> bits[i]) & 1ULL) << i;
    return v;
}

namespace {

void
saveBits(const std::vector<uint32_t> &bits, recovery::StateWriter &w)
{
    w.u32(static_cast<uint32_t>(bits.size()));
    for (uint32_t b : bits)
        w.u32(b);
}

bool
loadBits(std::vector<uint32_t> &bits, recovery::StateReader &r)
{
    const uint64_t n = r.checkCount(r.u32(), 4);
    // LBA bit indices address a 64-bit sector number; more than 64 of
    // them (or an index >= 64) is corrupt data, and 1 << size must not
    // overflow numVolumes().
    if (r.ok() && n > 24) {
        r.fail("feature set names more volume bits than addressable");
        return false;
    }
    bits.clear();
    for (uint64_t i = 0; i < n; ++i) {
        const uint32_t b = r.u32();
        if (r.ok() && b >= 64) {
            r.fail("feature-set volume bit index past 64-bit LBA");
            return false;
        }
        bits.push_back(b);
    }
    return r.ok();
}

} // namespace

void
saveState(const FeatureSet &fs, recovery::StateWriter &w)
{
    saveBits(fs.allocationVolumeBits, w);
    saveBits(fs.gcVolumeBits, w);
    w.u64(fs.bufferBytes);
    w.u8(static_cast<uint8_t>(fs.bufferType));
    w.boolean(fs.flushAlgorithms.fullTrigger);
    w.boolean(fs.flushAlgorithms.readTrigger);
    w.i64(fs.observedFlushOverheadNs);
}

bool
loadState(FeatureSet &fs, recovery::StateReader &r)
{
    if (!loadBits(fs.allocationVolumeBits, r) ||
        !loadBits(fs.gcVolumeBits, r))
        return false;
    fs.bufferBytes = r.u64();
    const uint8_t type = r.u8();
    if (r.ok() && type > static_cast<uint8_t>(BufferTypeFeature::Fore)) {
        r.fail("feature-set buffer type out of range");
        return false;
    }
    fs.bufferType = static_cast<BufferTypeFeature>(type);
    fs.flushAlgorithms.fullTrigger = r.boolean();
    fs.flushAlgorithms.readTrigger = r.boolean();
    fs.observedFlushOverheadNs = r.i64();
    return r.ok();
}

} // namespace ssdcheck::core
