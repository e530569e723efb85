#include "ssd/ssd_config.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <sstream>

namespace ssdcheck::ssd {

std::string
toString(BufferType t)
{
    switch (t) {
      case BufferType::Back:
        return "back";
      case BufferType::Fore:
        return "fore";
    }
    return "?";
}

uint32_t
SsdConfig::volumeOf(uint64_t lba) const
{
    uint32_t v = 0;
    for (size_t i = 0; i < volumeBits.size(); ++i)
        v |= static_cast<uint32_t>((lba >> volumeBits[i]) & 1ULL) << i;
    return v;
}

uint64_t
SsdConfig::localLpn(uint64_t lba) const
{
    // Cold-path convenience; hot paths hold an LbaRouter instead.
    return LbaRouter(*this).localLpn(lba);
}

uint64_t
SsdConfig::physPagesPerVolume() const
{
    const uint64_t user = userPagesPerVolume();
    const auto phys =
        static_cast<uint64_t>(static_cast<double>(user) * (1.0 + opRatio));
    // Round up to whole blocks.
    const uint64_t blocks = (phys + pagesPerBlock - 1) / pagesPerBlock;
    return blocks * pagesPerBlock;
}

nand::NandGeometry
SsdConfig::volumeGeometry() const
{
    nand::NandGeometry geo;
    // Model a volume as channels x chips x planes such that the total
    // plane count equals planesPerVolume; the split between channels
    // and chips is immaterial to timing, so use a simple factoring.
    geo.channels = std::max(1u, planesPerVolume / 8);
    geo.chipsPerChannel = std::max(1u, planesPerVolume / (geo.channels * 2));
    geo.diesPerChip = 1;
    geo.planesPerDie =
        planesPerVolume / (geo.channels * geo.chipsPerChannel);
    // Fall back to a flat layout when the factoring doesn't divide.
    if (geo.totalPlanes() != planesPerVolume) {
        geo.channels = 1;
        geo.chipsPerChannel = 1;
        geo.planesPerDie = planesPerVolume;
    }
    geo.pagesPerBlock = pagesPerBlock;
    const uint64_t blocks = physPagesPerVolume() / pagesPerBlock;
    geo.blocksPerPlane = static_cast<uint32_t>(
        (blocks + geo.totalPlanes() - 1) / geo.totalPlanes());
    return geo;
}

std::string
SsdConfig::validate() const
{
    std::ostringstream err;
    if (userCapacityPages == 0)
        err << "userCapacityPages must be > 0; ";
    if (userCapacityPages % numVolumes() != 0)
        err << "userCapacityPages must divide evenly among volumes; ";
    if (bufferPages() == 0)
        err << "bufferBytes must hold at least one page; ";
    if (bufferPages() > pagesPerBlock * planesPerVolume)
        err << "buffer larger than one program wave per block is "
               "unsupported; ";
    for (uint32_t b : volumeBits) {
        if (b < 3)
            err << "volume bit below page granularity (bit < 3); ";
        // The bit must address within the device so patterns can flip it.
        const uint64_t sectors = capacitySectors();
        if ((1ULL << b) >= sectors)
            err << "volume bit beyond device capacity; ";
    }
    {
        // Volume bits must be unique.
        auto bits = volumeBits;
        std::sort(bits.begin(), bits.end());
        if (std::adjacent_find(bits.begin(), bits.end()) != bits.end())
            err << "duplicate volume bits; ";
    }
    if (gcLowBlocks < 2)
        err << "gcLowBlocks must be >= 2; ";
    if (gcHighBlocks <= gcLowBlocks)
        err << "gcHighBlocks must exceed gcLowBlocks; ";
    if (opRatio <= 0.02)
        err << "opRatio too small for GC to make progress; ";
    if (planesPerVolume == 0 || pagesPerBlock == 0)
        err << "geometry dimensions must be nonzero; ";
    const uint64_t physBlocks = physPagesPerVolume() / pagesPerBlock;
    if (physBlocks <= gcHighBlocks + 2)
        err << "too few blocks per volume for the GC watermarks; ";
    // The FTL's page maps hold 32-bit entries with ~0u as "unmapped".
    if (planesPerVolume != 0 && pagesPerBlock != 0 &&
        volumeGeometry().totalPages() >= 0xFFFFFFFFULL)
        err << "2^32 - 1 or more physical pages per volume overflow the "
               "32-bit page maps; ";
    if (const std::string faultErr = faults.validate(); !faultErr.empty())
        err << faultErr << "; ";
    return err.str();
}

} // namespace ssdcheck::ssd
