/** @file Unit tests for ssd/ssd_config.h (volume routing math). */
#include <gtest/gtest.h>

#include <set>

#include "ssd/ssd_config.h"

namespace ssdcheck::ssd {
namespace {

TEST(SsdConfigTest, DefaultsAreValid)
{
    SsdConfig c;
    EXPECT_EQ(c.validate(), "");
    EXPECT_EQ(c.numVolumes(), 1u);
    EXPECT_EQ(c.bufferPages(), 62u); // 248KB / 4KB
}

TEST(SsdConfigTest, VolumeOfSingleVolumeAlwaysZero)
{
    SsdConfig c;
    for (uint64_t lba = 0; lba < c.capacitySectors(); lba += 99991)
        EXPECT_EQ(c.volumeOf(lba), 0u);
}

TEST(SsdConfigTest, VolumeOfOneBit)
{
    SsdConfig c;
    c.volumeBits = {17};
    EXPECT_EQ(c.numVolumes(), 2u);
    EXPECT_EQ(c.volumeOf(0), 0u);
    EXPECT_EQ(c.volumeOf(1ULL << 17), 1u);
    EXPECT_EQ(c.volumeOf((1ULL << 17) - 1), 0u);
    EXPECT_EQ(c.volumeOf((1ULL << 18)), 0u); // bit 18 not a selector
}

TEST(SsdConfigTest, VolumeOfTwoBits)
{
    SsdConfig c;
    c.volumeBits = {17, 18};
    EXPECT_EQ(c.numVolumes(), 4u);
    EXPECT_EQ(c.volumeOf(0), 0u);
    EXPECT_EQ(c.volumeOf(1ULL << 17), 1u);
    EXPECT_EQ(c.volumeOf(1ULL << 18), 2u);
    EXPECT_EQ(c.volumeOf((1ULL << 17) | (1ULL << 18)), 3u);
}

TEST(SsdConfigTest, LocalLpnIsDenseAndUniquePerVolume)
{
    SsdConfig c;
    c.userCapacityPages = 16 * 1024; // small for an exhaustive sweep
    c.volumeBits = {6, 9};
    // Walk every page; each volume's local LPNs must exactly cover
    // [0, userPagesPerVolume) with no duplicates.
    std::vector<std::set<uint64_t>> seen(c.numVolumes());
    for (uint64_t page = 0; page < c.userCapacityPages; ++page) {
        const uint64_t lba = page * blockdev::kSectorsPerPage;
        const uint32_t vol = c.volumeOf(lba);
        const uint64_t lpn = c.localLpn(lba);
        EXPECT_LT(lpn, c.userPagesPerVolume());
        EXPECT_TRUE(seen[vol].insert(lpn).second)
            << "duplicate lpn " << lpn << " in volume " << vol;
    }
    for (const auto &s : seen)
        EXPECT_EQ(s.size(), c.userPagesPerVolume());
}

TEST(SsdConfigTest, LocalLpnSingleVolumeIsPageIndex)
{
    SsdConfig c;
    for (uint64_t page : {0ULL, 1ULL, 77ULL, 130000ULL})
        EXPECT_EQ(c.localLpn(page * blockdev::kSectorsPerPage), page);
}

TEST(SsdConfigTest, PhysPagesIncludeOverprovisioning)
{
    SsdConfig c;
    EXPECT_GT(c.physPagesPerVolume(), c.userPagesPerVolume());
    EXPECT_EQ(c.physPagesPerVolume() % c.pagesPerBlock, 0u);
}

TEST(SsdConfigTest, VolumeGeometryCoversPhysPages)
{
    SsdConfig c;
    const auto g = c.volumeGeometry();
    EXPECT_TRUE(g.valid());
    EXPECT_EQ(g.totalPlanes(), c.planesPerVolume);
    EXPECT_GE(g.totalPages(), c.physPagesPerVolume());
}

TEST(SsdConfigTest, ValidateRejectsBadConfigs)
{
    {
        SsdConfig c;
        c.volumeBits = {2}; // below page granularity
        EXPECT_NE(c.validate(), "");
    }
    {
        SsdConfig c;
        c.volumeBits = {40}; // beyond capacity
        EXPECT_NE(c.validate(), "");
    }
    {
        SsdConfig c;
        c.volumeBits = {17, 17}; // duplicate
        EXPECT_NE(c.validate(), "");
    }
    {
        SsdConfig c;
        c.gcHighBlocks = c.gcLowBlocks; // no hysteresis
        EXPECT_NE(c.validate(), "");
    }
    {
        SsdConfig c;
        c.opRatio = 0.01; // too little spare for GC
        EXPECT_NE(c.validate(), "");
    }
    {
        SsdConfig c;
        c.bufferBytes = 1024; // below one page
        EXPECT_NE(c.validate(), "");
    }
}

TEST(SsdConfigTest, ValidateCapsVolumeBelow32BitPageCount)
{
    // One page per block on one plane: a volume's physical page count
    // is exactly floor(user pages * 1.5).
    SsdConfig c;
    c.pagesPerBlock = 1;
    c.planesPerVolume = 1;
    c.bufferBytes = blockdev::kPageSize;
    c.opRatio = 0.5;
    c.userCapacityPages = 2863311529ULL;
    EXPECT_EQ(c.volumeGeometry().totalPages(), 0xFFFFFFFDULL);
    EXPECT_EQ(c.validate(), "");

    c.userCapacityPages = 2863311530ULL; // 2^32 - 1 physical pages
    EXPECT_EQ(c.volumeGeometry().totalPages(), 0xFFFFFFFFULL);
    EXPECT_NE(c.validate().find("32-bit page maps"), std::string::npos)
        << c.validate();

    // The cap is per volume: two volumes just under it are fine.
    c.userCapacityPages = 2 * 2863311529ULL;
    c.volumeBits = {17};
    EXPECT_EQ(c.volumeGeometry().totalPages(), 0xFFFFFFFDULL);
    EXPECT_EQ(c.validate(), "");
}

TEST(SsdConfigTest, BufferTypeNames)
{
    EXPECT_EQ(toString(BufferType::Back), "back");
    EXPECT_EQ(toString(BufferType::Fore), "fore");
}

} // namespace
} // namespace ssdcheck::ssd
