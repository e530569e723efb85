/** @file Unit tests for nand/nand_array.h. */
#include <gtest/gtest.h>

#include "nand/nand_array.h"

namespace ssdcheck::nand {
namespace {

NandGeometry
geo32()
{
    NandGeometry g;
    g.channels = 4;
    g.chipsPerChannel = 4;
    g.diesPerChip = 1;
    g.planesPerDie = 2;
    g.blocksPerPlane = 4;
    g.pagesPerBlock = 8;
    return g;
}

TEST(NandArrayTest, FlatAddressingRoutesToChips)
{
    NandArray arr(geo32(), NandTiming{});
    // Program the first page of every block across all planes.
    const auto g = geo32();
    for (uint32_t plane = 0; plane < g.totalPlanes(); ++plane) {
        const Ppn ppn = encodePpn(g, {plane, 0, 0});
        arr.programPage(ppn, plane * 10);
    }
    for (uint32_t plane = 0; plane < g.totalPlanes(); ++plane) {
        const Ppn ppn = encodePpn(g, {plane, 0, 0});
        uint64_t payload = 0;
        arr.readPage(ppn, &payload);
        EXPECT_EQ(payload, plane * 10);
        EXPECT_TRUE(arr.isProgrammed(ppn));
    }
}

TEST(NandArrayTest, BlockWritePointerTracksFlatBlocks)
{
    NandArray arr(geo32(), NandTiming{});
    EXPECT_EQ(arr.blockWritePointer(Pbn{5}), 0u);
    const auto g = geo32();
    const uint64_t base = 5 * uint64_t{g.pagesPerBlock};
    arr.programPage(Ppn{base + 0}, 1);
    arr.programPage(Ppn{base + 1}, 2);
    EXPECT_EQ(arr.blockWritePointer(Pbn{5}), 2u);
}

TEST(NandArrayTest, EraseBlockByFlatNumber)
{
    NandArray arr(geo32(), NandTiming{});
    const auto g = geo32();
    const Pbn blk{g.totalBlocks() - 1};
    const Ppn base{blk.value() * g.pagesPerBlock};
    arr.programPage(base, 42);
    EXPECT_EQ(arr.blockEraseCount(blk), 0u);
    arr.eraseBlock(blk);
    EXPECT_EQ(arr.blockEraseCount(blk), 1u);
    EXPECT_EQ(arr.blockWritePointer(blk), 0u);
    EXPECT_FALSE(arr.isProgrammed(base));
}

TEST(NandArrayTest, BatchProgramTimeScalesByWaves)
{
    NandArray arr(geo32(), NandTiming{});
    const auto tProg = NandTiming{}.programLatency;
    EXPECT_EQ(arr.batchProgramTime(0), 0);
    EXPECT_EQ(arr.batchProgramTime(1), tProg);
    EXPECT_EQ(arr.batchProgramTime(32), tProg);
    EXPECT_EQ(arr.batchProgramTime(33), 2 * tProg);
    EXPECT_EQ(arr.batchProgramTime(64), 2 * tProg);
    EXPECT_EQ(arr.batchProgramTime(65), 3 * tProg);
}

TEST(NandArrayTest, BatchProgramSlcIsFaster)
{
    NandArray arr(geo32(), NandTiming{});
    EXPECT_LT(arr.batchProgramTime(32, true), arr.batchProgramTime(32, false));
}

TEST(NandArrayTest, BatchReadTimeScalesByWaves)
{
    NandArray arr(geo32(), NandTiming{});
    const auto tRead = NandTiming{}.readLatency;
    EXPECT_EQ(arr.batchReadTime(0), 0);
    EXPECT_EQ(arr.batchReadTime(32), tRead);
    EXPECT_EQ(arr.batchReadTime(100), 4 * tRead);
}

TEST(NandArrayTest, TotalsMatchGeometry)
{
    NandArray arr(geo32(), NandTiming{});
    EXPECT_EQ(arr.totalPages(), geo32().totalPages());
    EXPECT_EQ(arr.totalBlocks(), geo32().totalBlocks());
}

TEST(NandArrayTest, ReprogrammingAnErasedBlockReturnsTheNewPayload)
{
    NandArray arr(geo32(), NandTiming{});
    const Ppn page{3 * uint64_t{geo32().pagesPerBlock}};
    arr.programPage(page, 7);
    arr.eraseBlock(Pbn{3});
    arr.programPage(page, 99);
    uint64_t payload = 0;
    arr.readPage(page, &payload);
    EXPECT_EQ(payload, 99u);
}

TEST(NandArrayTest, OperationsReturnConfiguredLatencies)
{
    NandTiming t;
    t.readLatency = 11;
    t.programLatency = 22;
    t.eraseLatency = 33;
    NandArray arr(geo32(), t);
    EXPECT_EQ(arr.programPage(Ppn{0}, 1), 22);
    EXPECT_EQ(arr.readPage(Ppn{0}), 11);
    EXPECT_EQ(arr.eraseBlock(Pbn{0}), 33);
}

TEST(NandArrayTest, EraseLeavesOtherBlocksProgrammed)
{
    NandArray arr(geo32(), NandTiming{});
    const uint64_t ppb = geo32().pagesPerBlock;
    arr.programPage(Ppn{0}, 1);
    arr.programPage(Ppn{ppb}, 2);
    arr.eraseBlock(Pbn{0});
    EXPECT_FALSE(arr.isProgrammed(Ppn{0}));
    EXPECT_TRUE(arr.isProgrammed(Ppn{ppb}));
    uint64_t payload = 0;
    arr.readPage(Ppn{ppb}, &payload);
    EXPECT_EQ(payload, 2u);
}

#ifndef NDEBUG
TEST(NandArrayDeathTest, NonSequentialProgramAsserts)
{
    NandArray arr(geo32(), NandTiming{});
    EXPECT_DEATH(arr.programPage(Ppn{3}, 1), "sequential");
}

TEST(NandArrayDeathTest, DoubleProgramAsserts)
{
    NandArray arr(geo32(), NandTiming{});
    arr.programPage(Ppn{0}, 1);
    EXPECT_DEATH(arr.programPage(Ppn{0}, 2), "sequential");
}

TEST(NandArrayDeathTest, ReadingUnprogrammedPageAsserts)
{
    NandArray arr(geo32(), NandTiming{});
    EXPECT_DEATH(arr.readPage(Ppn{0}), "unprogrammed");
}
#endif

/** Parameterized sweep: write pointers independent across geometries. */
class NandArrayGeometrySweep
    : public ::testing::TestWithParam<std::tuple<uint32_t, uint32_t>>
{
};

TEST_P(NandArrayGeometrySweep, FullFillAndEraseEveryBlock)
{
    const auto [planes, ppb] = GetParam();
    NandGeometry g;
    g.channels = 1;
    g.chipsPerChannel = 1;
    g.planesPerDie = planes;
    g.blocksPerPlane = 2;
    g.pagesPerBlock = ppb;
    NandArray arr(g, NandTiming{});
    for (uint64_t b = 0; b < arr.totalBlocks(); ++b) {
        for (uint32_t p = 0; p < ppb; ++p)
            arr.programPage(Ppn{b * ppb + p}, b * 1000 + p);
        EXPECT_EQ(arr.blockWritePointer(Pbn{b}), ppb);
    }
    for (uint64_t b = 0; b < arr.totalBlocks(); ++b) {
        arr.eraseBlock(Pbn{b});
        EXPECT_EQ(arr.blockWritePointer(Pbn{b}), 0u);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, NandArrayGeometrySweep,
    ::testing::Combine(::testing::Values(1u, 2u, 8u),
                       ::testing::Values(4u, 16u, 64u)));

} // namespace
} // namespace ssdcheck::nand
