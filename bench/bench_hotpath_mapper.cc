/**
 * @file
 * Hot-path microbenchmark: per-operation FTL cost vs device size.
 *
 * Complements bench_hotpath_gc (which times only victim selection
 * inside a combined loop) by isolating the three mapper operations the
 * SoA rework targeted — overwrite/invalidate, GC page migration, and
 * victim pick — and reporting ns per operation at 256 to 16384
 * physical blocks. The packed validity bitmaps and per-block counters
 * keep invalidate O(1) and let migration walk a victim's live pages as
 * one bitmap scan, so all three columns should stay roughly flat as
 * the device grows 64x.
 */
#include "bench_common.h"

#include <chrono>

#include "nand/nand_array.h"
#include "sim/rng.h"
#include "ssd/page_mapper.h"

using namespace ssdcheck;

namespace {

struct SizeResult
{
    uint64_t blocks = 0;
    double nsPerInvalidate = 0; ///< writePage() of an already-mapped lpn.
    double nsPerMigrate = 0;    ///< collectBlock() per valid page moved.
    double nsPerPick = 0;       ///< pickVictimGreedy().
};

double
nsPerOp(std::chrono::nanoseconds total, uint64_t ops)
{
    return ops > 0
               ? static_cast<double>(total.count()) /
                     static_cast<double>(ops)
               : 0.0;
}

SizeResult
runSize(uint32_t blocksPerPlane)
{
    nand::NandGeometry g;
    g.channels = 1;
    g.chipsPerChannel = 1;
    g.planesPerDie = 1;
    g.blocksPerPlane = blocksPerPlane;
    g.pagesPerBlock = 64;

    nand::NandArray arr(g, nand::NandTiming{});
    const uint64_t userPages = g.totalPages() * 8 / 10; // 80% exported
    ssd::PageMapper m(arr, userPages);

    sim::Rng rng(42);
    auto gcIfNeeded = [&]() {
        while (m.freeBlocks() < 4) {
            const nand::Pbn v = m.pickVictimGreedy();
            if (v == ssd::PageMapper::kNoVictim)
                break;
            m.collectBlock(v);
        }
    };

    // Fill once, then fragment with random overwrites so every timed
    // write invalidates an existing mapping and victims carry a
    // realistic mix of live pages.
    for (uint64_t lpn = 0; lpn < userPages; ++lpn) {
        m.writePage(core::Lpn{lpn}, lpn);
        gcIfNeeded();
    }
    for (uint64_t i = 0; i < userPages; ++i) {
        m.writePage(core::Lpn{rng.nextBelow(userPages)}, i);
        gcIfNeeded();
    }

    const uint64_t iters = 200000;
    std::chrono::nanoseconds invalidateTime{0};
    std::chrono::nanoseconds migrateTime{0};
    std::chrono::nanoseconds pickTime{0};
    uint64_t invalidates = 0;
    uint64_t migrated = 0;
    uint64_t picks = 0;

    for (uint64_t i = 0; i < iters; ++i) {
        // Every lpn is mapped after the fill, so each write is one
        // invalidate + one program.
        const uint64_t lpn = rng.nextBelow(userPages);
        const auto w0 = std::chrono::steady_clock::now();
        m.writePage(core::Lpn{lpn}, i);
        invalidateTime += std::chrono::steady_clock::now() - w0;
        ++invalidates;

        while (m.freeBlocks() < 4) {
            const auto p0 = std::chrono::steady_clock::now();
            const nand::Pbn v = m.pickVictimGreedy();
            pickTime += std::chrono::steady_clock::now() - p0;
            ++picks;
            if (v == ssd::PageMapper::kNoVictim)
                break;
            const auto m0 = std::chrono::steady_clock::now();
            const uint64_t moved = m.collectBlock(v);
            migrateTime += std::chrono::steady_clock::now() - m0;
            migrated += moved;
        }
    }

    SizeResult r;
    r.blocks = g.totalBlocks();
    r.nsPerInvalidate = nsPerOp(invalidateTime, invalidates);
    r.nsPerMigrate = nsPerOp(migrateTime, migrated);
    r.nsPerPick = nsPerOp(pickTime, picks);
    return r;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::banner("hotpath/mapper",
                  "Per-operation FTL cost (invalidate / GC migrate / "
                  "victim pick) vs physical block count");

    const std::vector<uint32_t> sizes{256, 1024, 4096, 16384};
    std::vector<SizeResult> results(sizes.size());
    std::vector<std::pair<std::string, std::function<uint64_t()>>> tasks;
    for (size_t i = 0; i < sizes.size(); ++i)
        tasks.emplace_back("blocks" + std::to_string(sizes[i]), [&, i]() {
            results[i] = runSize(sizes[i]);
            return uint64_t{200000};
        });
    const auto timing =
        perf::runTimedBatch(tasks, bench::parseJobs(argc, argv));

    stats::TablePrinter t;
    t.header({"blocks", "ns/invalidate", "ns/migrate", "ns/pick",
              "inval vs smallest"});
    for (size_t i = 0; i < results.size(); ++i) {
        const auto &r = results[i];
        t.row({std::to_string(r.blocks),
               stats::TablePrinter::num(r.nsPerInvalidate, 1),
               stats::TablePrinter::num(r.nsPerMigrate, 1),
               stats::TablePrinter::num(r.nsPerPick, 1),
               stats::TablePrinter::num(
                   r.nsPerInvalidate / results[0].nsPerInvalidate, 2) +
                   "x"});
    }
    t.print(std::cout);
    std::cout << "\nAll three operations are O(1) in block count "
                 "(migration is per live page moved), so growth across "
                 "the 64x range reflects cache locality, not "
                 "algorithmic cost: once the forward/inverse maps "
                 "outgrow the LLC, every op pays a few memory stalls. "
                 "A linear-scan implementation would grow ~64x.\n";
    bench::reportBatch("hotpath_mapper", timing);
    return 0;
}
