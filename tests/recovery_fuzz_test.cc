/**
 * @file
 * Corruption fuzzing for the snapshot container: truncation at every
 * header byte and every section boundary, deterministic random bit
 * flips, CRC-consistent payload corruption and pure garbage must all
 * surface as typed LoadErrors — never a crash, never a silent partial
 * load. Runs under ASan/UBSan in the chaos-soak CI job.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "recovery/shard.h"
#include "recovery/snapshot.h"
#include "sim/rng.h"

namespace ssdcheck::recovery {
namespace {

RunParams
fuzzParams()
{
    RunParams p;
    p.device = "A";
    p.faults = "hostile";
    p.workload = "RW Mixed";
    p.scale = 0.002;
    p.supervisor = true;
    return p;
}

/** One real snapshot a few steps into a fault-heavy supervised run. */
const std::vector<uint8_t> &
realSnapshotBytes()
{
    static const std::vector<uint8_t> bytes = [] {
        std::string err;
        auto run = createRun(fuzzParams(), false, &err);
        EXPECT_NE(run, nullptr) << err;
        if (!run)
            return std::vector<uint8_t>{};
        for (int i = 0; i < 64; ++i)
            (void)run->step();
        return run->checkpoint().serialize();
    }();
    return bytes;
}

/** Byte offsets of every section-record edge in the raw layout. */
std::vector<size_t>
sectionBoundaries(const std::vector<uint8_t> &bytes)
{
    std::vector<size_t> edges;
    size_t pos = kHeaderSize;
    while (pos + 16 <= bytes.size()) {
        uint64_t payloadSize = 0;
        std::memcpy(&payloadSize, bytes.data() + pos + 4, 8);
        edges.push_back(pos);          // start of section record
        edges.push_back(pos + 4);      // after id
        edges.push_back(pos + 12);     // after size
        edges.push_back(pos + 16);     // after crc / start of payload
        if (payloadSize > bytes.size() - pos)
            break; // corrupt already; stop walking
        pos += 16 + payloadSize;
        edges.push_back(pos - 1); // last payload byte
        edges.push_back(pos);     // end of section
    }
    return edges;
}

/**
 * The fuzz oracle: a candidate byte buffer must either fail parse with
 * a typed error, or parse and then fail (or cleanly succeed) restore
 * into a fresh resume stack. Anything but a crash.
 */
void
expectHandledCleanly(const std::vector<uint8_t> &candidate,
                     const char *what)
{
    Snapshot snap;
    std::string detail;
    const LoadError pe = snap.parse(candidate, &detail);
    if (pe != LoadError::Ok) {
        EXPECT_FALSE(toString(pe).empty()) << what;
        return;
    }
    std::string err;
    auto run = createRun(fuzzParams(), true, &err);
    ASSERT_NE(run, nullptr) << err;
    const LoadError re = run->restore(snap, &detail);
    EXPECT_FALSE(toString(re).empty()) << what;
}

TEST(RecoveryFuzzTest, EveryHeaderTruncationIsTyped)
{
    const std::vector<uint8_t> &bytes = realSnapshotBytes();
    ASSERT_GT(bytes.size(), kHeaderSize);
    for (size_t cut = 0; cut < kHeaderSize; ++cut) {
        std::vector<uint8_t> t(bytes.begin(), bytes.begin() + cut);
        Snapshot snap;
        std::string detail;
        EXPECT_EQ(snap.parse(t, &detail), LoadError::TooShort)
            << "cut at " << cut;
    }
}

TEST(RecoveryFuzzTest, EverySectionBoundaryTruncationIsHandled)
{
    const std::vector<uint8_t> &bytes = realSnapshotBytes();
    for (const size_t cut : sectionBoundaries(bytes)) {
        if (cut >= bytes.size())
            continue; // full file is the valid case
        std::vector<uint8_t> t(bytes.begin(), bytes.begin() + cut);
        // A cut exactly at a section end parses as a shorter valid
        // container; restore must then report the missing section.
        // Any other cut is a typed parse failure. Either way: handled.
        expectHandledCleanly(
            t, ("truncation at " + std::to_string(cut)).c_str());
        Snapshot snap;
        if (cut != kHeaderSize &&
            snap.parse(t) == LoadError::Ok) {
            std::string err, detail;
            auto run = createRun(fuzzParams(), true, &err);
            ASSERT_NE(run, nullptr) << err;
            // RunParams is diagnostics-only, so a cut that drops only
            // the trailing RunParams section still restores cleanly;
            // any cut that loses a state section must be refused.
            const bool stateIntact =
                snap.section(SectionId::Registry) != nullptr;
            EXPECT_EQ(run->restore(snap, &detail),
                      stateIntact ? LoadError::Ok
                                  : LoadError::MissingSection)
                << "cut at " << cut;
        }
    }
}

TEST(RecoveryFuzzTest, RandomBitFlipsNeverCrashOrLoadSilently)
{
    const std::vector<uint8_t> &bytes = realSnapshotBytes();
    sim::Rng rng(0x5eed);
    for (int trial = 0; trial < 128; ++trial) {
        std::vector<uint8_t> mutated = bytes;
        const size_t byteIdx = rng.nextBelow(mutated.size());
        const uint8_t bit = 1u << rng.nextBelow(8);
        mutated[byteIdx] ^= bit;

        Snapshot snap;
        std::string detail;
        const LoadError pe = snap.parse(mutated, &detail);
        if (pe != LoadError::Ok)
            continue; // typed rejection — the common outcome
        // Flips in the (unchecksummed) section table can still parse;
        // restore must then fail — the payload the run needs is gone.
        std::string err;
        auto run = createRun(fuzzParams(), true, &err);
        ASSERT_NE(run, nullptr) << err;
        EXPECT_NE(run->restore(snap, &detail), LoadError::Ok)
            << "bit flip at byte " << byteIdx << " loaded silently";
    }
}

TEST(RecoveryFuzzTest, CrcConsistentPayloadCorruptionIsMalformed)
{
    const std::vector<uint8_t> &bytes = realSnapshotBytes();
    Snapshot original;
    ASSERT_EQ(original.parse(bytes), LoadError::Ok);

    // Rebuild the container with one section's payload corrupted but
    // its CRC recomputed — the container layer passes, so the typed
    // failure must come from section-level semantic validation.
    const SectionId targets[] = {SectionId::Device, SectionId::Model,
                                 SectionId::Supervisor,
                                 SectionId::Registry};
    sim::Rng rng(0xc0ffee);
    for (const SectionId target : targets) {
        for (int variant = 0; variant < 8; ++variant) {
            Snapshot rebuilt;
            rebuilt.begin(original.configHash(),
                          original.requestIndex(),
                          original.simTimeNs());
            for (uint32_t id = 1; id <= 7; ++id) {
                const auto *payload =
                    original.section(static_cast<SectionId>(id));
                if (payload == nullptr)
                    continue;
                std::vector<uint8_t> p = *payload;
                if (static_cast<SectionId>(id) == target) {
                    if (variant == 0) {
                        // Allocation bomb: giant count up front.
                        const uint32_t bomb = 0xfffffff0u;
                        std::memcpy(p.data(), &bomb,
                                    std::min<size_t>(4, p.size()));
                    } else if (variant == 1) {
                        p.resize(p.size() / 2); // semantic truncation
                    } else if (variant == 2) {
                        p.push_back(0); // trailing garbage
                    } else {
                        const size_t at = rng.nextBelow(p.size());
                        p[at] ^= 1u << rng.nextBelow(8);
                    }
                }
                rebuilt.addSection(static_cast<SectionId>(id),
                                   std::move(p));
            }
            expectHandledCleanly(
                rebuilt.serialize(),
                ("crc-consistent corruption of section " +
                 std::to_string(static_cast<uint32_t>(target)) +
                 " variant " + std::to_string(variant))
                    .c_str());
        }
    }
}

TEST(RecoveryFuzzTest, GarbageInputIsTyped)
{
    sim::Rng rng(42);
    for (int trial = 0; trial < 64; ++trial) {
        std::vector<uint8_t> garbage(rng.nextBelow(4096));
        for (auto &b : garbage)
            b = static_cast<uint8_t>(rng.nextBelow(256));
        Snapshot snap;
        std::string detail;
        const LoadError e = snap.parse(garbage, &detail);
        EXPECT_NE(e, LoadError::Ok);
        EXPECT_FALSE(toString(e).empty());
    }
    // Empty input and header-only input.
    Snapshot snap;
    EXPECT_EQ(snap.parse({}), LoadError::TooShort);
}

TEST(RecoveryFuzzTest, VersionAndMagicAreEnforced)
{
    const std::vector<uint8_t> &bytes = realSnapshotBytes();
    {
        std::vector<uint8_t> m = bytes;
        m[0] ^= 0xff;
        Snapshot snap;
        EXPECT_EQ(snap.parse(m), LoadError::BadMagic);
    }
    {
        // Bump the version *and* fix the header CRC so the version
        // check itself is what fires.
        std::vector<uint8_t> m = bytes;
        const uint32_t v = kFormatVersion + 1;
        std::memcpy(m.data() + 8, &v, 4);
        const uint32_t crc = crc32(m.data(), 36);
        std::memcpy(m.data() + 36, &crc, 4);
        Snapshot snap;
        EXPECT_EQ(snap.parse(m), LoadError::BadVersion);
    }
    {
        std::vector<uint8_t> m = bytes;
        m[20] ^= 0x01; // request index — covered by the header CRC
        Snapshot snap;
        EXPECT_EQ(snap.parse(m), LoadError::BadHeaderCrc);
    }
}

TEST(RecoveryFuzzTest, DuplicateSectionIsRejected)
{
    const std::vector<uint8_t> &bytes = realSnapshotBytes();
    // Append a byte-for-byte copy of the first section record.
    const std::vector<size_t> edges = sectionBoundaries(bytes);
    ASSERT_GE(edges.size(), 6u);
    const size_t firstStart = edges[0];
    const size_t firstEnd = edges[5];
    std::vector<uint8_t> m = bytes;
    m.insert(m.end(), bytes.begin() + firstStart,
             bytes.begin() + firstEnd);
    Snapshot snap;
    EXPECT_EQ(snap.parse(m), LoadError::DuplicateSection);
}

} // namespace
} // namespace ssdcheck::recovery
