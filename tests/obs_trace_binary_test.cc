/**
 * @file
 * Unit tests of the binary trace format (obs/trace_binary.h): JSON
 * byte-identity through the offline converter, the committed byte
 * fixture, read/write round trips over random feeds, and sticky
 * rejection of malformed streams.
 */
#include <cstring>
#include <deque>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/trace_binary.h"
#include "obs/trace_recorder.h"
#include "sim/rng.h"
#include "sim/sim_time.h"

#ifndef SSDCHECK_FIXTURE_DIR
#error "SSDCHECK_FIXTURE_DIR must point at tests/fixtures"
#endif

namespace ssdcheck::obs {
namespace {

/** Deterministic mixed-shape event feed shared by the tests. */
void
record(TraceRecorder &tr, size_t events)
{
    tr.setProcessName(kHostPid, "host");
    tr.setProcessName(kDevicePid, "device \"A\"");
    tr.setThreadName({kHostPid, kHostModelTid}, "model");
    tr.setThreadName({kDevicePid, kDeviceInterfaceTid}, "bus");
    for (size_t i = 0; i < events; ++i) {
        const sim::SimTime t{static_cast<int64_t>(i) * 1000 + 500};
        switch (i % 4) {
          case 0:
            tr.complete("dev", "dev.request",
                        {kDevicePid, kDeviceInterfaceTid}, t, 2000,
                        {{"lba", static_cast<int64_t>(i)},
                         {"write", 1},
                         {"pages", 4},
                         {"status", 0}});
            break;
          case 1:
            tr.instant("wb", "wb.enqueue", {kDevicePid, 0}, t,
                       {{"fill", static_cast<int64_t>(i % 33)}});
            break;
          case 2:
            tr.counter("queue", {kHostPid, kHostWorkloadTid}, t, "depth",
                       static_cast<int64_t>(i % 7));
            break;
          default:
            // Over-long arg list exercises the kMaxArgs clamp, and a
            // negative timestamp the sign handling.
            tr.complete("gc", "gc.run", {kDevicePid, 1}, sim::SimTime{-t.ns()},
                        1,
                        {{"a", 1}, {"b", 2}, {"c", 3}, {"d", 4}, {"e", 5}});
            break;
        }
    }
}

std::string
binaryOf(const TraceRecorder &tr)
{
    std::ostringstream os;
    writeTraceBinary(tr, os);
    return os.str();
}

std::string
readFixture(const std::string &name)
{
    std::ifstream in(std::string(SSDCHECK_FIXTURE_DIR) + "/" + name,
                     std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
}

/** Strings at stable addresses for the random feeds to point into. */
std::vector<const char *>
stablePool(std::deque<std::string> &storage, const char *prefix, size_t n)
{
    std::vector<const char *> out;
    for (size_t i = 0; i < n; ++i) {
        storage.push_back(prefix + std::to_string(i));
        out.push_back(storage.back().c_str());
    }
    return out;
}

/**
 * One seeded random feed: metadata names (one thread name longer than
 * a 64 KB output block), then events of every phase over random
 * tracks, extreme timestamps and values. Arg keys are drawn from
 * @p keys, which overlaps @p names, so one pointer can be both an arg
 * key and a category/name and must keep a single string id.
 */
void
recordRandom(TraceRecorder &tr, uint64_t seed, size_t events,
             const std::vector<const char *> &names,
             const std::vector<const char *> &keys)
{
    sim::Rng rng(seed);
    tr.setProcessName(kHostPid, "host \"q\"\n");
    tr.setThreadName({kDevicePid, 7},
                     std::string(70000 + rng.nextBelow(1000), 'n'));
    for (uint64_t i = rng.nextBelow(8); i > 0; --i)
        tr.setThreadName({static_cast<uint32_t>(rng.nextBelow(4)),
                          static_cast<uint32_t>(rng.nextBelow(0x10000))},
                         "t" + std::to_string(rng.next()));
    static constexpr char kPhases[] = {'X', 'i', 'C'};
    for (size_t i = 0; i < events; ++i) {
        const char *cat = names[rng.nextBelow(names.size())];
        const char *name = names[rng.nextBelow(names.size())];
        const TraceTrack track{
            static_cast<uint32_t>(rng.nextBelow(0x10000)),
            static_cast<uint32_t>(rng.nextBelow(0x10000))};
        const sim::SimTime ts{static_cast<int64_t>(rng.next())};
        const auto dur = static_cast<sim::SimDuration>(rng.next());
        TraceArg args[TraceRecorder::kMaxArgs + 1];
        const size_t n = rng.nextBelow(TraceRecorder::kMaxArgs + 2);
        for (size_t k = 0; k < n; ++k)
            args[k] = TraceArg{keys[rng.nextBelow(keys.size())],
                               static_cast<int64_t>(rng.next())};
        tr.append(kPhases[rng.nextBelow(3)], cat, name, track, ts, dur, args,
                  n);
    }
}

TEST(TraceBinary, WritersReproduceCommittedFixture)
{
    // tests/fixtures/trace_v1.ssdtrbin holds the bytes the format-v1
    // writer produced for this feed before the encoder was rewritten
    // for speed: a round trip cannot catch drift that the writer and
    // reader share, so this pins the writer to the bytes themselves.
    const std::string pinned = readFixture("trace_v1.ssdtrbin");
    ASSERT_FALSE(pinned.empty()) << "missing tests/fixtures/trace_v1.ssdtrbin";
    TraceRecorder tr;
    record(tr, 64);
    EXPECT_EQ(binaryOf(tr), pinned);
}

TEST(TraceBinary, RandomFeedsRoundTripByteForByte)
{
    // ~2000 distinct arg keys: any intern table the encoder keeps must
    // grow well past its initial size.
    std::deque<std::string> storage;
    const std::vector<const char *> names = stablePool(storage, "n", 40);
    std::vector<const char *> keys = stablePool(storage, "key.", 2000);
    keys.insert(keys.end(), names.begin(), names.end());

    for (uint64_t seed = 1; seed <= 6; ++seed) {
        const size_t events = 6000 + seed * 500;
        TraceRecorder tr;
        recordRandom(tr, seed, events, names, keys);
        const std::string bytes = binaryOf(tr);
        // Several 64 KB output blocks.
        ASSERT_GT(bytes.size(), 4 * 64 * 1024u) << "seed " << seed;

        TraceBinaryReader reader;
        std::istringstream in(bytes);
        ASSERT_TRUE(reader.read(in)) << "seed " << seed << ": "
                                     << reader.error();
        EXPECT_EQ(reader.recorder().events(), events) << "seed " << seed;
        EXPECT_TRUE(binaryOf(reader.recorder()) == bytes) << "seed " << seed;
    }
}

TEST(TraceBinary, ConverterEmitsByteIdenticalJson)
{
    TraceRecorder tr;
    record(tr, 257);

    std::istringstream in(binaryOf(tr));
    std::ostringstream out;
    std::string error;
    ASSERT_TRUE(convertTraceBinaryToJson(in, out, &error)) << error;
    EXPECT_EQ(out.str(), tr.toChromeJson());
}

TEST(TraceBinary, BinaryIsSmallerThanJson)
{
    TraceRecorder tr;
    record(tr, 1000);
    EXPECT_LT(binaryOf(tr).size(), tr.toChromeJson().size() / 2);
}

TEST(TraceBinary, EmptyRecorderRoundTrips)
{
    TraceRecorder tr;
    std::istringstream in(binaryOf(tr));
    std::ostringstream out;
    ASSERT_TRUE(convertTraceBinaryToJson(in, out, nullptr));
    EXPECT_EQ(out.str(), tr.toChromeJson());
}

TEST(TraceBinary, RejectsMalformedStreams)
{
    TraceRecorder tr;
    record(tr, 16);
    const std::string good = binaryOf(tr);

    const auto rejects = [](std::string bytes, const char *what) {
        std::istringstream in(bytes);
        std::ostringstream out;
        std::string error;
        EXPECT_FALSE(convertTraceBinaryToJson(in, out, &error)) << what;
        EXPECT_FALSE(error.empty()) << what;
    };

    std::string badMagic = good;
    badMagic[0] = 'X';
    rejects(badMagic, "bad magic");

    std::string badVersion = good;
    badVersion[8] = static_cast<char>(0xEE);
    rejects(badVersion, "bad version");

    rejects(good.substr(0, good.size() - 1), "truncated");
    rejects(good.substr(0, good.size() / 2), "half stream");
    rejects(good + "x", "trailing bytes");

    std::string noEnd = good.substr(0, good.size() - 1);
    rejects(noEnd, "missing End");
}

} // namespace
} // namespace ssdcheck::obs
