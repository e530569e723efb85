/**
 * @file
 * Deterministic mutate-and-replay fuzzing of the trace text loader,
 * seeded from the committed fixture tests/fixtures/trace_v1.txt: byte
 * flips, truncation at every byte (so at every line boundary), digit
 * insertion into every numeric field, carriage returns before the
 * newlines, and duplicated lines. loadText
 * must never crash; a refusal names a line of the input; and every
 * accepted mutant T satisfies loadText(saveText(T)) == T, record for
 * record and arrival for arrival, with saveText a fixed point. Runs
 * under ASan/UBSan in the sanitizer CI job.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "sim/rng.h"
#include "workload/trace.h"

namespace ssdcheck::workload {
namespace {

const std::string &
fixtureBytes()
{
    static const std::string bytes = [] {
        std::ifstream f(SSDCHECK_FIXTURE_DIR "/trace_v1.txt",
                        std::ios::binary);
        return std::string(std::istreambuf_iterator<char>(f), {});
    }();
    return bytes;
}

/** The fixture split after each '\n' (the last piece may lack one). */
std::vector<std::string>
splitLines(const std::string &bytes)
{
    std::vector<std::string> lines;
    size_t at = 0;
    while (at < bytes.size()) {
        const size_t nl = bytes.find('\n', at);
        const size_t stop = nl == std::string::npos ? bytes.size() : nl + 1;
        lines.push_back(bytes.substr(at, stop - at));
        at = stop;
    }
    return lines;
}

std::string
join(const std::vector<std::string> &lines)
{
    std::string out;
    for (const auto &l : lines)
        out += l;
    return out;
}

std::string
saved(const Trace &t)
{
    std::ostringstream os;
    t.saveText(os);
    return os.str();
}

/** Outcome counts of one mutation family, so none passes vacuously. */
struct Tally
{
    int accepted = 0;
    int refused = 0;
};

/**
 * The fuzz oracle. A refusal must name a line of @p bytes (0 only for
 * an empty input); an accepted trace must survive saveText/loadText
 * unchanged, and saving it again must reproduce the same bytes.
 * @return the 1-based refused line, or 0 when @p bytes loaded.
 */
size_t
replay(const std::string &bytes, Tally *tally)
{
    std::istringstream is(bytes);
    size_t line = 0;
    const auto t = Trace::loadText(is, &line);
    if (!t) {
        ++tally->refused;
        const size_t lines = static_cast<size_t>(
            std::count(bytes.begin(), bytes.end(), '\n') + 1);
        EXPECT_LE(line, lines);
        EXPECT_EQ(line == 0, bytes.empty());
        return line;
    }
    ++tally->accepted;
    const std::string first = saved(*t);
    std::istringstream again(first);
    const auto back = Trace::loadText(again);
    EXPECT_TRUE(back.has_value()) << first;
    if (!back)
        return 0;
    EXPECT_EQ(back->name(), t->name());
    EXPECT_EQ(back->size(), t->size());
    for (size_t i = 0; i < std::min(t->size(), back->size()); ++i) {
        const blockdev::IoRequest a = (*t)[i].req;
        const blockdev::IoRequest b = (*back)[i].req;
        const bool same = a.lba == b.lba && a.sectors == b.sectors &&
                          a.type == b.type &&
                          t->arrival(i) == back->arrival(i);
        EXPECT_TRUE(same) << "record " << i;
        if (!same)
            break;
    }
    EXPECT_EQ(saved(*back), first);
    return 0;
}

TEST(TraceFuzzTest, FixtureLoadsAndSavesByteIdentical)
{
    // The fixture was written by saveText: the text format must still
    // read it, and write it back byte for byte.
    const std::string &bytes = fixtureBytes();
    ASSERT_FALSE(bytes.empty());
    std::istringstream is(bytes);
    const auto t = Trace::loadText(is);
    ASSERT_TRUE(t.has_value());
    ASSERT_EQ(t->size(), 49u);
    bool types[3] = {};
    bool atLimits = false;
    for (const auto &rec : t->records()) {
        types[static_cast<int>(rec.req.type)] = true;
        atLimits = atLimits || (rec.req.lba == kTraceMaxLba &&
                                rec.req.sectors == kTraceMaxSectors);
    }
    EXPECT_TRUE(types[0] && types[1] && types[2]);
    EXPECT_TRUE(atLimits);
    EXPECT_GT(t->arrival(t->size() - 1), 0);
    EXPECT_EQ(saved(*t), bytes);
}

TEST(TraceFuzzTest, ByteFlips)
{
    // Half the flips xor a random bit pattern; half write a byte the
    // grammar gives meaning to, which keeps more mutants loadable.
    static constexpr char kGrammar[] = "0123456789 \t\r\n#-+rwtx.";
    const std::string &base = fixtureBytes();
    ASSERT_FALSE(base.empty());
    sim::Rng rng(0x7f1e);
    Tally tally;
    for (int m = 0; m < 10000; ++m) {
        std::string bytes = base;
        const int flips = 1 + static_cast<int>(rng.nextBelow(4));
        for (int f = 0; f < flips; ++f) {
            char &c = bytes[rng.nextBelow(bytes.size())];
            if (rng.nextBelow(2) == 0)
                c = static_cast<char>(c ^ (1 + rng.nextBelow(255)));
            else
                c = kGrammar[rng.nextBelow(sizeof(kGrammar) - 1)];
        }
        replay(bytes, &tally);
    }
    EXPECT_GT(tally.accepted, 100);
    EXPECT_GT(tally.refused, 100);
}

TEST(TraceFuzzTest, TruncationAtEveryByte)
{
    // Every prefix, so every cut mid-field too. A cut at a line
    // boundary, just before or just after its '\n', drops whole
    // records only and must load.
    const std::string &base = fixtureBytes();
    Tally tally;
    int boundaries = 0;
    for (size_t n = 0; n <= base.size(); ++n) {
        const size_t refused = replay(base.substr(0, n), &tally);
        if (n > 0 && (base[n - 1] == '\n' || base[n] == '\n')) {
            ++boundaries;
            EXPECT_EQ(refused, 0u) << "cut at byte " << n;
        }
    }
    EXPECT_EQ(boundaries, 2 * static_cast<int>(splitLines(base).size()));
    EXPECT_GT(tally.refused, 100); // cuts before a record's last field
}

TEST(TraceFuzzTest, DigitInsertionPastTheLimitIsRefusedAtItsLine)
{
    // Insert each digit at the start, middle and end of every numeric
    // field. A field pushed past what it can hold (2^63-1 for the
    // arrival, kTraceMaxLba, kTraceMaxSectors) must be refused at its
    // own line: every line before it is the fixture's, and valid.
    const std::vector<std::string> lines = splitLines(fixtureBytes());
    ASSERT_GT(lines.size(), 1u);
    const uint64_t limits[4] = {INT64_MAX, 0, kTraceMaxLba,
                                kTraceMaxSectors};
    Tally tally;
    int pastLimit = 0;
    for (size_t li = 1; li < lines.size(); ++li) {
        const std::string &line = lines[li];
        // Field spans: arrival, type, lba, sectors.
        std::vector<std::pair<size_t, size_t>> fields;
        size_t at = 0;
        while (at < line.size() && line[at] != '\n') {
            const size_t end = line.find_first_of(" \n", at);
            ASSERT_NE(end, std::string::npos) << line;
            fields.emplace_back(at, end);
            at = end + (line[end] == ' ' ? 1 : 0);
        }
        ASSERT_EQ(fields.size(), 4u) << line;
        for (const size_t f : {0, 2, 3}) {
            const auto [lo, hi] = fields[f];
            for (const size_t pos : {lo, (lo + hi) / 2, hi}) {
                for (char d = '0'; d <= '9'; ++d) {
                    std::vector<std::string> mutant = lines;
                    mutant[li].insert(pos, 1, d);
                    const std::string field =
                        mutant[li].substr(lo, hi - lo + 1);
                    uint64_t value = 0;
                    const auto parsed = std::from_chars(
                        field.data(), field.data() + field.size(), value);
                    const bool past =
                        parsed.ec == std::errc::result_out_of_range ||
                        value > limits[f];
                    const size_t refused = replay(join(mutant), &tally);
                    if (past) {
                        ++pastLimit;
                        EXPECT_EQ(refused, li + 1) << mutant[li];
                    }
                }
            }
        }
    }
    EXPECT_GT(pastLimit, 100);
    EXPECT_GT(tally.accepted, 100);
}

TEST(TraceFuzzTest, CarriageReturnsBeforeEveryNewline)
{
    // One or two '\r' before each '\n', as a CRLF conversion (applied
    // once or twice) leaves them: the same trace must load.
    const std::string &base = fixtureBytes();
    for (const char *cr : {"\r", "\r\r"}) {
        std::string bytes;
        for (const char c : base)
            bytes += c == '\n' ? std::string(cr) + c : std::string(1, c);
        std::istringstream is(bytes);
        const auto t = Trace::loadText(is);
        ASSERT_TRUE(t.has_value()) << strlen(cr) << " per line";
        EXPECT_EQ(saved(*t), base);
    }
}

TEST(TraceFuzzTest, DuplicatedLines)
{
    // Each line doubled in place (the header's copy is a bad record),
    // then seeded copies of one line to another place, which may break
    // the arrival order.
    const std::vector<std::string> lines = splitLines(fixtureBytes());
    Tally tally;
    for (size_t li = 0; li < lines.size(); ++li) {
        std::vector<std::string> mutant = lines;
        mutant.insert(mutant.begin() + static_cast<std::ptrdiff_t>(li),
                      lines[li]);
        const size_t refused = replay(join(mutant), &tally);
        EXPECT_EQ(refused, li == 0 ? 2u : 0u) << li;
    }
    sim::Rng rng(0xd0b1e);
    for (int m = 0; m < 2000; ++m) {
        std::vector<std::string> mutant = lines;
        const size_t from = 1 + rng.nextBelow(lines.size() - 1);
        const size_t to = 1 + rng.nextBelow(lines.size());
        mutant.insert(mutant.begin() + static_cast<std::ptrdiff_t>(to),
                      lines[from]);
        replay(join(mutant), &tally);
    }
    EXPECT_GT(tally.accepted, 50);
    EXPECT_GT(tally.refused, 50);
}

} // namespace
} // namespace ssdcheck::workload
