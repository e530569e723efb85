#include "workload/trace.h"

#include <algorithm>
#include <cassert>
#include <charconv>
#include <cmath>
#include <cstring>
#include <istream>
#include <iterator>
#include <ostream>
#include <string_view>

namespace ssdcheck::workload {

Trace::Word
Trace::pack(const blockdev::IoRequest &req)
{
    assert(req.lba <= kTraceMaxLba && req.sectors <= kTraceMaxSectors &&
           req.type <= blockdev::IoType::Trim);
    return req.lba << kLbaShift | uint64_t{req.sectors} << kSectorsShift |
           static_cast<uint64_t>(req.type);
}

void
Trace::add(const blockdev::IoRequest &req, sim::SimDuration arrival)
{
    assert(arrival >= lastArrival());
    if (arrival != 0 || !arrivals_.empty()) {
        // The first nonzero arrival backfills the zeros before it.
        arrivals_.resize(words_.size());
        arrivals_.push_back(arrival);
    }
    words_.push_back(pack(req));
}

void
Trace::add(const blockdev::IoRequest &req)
{
    add(req, lastArrival());
}

TraceStats
Trace::characterize() const
{
    TraceStats s;
    s.requests = words_.size();
    if (words_.empty())
        return s;
    uint64_t writes = 0;
    uint64_t randoms = 0;
    uint64_t prevEnd = ~0ULL;
    for (const TraceRecord r : records()) {
        if (r.req.isWrite())
            ++writes;
        s.totalBytes += r.req.bytes();
        // "Random" = not adjacent to the previous request's end
        // (paper: ratio between sequential/adjacent and random).
        if (r.req.lba != prevEnd)
            ++randoms;
        prevEnd = r.req.lba + r.req.sectors;
    }
    s.writeFraction =
        static_cast<double>(writes) / static_cast<double>(s.requests);
    s.randomFraction =
        static_cast<double>(randoms) / static_cast<double>(s.requests);
    return s;
}

void
Trace::assignPoissonArrivals(double iops, sim::Rng &rng)
{
    assert(iops > 0.0);
    arrivals_.resize(words_.size());
    sim::SimDuration t = 0;
    for (auto &a : arrivals_) {
        a = t;
        // Exponential inter-arrival with mean 1/iops seconds.
        double u = rng.uniform01();
        if (u <= 0.0)
            u = 1e-12;
        const double gapSec = -std::log(u) / iops;
        t += static_cast<sim::SimDuration>(gapSec * 1e9);
    }
}

void
Trace::truncate(size_t n)
{
    if (words_.size() > n)
        words_.resize(n);
    if (arrivals_.size() > n)
        arrivals_.resize(n);
}

namespace {

char
typeChar(blockdev::IoType t)
{
    switch (t) {
      case blockdev::IoType::Read:
        return 'r';
      case blockdev::IoType::Write:
        return 'w';
      case blockdev::IoType::Trim:
        return 't';
    }
    return '?';
}

} // namespace

void
Trace::saveText(std::ostream &os) const
{
    os << "# " << name_ << "\n";
    for (size_t i = 0; i < words_.size(); ++i) {
        const blockdev::IoRequest req = unpack(words_[i]).req;
        os << arrival(i) << ' ' << typeChar(req.type) << ' ' << req.lba
           << ' ' << req.sectors << "\n";
    }
}

namespace {

/** Advance past spaces/tabs; parse one integer field with from_chars. */
template <typename T>
bool
parseField(const char *&p, const char *end, T *out)
{
    while (p < end && (*p == ' ' || *p == '\t'))
        ++p;
    const auto [next, ec] = std::from_chars(p, end, *out);
    if (ec != std::errc{} || next == p)
        return false;
    p = next;
    return true;
}

} // namespace

std::optional<Trace>
Trace::loadText(std::istream &is, size_t *errorLine)
{
    size_t lineNo = 0;
    auto fail = [&]() -> std::optional<Trace> {
        if (errorLine != nullptr)
            *errorLine = lineNo;
        return std::nullopt;
    };

    // Slurp the stream once and parse in place: std::from_chars over a
    // flat buffer is an order of magnitude cheaper than one
    // istringstream per line, and knowing the full size lets us
    // reserve the record vector up front.
    std::string buf(std::istreambuf_iterator<char>(is), {});
    const char *p = buf.data();
    const char *const end = p + buf.size();

    auto nextLine = [&](std::string_view *line) {
        if (p >= end)
            return false;
        const char *nl = static_cast<const char *>(
            memchr(p, '\n', static_cast<size_t>(end - p)));
        const char *stop = nl != nullptr ? nl : end;
        *line = std::string_view(p, static_cast<size_t>(stop - p));
        // Every trailing '\r', so a header that ends in one still
        // names the trace as saveText writes it back.
        while (!line->empty() && line->back() == '\r')
            line->remove_suffix(1);
        p = nl != nullptr ? nl + 1 : end;
        ++lineNo;
        return true;
    };

    std::string_view line;
    if (!nextLine(&line))
        return fail(); // empty stream: lineNo stays 0
    if (line.size() < 2 || line[0] != '#')
        return fail();
    Trace t(std::string(line.substr(2)));
    // saveText emits ~20 bytes per record; a generous estimate avoids
    // regrowth without overshooting much.
    t.words_.reserve(static_cast<size_t>(end - p) / 12 + 1);
    while (nextLine(&line)) {
        if (line.empty())
            continue;
        const char *lp = line.data();
        const char *const lend = lp + line.size();
        sim::SimDuration arrival = 0;
        blockdev::IoRequest req;
        if (!parseField(lp, lend, &arrival) || arrival < 0)
            return fail();
        while (lp < lend && (*lp == ' ' || *lp == '\t'))
            ++lp;
        if (lp >= lend)
            return fail();
        switch (*lp++) {
          case 'r':
            req.type = blockdev::IoType::Read;
            break;
          case 'w':
            req.type = blockdev::IoType::Write;
            break;
          case 't':
            req.type = blockdev::IoType::Trim;
            break;
          default:
            return fail();
        }
        if (lp < lend && *lp != ' ' && *lp != '\t')
            return fail(); // type must be a single letter
        if (!parseField(lp, lend, &req.lba) ||
            !parseField(lp, lend, &req.sectors))
            return fail();
        if (req.lba > kTraceMaxLba || req.sectors > kTraceMaxSectors)
            return fail(); // past what a stored record can hold
        while (lp < lend && (*lp == ' ' || *lp == '\t'))
            ++lp;
        if (lp < lend)
            return fail(); // trailing junk after the sectors field
        if (arrival < t.lastArrival())
            return fail(); // arrivals must be monotone
        t.add(req, arrival);
    }
    t.words_.shrink_to_fit();
    t.arrivals_.shrink_to_fit();
    return t;
}

} // namespace ssdcheck::workload
