/**
 * @file
 * The simulated device does no heap allocation per request once warm
 * (DESIGN.md "No per-request heap allocation"). Every preset is
 * preconditioned and replays TPCE at scale 0.3 straight through
 * SsdDevice::submit; the second half of the replay must not allocate.
 *
 * This file replaces the global operator new/delete to count
 * allocations, so it is built as its own test binary.
 */
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include <gtest/gtest.h>

#include "ssd/presets.h"
#include "ssd/ssd_device.h"
#include "workload/snia_synth.h"

namespace {

// Allocations are counted only while armed, so gtest's own
// bookkeeping outside the measured window does not count.
std::atomic<bool> gArmed{false};
std::atomic<uint64_t> gAllocations{0};

void *
countedAlloc(std::size_t n, std::size_t align = 0)
{
    if (gArmed.load(std::memory_order_relaxed))
        gAllocations.fetch_add(1, std::memory_order_relaxed);
    if (n == 0)
        n = 1;
    void *p = align == 0
                  ? std::malloc(n)
                  : std::aligned_alloc(align, (n + align - 1) / align * align);
    return p;
}

void *
countedAllocOrThrow(std::size_t n, std::size_t align = 0)
{
    if (void *p = countedAlloc(n, align))
        return p;
    throw std::bad_alloc();
}

} // namespace

void *operator new(std::size_t n) { return countedAllocOrThrow(n); }
void *operator new[](std::size_t n) { return countedAllocOrThrow(n); }
void *
operator new(std::size_t n, std::align_val_t a)
{
    return countedAllocOrThrow(n, static_cast<std::size_t>(a));
}
void *
operator new[](std::size_t n, std::align_val_t a)
{
    return countedAllocOrThrow(n, static_cast<std::size_t>(a));
}
void *
operator new(std::size_t n, const std::nothrow_t &) noexcept
{
    return countedAlloc(n);
}
void *
operator new[](std::size_t n, const std::nothrow_t &) noexcept
{
    return countedAlloc(n);
}
void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }
void operator delete(void *p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void *p, std::align_val_t) noexcept { std::free(p); }
void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
void
operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

namespace ssdcheck::ssd {
namespace {

class SteadyStateAllocTest : public ::testing::TestWithParam<SsdModel>
{
};

TEST_P(SteadyStateAllocTest, TpceSecondHalfDoesNotAllocate)
{
    SsdDevice dev(makePreset(GetParam()));
    dev.precondition();
    const workload::Trace trace = workload::buildSniaTrace(
        workload::SniaWorkload::TPCE, dev.capacityPages(), 0.3);
    const size_t half = trace.size() / 2;

    // QD1 closed loop: each request is issued at the previous one's
    // completion.
    sim::SimTime now = sim::kTimeZero;
    const auto replay = [&](size_t from, size_t to) {
        for (size_t i = from; i < to; ++i)
            now = dev.submit(trace[i].req, now).completeTime;
    };
    replay(0, half);
    const VolumeCounters before = dev.totalCounters();

    gAllocations.store(0);
    gArmed.store(true);
    replay(half, trace.size());
    gArmed.store(false);

    const VolumeCounters after = dev.totalCounters();
    EXPECT_EQ(gAllocations.load(), 0u)
        << "heap allocations over " << trace.size() - half
        << " steady-state requests";
    // The measured half must exercise the whole write path.
    EXPECT_GT(after.flushes, before.flushes);
    EXPECT_GT(after.gcInvocations, before.gcInvocations);
}

INSTANTIATE_TEST_SUITE_P(AllPresets, SteadyStateAllocTest,
                         ::testing::ValuesIn(allModels()),
                         [](const auto &info) {
                             return "SSD_" + toString(info.param);
                         });

} // namespace
} // namespace ssdcheck::ssd
