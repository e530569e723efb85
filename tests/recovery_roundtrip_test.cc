/**
 * @file
 * Resume-equivalence property test for the checkpoint/restore
 * subsystem: a fault-heavy accuracy run checkpointed at every k-th
 * request and resumed in a fresh stack must finish with bit-identical
 * final snapshot bytes, identical metrics JSON, identical virtual end
 * time and identical accuracy counters — the determinism contract the
 * chaos soak harness (tools/soak) relies on.
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "recovery/invariants.h"
#include "recovery/shard.h"
#include "recovery/snapshot.h"
#include "recovery/state_io.h"

namespace ssdcheck::recovery {
namespace {

/** Fault-heavy, supervised run small enough for a unit test. */
RunParams
propParams()
{
    RunParams p;
    p.device = "A";
    p.faults = "hostile";
    p.workload = "RW Mixed";
    p.scale = 0.004;
    p.supervisor = true;
    return p;
}

/** FNV-1a of a byte buffer: pins a final state in one number. */
uint64_t
fingerprint(const std::vector<uint8_t> &bytes)
{
    return fnv1a(std::string(bytes.begin(), bytes.end()));
}

struct GoldenRun
{
    std::vector<std::pair<uint64_t, std::vector<uint8_t>>> snapshots;
    std::vector<uint8_t> finalBytes;
    std::string finalMetrics;
    sim::SimTime finalNow;
    core::AccuracyResult finalAcc;
    uint64_t traceSize = 0;
};

/** One uninterrupted run, checkpointing every @p stride requests. */
GoldenRun
runGolden(const RunParams &params, uint64_t stride)
{
    GoldenRun g;
    std::string err;
    auto run = createRun(params, false, &err);
    EXPECT_NE(run, nullptr) << err;
    if (!run)
        return g;
    g.traceSize = run->trace().size();
    while (!run->done()) {
        (void)run->step();
        if (!run->done() && run->cursor() % stride == 0)
            g.snapshots.emplace_back(run->cursor(),
                                     run->checkpoint().serialize());
    }
    EXPECT_TRUE(checkInvariants(*run).empty());
    g.finalBytes = run->checkpoint().serialize();
    g.finalMetrics = run->metricsJson();
    g.finalNow = run->now();
    g.finalAcc = run->checkPtr()->accuracy();
    return g;
}

TEST(RecoveryRoundtripTest, ResumeAtEveryStrideIsBitIdentical)
{
    const RunParams params = propParams();
    const uint64_t stride = 97; // prime: hits uneven resume points
    const GoldenRun golden = runGolden(params, stride);
    ASSERT_FALSE(golden.snapshots.empty());
    ASSERT_GT(golden.traceSize, 3 * stride)
        << "trace too small to exercise multiple resume points";
    // The uninterrupted run's final state is pinned: any change to the
    // replay loop, the stack or the snapshot layout moves these
    // (`ssdcheck run --device A --faults hostile --scale 0.004
    // --supervisor --final-state-out F --metrics-out M` writes them).
    EXPECT_EQ(fingerprint(golden.finalBytes), 0xa8e05994ae651a8cULL);
    EXPECT_EQ(fnv1a(golden.finalMetrics), 0xffb6a557986ab999ULL);

    for (const auto &[k, bytes] : golden.snapshots) {
        SCOPED_TRACE("resume at request " + std::to_string(k));
        Snapshot snap;
        std::string detail;
        ASSERT_EQ(snap.parse(bytes, &detail), LoadError::Ok) << detail;
        EXPECT_EQ(snap.requestIndex(), k);

        std::string err;
        auto resumed = createRun(params, true, &err);
        ASSERT_NE(resumed, nullptr) << err;
        ASSERT_EQ(resumed->restore(snap, &detail), LoadError::Ok) << detail;
        EXPECT_EQ(resumed->cursor(), k);

        const auto violations = checkInvariants(*resumed);
        EXPECT_TRUE(violations.empty())
            << "first violation: "
            << (violations.empty() ? "" : violations.front());

        while (!resumed->done())
            (void)resumed->step();

        EXPECT_EQ(resumed->checkpoint().serialize(), golden.finalBytes)
            << "final snapshot bytes differ from the uninterrupted run";
        EXPECT_EQ(resumed->metricsJson(), golden.finalMetrics);
        EXPECT_EQ(resumed->now(), golden.finalNow);
        const core::AccuracyResult &acc = resumed->checkPtr()->accuracy();
        EXPECT_EQ(acc.nlTotal, golden.finalAcc.nlTotal);
        EXPECT_EQ(acc.nlCorrect, golden.finalAcc.nlCorrect);
        EXPECT_EQ(acc.hlTotal, golden.finalAcc.hlTotal);
        EXPECT_EQ(acc.hlCorrect, golden.finalAcc.hlCorrect);
        EXPECT_EQ(acc.faulted, golden.finalAcc.faulted);
    }
}

TEST(RecoveryRoundtripTest, GuardedRunFinalStateIsPinned)
{
    // The same run behind the guarded policy layer (add
    // `--resilience guarded` to the command above).
    RunParams params = propParams();
    params.resilience = "guarded";
    const GoldenRun golden = runGolden(params, UINT64_MAX);
    EXPECT_EQ(fingerprint(golden.finalBytes), 0xd8916539dfdd4188ULL);
    EXPECT_EQ(fnv1a(golden.finalMetrics), 0x61330b4e5a58b55bULL);
}

TEST(RecoveryRoundtripTest, ChainedResumesStayBitIdentical)
{
    // Kill-and-resume repeatedly (what the soak does across processes,
    // here in-process): checkpoint, rebuild from bytes, continue.
    const RunParams params = propParams();
    std::string err;
    auto golden = createRun(params, false, &err);
    ASSERT_NE(golden, nullptr) << err;
    const uint64_t traceSize = golden->trace().size();
    while (!golden->done())
        (void)golden->step();
    const std::vector<uint8_t> goldenFinal =
        golden->checkpoint().serialize();

    auto run = createRun(params, false, &err);
    ASSERT_NE(run, nullptr) << err;
    const uint64_t hop = traceSize / 7 + 1;
    uint64_t target = hop;
    while (!run->done()) {
        (void)run->step();
        if (run->cursor() >= target && !run->done()) {
            const std::vector<uint8_t> bytes =
                run->checkpoint().serialize();
            Snapshot snap;
            ASSERT_EQ(snap.parse(bytes), LoadError::Ok);
            auto next = createRun(params, true, &err);
            ASSERT_NE(next, nullptr) << err;
            std::string detail;
            ASSERT_EQ(next->restore(snap, &detail), LoadError::Ok)
                << detail;
            run = std::move(next);
            target += hop;
        }
    }
    EXPECT_EQ(run->checkpoint().serialize(), goldenFinal);
}

TEST(RecoveryRoundtripTest, ConfigMismatchIsRefusedWithDetail)
{
    RunParams params = propParams();
    params.scale = 0.002; // keep this variant quick
    std::string err;
    auto run = createRun(params, false, &err);
    ASSERT_NE(run, nullptr) << err;
    for (int i = 0; i < 10; ++i)
        (void)run->step();
    const std::vector<uint8_t> bytes = run->checkpoint().serialize();
    Snapshot snap;
    ASSERT_EQ(snap.parse(bytes), LoadError::Ok);

    RunParams other = params;
    other.scale = 0.003;
    auto resumed = createRun(other, true, &err);
    ASSERT_NE(resumed, nullptr) << err;
    std::string detail;
    EXPECT_EQ(resumed->restore(snap, &detail), LoadError::ConfigMismatch);
    // The message names this run's canonical config so the operator
    // can see what to change (or pass --force).
    EXPECT_NE(detail.find("different run configuration"), std::string::npos);
    EXPECT_NE(detail.find(other.canonical()), std::string::npos);
}

TEST(RecoveryRoundtripTest, MissingSectionIsTypedError)
{
    RunParams params = propParams();
    params.scale = 0.002;
    params.supervisor = false;
    std::string err;
    auto run = createRun(params, false, &err);
    ASSERT_NE(run, nullptr) << err;
    for (int i = 0; i < 5; ++i)
        (void)run->step();
    const Snapshot full = run->checkpoint();

    // Rebuild the container without the registry section.
    Snapshot stripped;
    stripped.begin(full.configHash(), full.requestIndex(),
                   full.simTimeNs());
    for (const SectionId id :
         {SectionId::Device, SectionId::Model, SectionId::Resilient,
          SectionId::Accuracy, SectionId::RunParams}) {
        const std::vector<uint8_t> *payload = full.section(id);
        ASSERT_NE(payload, nullptr);
        stripped.addSection(id, *payload);
    }
    Snapshot reparsed;
    ASSERT_EQ(reparsed.parse(stripped.serialize()), LoadError::Ok);

    auto resumed = createRun(params, true, &err);
    ASSERT_NE(resumed, nullptr) << err;
    std::string detail;
    EXPECT_EQ(resumed->restore(reparsed, &detail),
              LoadError::MissingSection);
    EXPECT_NE(detail.find("registry"), std::string::npos);
}

TEST(RecoveryRoundtripTest, SupervisorSectionRejectedWithoutSupervisor)
{
    RunParams withSup = propParams();
    withSup.scale = 0.002;
    std::string err;
    auto run = createRun(withSup, false, &err);
    ASSERT_NE(run, nullptr) << err;
    for (int i = 0; i < 5; ++i)
        (void)run->step();
    Snapshot snap;
    ASSERT_EQ(snap.parse(run->checkpoint().serialize()), LoadError::Ok);

    RunParams noSup = withSup;
    noSup.supervisor = false;
    auto resumed = createRun(noSup, true, &err);
    ASSERT_NE(resumed, nullptr) << err;
    // forceConfig=true to get past the (correct) hash refusal and
    // prove the structural check still catches the mismatch.
    std::string detail;
    EXPECT_EQ(resumed->restore(snap, &detail, /*forceConfig=*/true),
              LoadError::Malformed);
    EXPECT_NE(detail.find("supervisor"), std::string::npos);
}

} // namespace
} // namespace ssdcheck::recovery
