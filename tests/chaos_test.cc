/**
 * @file Tests for resilience/chaos.h: scenario parsing, deterministic
 * campaign digests across --jobs and repeat runs, mid-shard
 * checkpoint/restore bit-identity, and the cross-layer invariant
 * checks the campaign runner asserts on every shard.
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/accuracy.h"
#include "recovery/invariants.h"
#include "recovery/state_io.h"
#include "resilience/chaos.h"

namespace ssdcheck::resilience {
namespace {

/** Small fast scenario: storms profile, guarded policy, two seeds. */
const char kSmallScenario[] = "# unit scenario\n"
                              "name unit\n"
                              "device A\n"
                              "workload RW Mixed\n"
                              "scale 0.002\n"
                              "seeds 1 2\n"
                              "pacing closed\n"
                              "faults storms\n"
                              "policy guarded\n"
                              "assert-min-completed 1\n";

ChaosScenario
smallScenario()
{
    ChaosScenario sc;
    std::string err;
    EXPECT_TRUE(ChaosScenario::parse(kSmallScenario, &sc, &err)) << err;
    return sc;
}

TEST(ChaosScenarioTest, ParseFillsFieldsAndDefaults)
{
    const std::string text = "name full\n"
                             "device B\n"
                             "workload RW Mixed\n"
                             "scale 0.01\n"
                             "seeds 7 8 9\n"
                             "pacing open\n"
                             "arrival-us 250\n"
                             "supervisor 1\n"
                             "faults storms\n"
                             "unc-probability 0.001\n"
                             "phase 100 200 1.0 0.5 10 20\n"
                             "unc-cluster 4096 64 0.8\n"
                             "policy strict\n"
                             "deadline-ms 200\n"
                             "hedge-reads 1\n"
                             "assert-p999-ms 400\n"
                             "assert-max-shed 5000\n"
                             "assert-breaker-opens 1\n"
                             "assert-breaker-recloses 1\n";
    ChaosScenario sc;
    std::string err;
    ASSERT_TRUE(ChaosScenario::parse(text, &sc, &err)) << err;
    EXPECT_EQ(sc.name, "full");
    EXPECT_EQ(sc.device, "B");
    EXPECT_EQ(sc.seeds, (std::vector<uint64_t>{7, 8, 9}));
    EXPECT_EQ(sc.pacing, Pacing::Open);
    EXPECT_EQ(sc.arrivalPeriod, sim::microseconds(250));
    EXPECT_TRUE(sc.supervisor);
    // Preset base + per-field overrides compose.
    EXPECT_DOUBLE_EQ(sc.faults.readUncProbability, 0.001);
    EXPECT_TRUE(sc.faults.regime.active()); // From the storms preset.
    ASSERT_EQ(sc.faults.phases.size(), 1u);
    EXPECT_EQ(sc.faults.phases[0].fromRequest, 100u);
    EXPECT_DOUBLE_EQ(sc.faults.phases[0].regime.uncFactor, 10.0);
    ASSERT_EQ(sc.faults.uncClusters.size(), 1u);
    EXPECT_EQ(sc.faults.uncClusters[0].firstPage, 4096u);
    EXPECT_EQ(sc.policy.name, "strict");
    EXPECT_EQ(sc.policy.deadlineBudget, sim::milliseconds(200));
    EXPECT_EQ(sc.assertP999, sim::milliseconds(400));
    EXPECT_EQ(sc.assertMaxShed, 5000u);
    EXPECT_EQ(sc.assertBreakerOpens, 1u);
    EXPECT_TRUE(sc.assertBreakerRecloses);
}

TEST(ChaosScenarioTest, DefaultsWhenOnlySeedsGiven)
{
    ChaosScenario sc;
    std::string err;
    ASSERT_TRUE(ChaosScenario::parse("seeds 1\n", &sc, &err)) << err;
    EXPECT_EQ(sc.device, "A");
    EXPECT_EQ(sc.workload, "RW Mixed");
    EXPECT_EQ(sc.pacing, Pacing::Open);
    EXPECT_FALSE(sc.supervisor);
    EXPECT_TRUE(sc.faults.inert());
    // The policy base preset is "guarded", not "off": a chaos run
    // without an explicit policy still exercises the resilience stack.
    EXPECT_EQ(sc.policy.name, "guarded");
    EXPECT_TRUE(sc.policy.enabled);
    EXPECT_EQ(sc.assertMaxShed, UINT64_MAX);
}

TEST(ChaosScenarioTest, ParseRejectsMalformedInput)
{
    ChaosScenario sc;
    std::string err;
    EXPECT_FALSE(ChaosScenario::parse("seeds 1\nbogus-key 3\n", &sc, &err));
    EXPECT_NE(err.find("line 2"), std::string::npos);
    EXPECT_NE(err.find("bogus-key"), std::string::npos);

    EXPECT_FALSE(ChaosScenario::parse("seeds 1 banana\n", &sc, &err));
    EXPECT_NE(err.find("seeds"), std::string::npos);

    EXPECT_FALSE(ChaosScenario::parse("scale 0.01\n", &sc, &err));
    EXPECT_NE(err.find("no seeds"), std::string::npos);

    EXPECT_FALSE(ChaosScenario::parse("seeds 1\npacing sideways\n", &sc,
                                      &err));

    // Field overrides that break profile/policy validation are caught
    // at the end of the parse, not at shard-construction time.
    EXPECT_FALSE(ChaosScenario::parse("seeds 1\nunc-probability 3.0\n",
                                      &sc, &err));
    EXPECT_NE(err.find("fault schedule"), std::string::npos);
    EXPECT_FALSE(ChaosScenario::parse("seeds 1\nslo-error-budget 0\n",
                                      &sc, &err));
    EXPECT_NE(err.find("policy"), std::string::npos);

    // 32-bit keys refuse values that would wrap (2^32 + 64, 2^32 + 3).
    EXPECT_FALSE(ChaosScenario::parse(
        "seeds 1\nbreaker-window 4294967360\n", &sc, &err));
    EXPECT_NE(err.find("bad value for 'breaker-window'"), std::string::npos)
        << err;
    EXPECT_FALSE(ChaosScenario::parse(
        "seeds 1\nread-retry-max 4294967299\n", &sc, &err));
    EXPECT_NE(err.find("bad value for 'read-retry-max'"), std::string::npos)
        << err;

    // Each number is one whole token of its type: no sign on an
    // unsigned, no NaN or infinity, no duration whose nanosecond count
    // overflows, no scale outside (0, 1].
    for (const auto &[text, key] :
         std::vector<std::pair<std::string, std::string>>{
             {"seeds -1\n", "seeds"},
             {"seeds 1\nunc-probability nan\n", "unc-probability"},
             {"seeds 1\nhedge-budget nan\n", "hedge-budget"},
             {"seeds 1\nstall-max-ms 18446744073709\n", "stall-max-ms"},
             {"seeds 1\nhedge-delay-us 9223372036854776\n",
              "hedge-delay-us"},
             {"seeds 1\nscale nan\n", "scale"},
             {"seeds 1\nscale inf\n", "scale"},
             {"seeds 1\nscale 2\n", "scale"}}) {
        EXPECT_FALSE(ChaosScenario::parse(text, &sc, &err)) << text;
        EXPECT_NE(err.find("bad value for '" + key + "'"), std::string::npos)
            << text << ": " << err;
    }
}

TEST(ChaosScenarioTest, CanonicalReflectsCorrelatedFaultSchedule)
{
    ChaosScenario a = smallScenario();
    ChaosScenario b = a;
    EXPECT_EQ(a.canonical(), b.canonical());
    ssd::FaultPhase ph;
    ph.fromRequest = 1;
    ph.toRequest = 2;
    ph.regime.enterBurst = 1.0;
    ph.regime.exitBurst = 1.0;
    b.faults.phases.push_back(ph);
    EXPECT_NE(a.canonical(), b.canonical());
    ChaosScenario c = a;
    c.policy.deadlineBudget += 1;
    EXPECT_NE(a.canonical(), c.canonical());
}

TEST(ChaosCampaignTest, DigestIdenticalAcrossJobsAndRepeats)
{
    const ChaosScenario sc = smallScenario();
    const ChaosCampaignResult serial = runChaosCampaign(sc, 1);
    const ChaosCampaignResult parallel4 = runChaosCampaign(sc, 4);
    const ChaosCampaignResult repeat = runChaosCampaign(sc, 4);
    ASSERT_EQ(serial.shards.size(), 2u);
    ASSERT_EQ(parallel4.shards.size(), 2u);
    for (size_t i = 0; i < serial.shards.size(); ++i) {
        EXPECT_EQ(serial.shards[i].digest, parallel4.shards[i].digest)
            << "seed " << serial.shards[i].seed;
        EXPECT_EQ(serial.shards[i].completedOk,
                  parallel4.shards[i].completedOk);
        EXPECT_GT(serial.shards[i].completedOk, 0u);
        EXPECT_TRUE(serial.shards[i].failures.empty())
            << serial.shards[i].failures[0];
    }
    EXPECT_EQ(serial.campaignDigest, parallel4.campaignDigest);
    EXPECT_EQ(serial.campaignDigest, repeat.campaignDigest);
    EXPECT_TRUE(serial.pass);
    // Different seeds must not collapse to one digest.
    EXPECT_NE(serial.shards[0].digest, serial.shards[1].digest);
}

TEST(ChaosCampaignTest, ExampleScenarioDigestsArePinned)
{
    // The committed example campaigns at --jobs 4: any change to the
    // replay loop, the stack or the fault schedule moves a digest.
    const std::pair<const char *, uint64_t> pins[] = {
        {"stall-storm", 0x3662fdd727225171ULL},
        {"burst-unc", 0x35215d1edb9dd24eULL},
        {"drift-overload", 0xf42cbb9ed713cb01ULL},
    };
    for (const auto &[name, digest] : pins) {
        SCOPED_TRACE(name);
        const std::string path =
            std::string(SSDCHECK_CHAOS_DIR) + "/" + name + ".chaos";
        std::ifstream is(path);
        ASSERT_TRUE(is) << path;
        std::stringstream text;
        text << is.rdbuf();
        ChaosScenario sc;
        std::string err;
        ASSERT_TRUE(ChaosScenario::parse(text.str(), &sc, &err)) << err;
        const ChaosCampaignResult res = runChaosCampaign(sc, 4);
        EXPECT_TRUE(res.pass);
        EXPECT_EQ(res.campaignDigest, digest);
    }
}

TEST(ChaosCampaignTest, ViolatedAssertionFailsTheCampaign)
{
    ChaosScenario sc = smallScenario();
    sc.seeds = {1};
    sc.assertMinCompleted = UINT64_MAX; // Impossible liveness floor.
    const ChaosCampaignResult res = runChaosCampaign(sc, 2);
    EXPECT_FALSE(res.pass);
    ASSERT_EQ(res.shards.size(), 1u);
    ASSERT_FALSE(res.shards[0].failures.empty());
    EXPECT_NE(res.shards[0].failures[0].find("liveness"),
              std::string::npos);
}

TEST(ChaosCampaignTest, EmptySeedListIsAnError)
{
    ChaosScenario sc = smallScenario();
    sc.seeds.clear();
    const ChaosCampaignResult res = runChaosCampaign(sc, 1);
    EXPECT_FALSE(res.pass);
    EXPECT_FALSE(res.error.empty());
}

TEST(ChaosShardTest, InvariantsHoldAfterFullRun)
{
    const ChaosScenario sc = smallScenario();
    std::string err;
    const std::unique_ptr<ChaosShard> shard =
        ChaosShard::create(sc, 1, false, &err);
    ASSERT_NE(shard, nullptr) << err;
    while (!shard->done())
        shard->step();
    const std::vector<std::string> violations =
        recovery::checkInvariants(shard->shard());
    EXPECT_TRUE(violations.empty())
        << (violations.empty() ? "" : violations[0]);
    EXPECT_GT(shard->completedOk(), 0u);
}

TEST(ChaosShardTest, UnknownDeviceAndWorkloadAreConstructionErrors)
{
    ChaosScenario sc = smallScenario();
    sc.device = "Z";
    std::string err;
    EXPECT_EQ(ChaosShard::create(sc, 1, false, &err), nullptr);
    EXPECT_NE(err.find("device"), std::string::npos);
    sc = smallScenario();
    sc.workload = "No Such Workload";
    EXPECT_EQ(ChaosShard::create(sc, 1, false, &err), nullptr);
    EXPECT_NE(err.find("workload"), std::string::npos);
}

TEST(ChaosShardTest, CheckpointRestoreMidShardIsBitIdentical)
{
    const ChaosScenario sc = smallScenario();
    std::string err;
    const std::unique_ptr<ChaosShard> golden =
        ChaosShard::create(sc, 2, false, &err);
    ASSERT_NE(golden, nullptr) << err;
    const std::unique_ptr<ChaosShard> first =
        ChaosShard::create(sc, 2, false, &err);
    ASSERT_NE(first, nullptr) << err;

    // Run the first half, snapshot, and resume in a fresh shard that
    // skipped all one-time construction work.
    const uint64_t half = golden->shard().trace().size() / 2;
    while (first->shard().cursor() < half)
        first->step();
    const recovery::Snapshot snap = first->checkpoint();

    const std::unique_ptr<ChaosShard> resumed =
        ChaosShard::create(sc, 2, true, &err);
    ASSERT_NE(resumed, nullptr) << err;
    std::string detail;
    ASSERT_EQ(resumed->restore(snap, &detail), recovery::LoadError::Ok)
        << detail;
    EXPECT_EQ(resumed->shard().cursor(), half);
    EXPECT_EQ(resumed->shard().now(), first->shard().now());

    while (!golden->done())
        golden->step();
    while (!resumed->done())
        resumed->step();

    EXPECT_EQ(resumed->digest(), golden->digest());
    EXPECT_EQ(resumed->completedOk(), golden->completedOk());
    EXPECT_EQ(resumed->shard().now(), golden->shard().now());
    // The restored policy stack carries breaker/hedge/admission state
    // bit-exactly: its counters must finish identical to the golden's.
    const PolicyCounters &gc = golden->shard().policyPtr()->counters();
    const PolicyCounters &rc = resumed->shard().policyPtr()->counters();
    EXPECT_EQ(rc.submissions, gc.submissions);
    EXPECT_EQ(rc.forwarded, gc.forwarded);
    EXPECT_EQ(rc.shedOverload, gc.shedOverload);
    EXPECT_EQ(rc.hedgesIssued, gc.hedgesIssued);
    EXPECT_EQ(rc.hedgeWins, gc.hedgeWins);
    EXPECT_EQ(rc.breakerOpens, gc.breakerOpens);
    EXPECT_EQ(rc.breakerCloses, gc.breakerCloses);
    EXPECT_EQ(rc.deadlineExpired, gc.deadlineExpired);
    const std::vector<std::string> violations =
        recovery::checkInvariants(resumed->shard());
    EXPECT_TRUE(violations.empty())
        << (violations.empty() ? "" : violations[0]);
}

TEST(ChaosShardTest, ModelLessShardCheckpointsNoAccuracy)
{
    // Without a supervisor the shard has no model: nothing scores its
    // completions, so its checkpoint carries no Accuracy section.
    const ChaosScenario sc = smallScenario();
    std::string err;
    const std::unique_ptr<ChaosShard> golden =
        ChaosShard::create(sc, 1, false, &err);
    ASSERT_NE(golden, nullptr) << err;
    const std::unique_ptr<ChaosShard> first =
        ChaosShard::create(sc, 1, false, &err);
    ASSERT_NE(first, nullptr) << err;
    ASSERT_EQ(first->shard().checkPtr(), nullptr);
    const uint64_t half = first->shard().trace().size() / 2;
    while (first->shard().cursor() < half)
        first->step();
    const recovery::Snapshot snap = first->checkpoint();
    EXPECT_EQ(snap.section(recovery::SectionId::Accuracy), nullptr);

    // Counts this shard has no model to hold are refused.
    recovery::Snapshot withCounts = snap;
    recovery::StateWriter w;
    core::AccuracyResult{}.saveState(w);
    withCounts.addSection(recovery::SectionId::Accuracy, w.take());
    const std::unique_ptr<ChaosShard> refused =
        ChaosShard::create(sc, 1, true, &err);
    ASSERT_NE(refused, nullptr) << err;
    std::string detail;
    EXPECT_EQ(refused->restore(withCounts, &detail),
              recovery::LoadError::Malformed);
    EXPECT_NE(detail.find("accuracy"), std::string::npos) << detail;

    const std::unique_ptr<ChaosShard> resumed =
        ChaosShard::create(sc, 1, true, &err);
    ASSERT_NE(resumed, nullptr) << err;
    ASSERT_EQ(resumed->restore(snap, &detail), recovery::LoadError::Ok)
        << detail;
    while (!golden->done())
        golden->step();
    while (!resumed->done())
        resumed->step();
    EXPECT_EQ(resumed->digest(), golden->digest());
    EXPECT_EQ(resumed->checkpoint().serialize(),
              golden->checkpoint().serialize());
}

TEST(ChaosShardTest, RestoreRejectsSnapshotFromAnotherSeed)
{
    const ChaosScenario sc = smallScenario();
    std::string err;
    const std::unique_ptr<ChaosShard> a =
        ChaosShard::create(sc, 1, false, &err);
    ASSERT_NE(a, nullptr) << err;
    const recovery::Snapshot snap = a->checkpoint();
    const std::unique_ptr<ChaosShard> b =
        ChaosShard::create(sc, 2, true, &err);
    ASSERT_NE(b, nullptr) << err;
    std::string detail;
    EXPECT_EQ(b->restore(snap, &detail),
              recovery::LoadError::ConfigMismatch);
    EXPECT_NE(detail.find("seed"), std::string::npos);
}

} // namespace
} // namespace ssdcheck::resilience
