/**
 * @file
 * Adversarial chaos campaigns for the resilience policy layer.
 *
 * A ChaosScenario (parsed from a small text file) composes a
 * correlated fault schedule — Markov burst/calm regimes, stall
 * storms, targeted-LBA UNC clusters, mid-run firmware drift — with a
 * workload, an arrival pacing mode, and a policy stack, then declares
 * the SLOs the stack must hold under that abuse: liveness, bounded
 * p99.9, no deadline-budget overrun, breaker recovery, shed ceilings.
 *
 * runChaosCampaign() replays the scenario once per seed (shards run
 * in parallel on perf::ThreadPool, bit-identical at any --jobs) and
 * folds each shard's per-request outcome stream into a digest; two
 * campaigns agree exactly when every request in every shard completed
 * with the same status at the same sim time. A ChaosShard is a
 * recovery::Shard, so it speaks the snapshot protocol: a campaign
 * shard can be checkpointed mid-run and resumed bit-exactly.
 */
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "recovery/shard.h"
#include "recovery/snapshot.h"
#include "resilience/policy.h"
#include "sim/sim_time.h"
#include "ssd/fault_injector.h"
#include "stats/latency_recorder.h"

namespace ssdcheck::obs {
class TelemetryHub;
} // namespace ssdcheck::obs

namespace ssdcheck::resilience {

using recovery::Pacing;

/** One parsed chaos scenario: faults + workload + policy + SLOs. */
struct ChaosScenario
{
    std::string name = "unnamed";
    std::string device = "A";       ///< Device preset ("A".."G"/"nvm").
    std::string workload = "RW Mixed";
    double scale = 0.02;            ///< Trace shrink factor.
    std::vector<uint64_t> seeds = {1, 2, 3, 4};
    Pacing pacing = Pacing::Open;
    sim::SimDuration arrivalPeriod = sim::microseconds(100);
    bool supervisor = false;        ///< Model + health supervisor on.

    ssd::FaultProfile faults;       ///< Assembled fault schedule.
    ResiliencePolicy policy;        ///< Assembled policy stack.

    // -- assertions (0 / max = not asserted) --------------------------
    sim::SimDuration assertP999 = 0;  ///< p99.9 of ok latencies <= this.
    uint64_t assertMinCompleted = 0;  ///< Liveness floor per shard.
    uint64_t assertMaxShed = UINT64_MAX; ///< Shed ceiling per shard.
    uint64_t assertBreakerOpens = 0;  ///< Breaker must open >= this.
    bool assertBreakerRecloses = false; ///< Breaker must re-close.

    /** Canonical text form (hashed into checkpoint identity). */
    std::string canonical() const;

    /**
     * Parse the scenario file format: one `key value...` pair per
     * line, `#` comments, unknown keys rejected. See the .chaos
     * files under examples/chaos/ for the vocabulary.
     * @return true on success; else fills @p err with line + reason.
     */
    static bool parse(const std::string &text, ChaosScenario *out,
                      std::string *err);
};

/**
 * One seed's replay of a scenario: a recovery::Shard (checkpointable,
 * deterministic) plus the outcome digest and ok-latency tally the
 * campaign asserts on.
 */
class ChaosShard
{
  public:
    /**
     * Build the shard stack for (scenario, seed).
     * @param forResume skip diagnosis/preconditioning; restore()
     *        supplies every bit of state they would have produced.
     * @param err receives a description on failure.
     */
    static std::unique_ptr<ChaosShard>
    create(const ChaosScenario &scenario, uint64_t seed, bool forResume,
           std::string *err);

    bool done() const { return shard_->done(); }
    void step();

    /** Running outcome digest (status/time/attempts per request). */
    uint64_t digest() const { return digest_; }
    uint64_t completedOk() const { return completedOk_; }
    const stats::LatencyRecorder &latencies() const { return lat_; }
    const recovery::Shard &shard() const { return *shard_; }

    /** Serialize the complete shard state at the request boundary:
     *  the Shard's sections plus the Chaos section. */
    recovery::Snapshot checkpoint() const;

    /** Restore a snapshot taken by checkpoint() (same scenario+seed,
     *  enforced via the config hash). */
    [[nodiscard]] recovery::LoadError
    restore(const recovery::Snapshot &snap, std::string *detail);

  private:
    ChaosShard() = default;

    std::unique_ptr<recovery::Shard> shard_;
    uint64_t digest_ = 0;
    uint64_t completedOk_ = 0;
    stats::LatencyRecorder lat_;
};

/** Outcome of one shard plus its assertion verdicts. */
struct ChaosShardResult
{
    uint64_t seed = 0;
    uint64_t digest = 0;
    uint64_t completedOk = 0;
    uint64_t shed = 0;
    uint64_t deadlineExpired = 0;
    uint64_t hedgesIssued = 0;
    uint64_t hedgeWins = 0;
    uint64_t breakerOpens = 0;
    uint64_t breakerCloses = 0;
    sim::SimDuration p999 = 0;
    sim::SimDuration maxExchange = 0;
    sim::SimTime finalTime;
    /** Assertion/invariant failures (empty = shard passed). */
    std::vector<std::string> failures;
};

/** Whole-campaign outcome. */
struct ChaosCampaignResult
{
    std::vector<ChaosShardResult> shards; ///< In seed order.
    uint64_t campaignDigest = 0;          ///< Fold of shard digests.
    bool pass = false;                    ///< Every shard clean.
    std::string error; ///< Non-empty when the campaign could not run.
};

/**
 * Run every seed of @p scenario, @p jobs shards in parallel.
 * Results are bit-identical for any jobs value: each shard is
 * deterministic in (scenario, seed) and the fold is in seed order.
 * @param telemetry optional live-telemetry hub (not owned): each
 *        completing shard publishes campaign progress, and the fold
 *        publishes a deterministic final snapshot. Attaching a hub
 *        never changes shard results.
 */
ChaosCampaignResult runChaosCampaign(const ChaosScenario &scenario,
                                     unsigned jobs,
                                     obs::TelemetryHub *telemetry =
                                         nullptr);

/** Fold a value into a running FNV-1a digest (exposed for tests). */
uint64_t chaosDigestFold(uint64_t digest, uint64_t value);

/** Initial digest value (FNV-1a offset basis). */
inline constexpr uint64_t kChaosDigestInit = 14695981039346656037ULL;

} // namespace ssdcheck::resilience
