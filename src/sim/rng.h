/**
 * @file
 * Deterministic random number generation for the simulator.
 *
 * A small, fast xoshiro256** generator plus the handful of
 * distributions the library needs (uniform, lognormal jitter,
 * Bernoulli, Zipf-ish skew). std::mt19937 is avoided so that streams
 * are cheap to fork per component and the numeric output is identical
 * across standard library implementations.
 */
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>

namespace ssdcheck::recovery {
class StateWriter;
class StateReader;
} // namespace ssdcheck::recovery

namespace ssdcheck::sim {

/**
 * Seeded pseudo-random number generator (xoshiro256**).
 *
 * Each simulated component owns its own Rng (forked from a parent via
 * fork()) so that adding randomness to one component does not perturb
 * another component's stream.
 */
class Rng
{
  public:
    /** Construct from a 64-bit seed (expanded with splitmix64). */
    explicit Rng(uint64_t seed = 0x5eed5eedULL);

    // The short draw helpers are inline: jitter/hiccup/fault draws sit
    // on the per-request hot path, and an out-of-line call per draw
    // costs more than the five-op generator itself.

    /** Next raw 64-bit value. */
    uint64_t next()
    {
        ++draws_;
        const uint64_t result = rotl(s_[1] * 5, 7) * 9;
        const uint64_t t = s_[1] << 17;
        s_[2] ^= s_[0];
        s_[3] ^= s_[1];
        s_[1] ^= s_[2];
        s_[0] ^= s_[3];
        s_[2] ^= t;
        s_[3] = rotl(s_[3], 45);
        return result;
    }

    /** The seed this stream was constructed (or restored) from. */
    uint64_t seed() const { return seed_; }

    /** Raw next() calls made since construction/restore from seed(). */
    uint64_t draws() const { return draws_; }

    /** Raw xoshiro256** state word @p i (i in [0,4)), for snapshots. */
    uint64_t stateWord(size_t i) const { return s_[i]; }

    /**
     * Restore a stream captured by (seed(), draws(), stateWord(0..3)).
     * O(1): trusts the supplied state words rather than replaying
     * draws. replayTo() is the O(draws) cross-check used by tests.
     */
    void restore(uint64_t seed, uint64_t draws, const uint64_t state[4]);

    /**
     * Reconstruct a stream purely from (seed, draws) by reseeding and
     * drawing @p draws raw values. Proves the (seed, draw-count) pair
     * is a complete description of a stream's position.
     */
    static Rng replayTo(uint64_t seed, uint64_t draws);

    /** Uniform integer in [0, bound). bound must be > 0. */
    uint64_t nextBelow(uint64_t bound)
    {
        assert(bound > 0);
        // Rejection sampling to remove modulo bias: a draw below the
        // threshold 2^64 mod bound is redrawn. The threshold is below
        // bound, so only a draw below bound needs it (and is its own
        // remainder): one division per draw either way.
        for (;;) {
            const uint64_t r = next();
            if (r >= bound)
                return r % bound;
            if (r >= (0 - bound) % bound)
                return r;
        }
    }

    /** Uniform integer in [lo, hi] inclusive. */
    int64_t uniformInt(int64_t lo, int64_t hi)
    {
        assert(lo <= hi);
        const uint64_t span = static_cast<uint64_t>(hi - lo) + 1;
        if (span == 0) // full 64-bit range
            return static_cast<int64_t>(next());
        return lo + static_cast<int64_t>(nextBelow(span));
    }

    /** Uniform double in [0, 1). */
    double uniform01()
    {
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

    /** Uniform double in [lo, hi). */
    double uniformReal(double lo, double hi)
    {
        return lo + (hi - lo) * uniform01();
    }

    /** True with probability p. */
    bool bernoulli(double p) { return uniform01() < p; }

    /** Standard normal via Box-Muller (no cached spare; stateless). */
    double gaussian();

    /**
     * Multiplicative lognormal jitter factor with median 1.0.
     * @param sigma log-space standard deviation (0 disables jitter).
     */
    double lognormalFactor(double sigma);

    /** Fork an independent child stream (hash of state + salt). */
    Rng fork(uint64_t salt);

    /** Serialize (seed, draws, raw state) for snapshots. */
    void saveState(recovery::StateWriter &w) const;

    /** Restore a stream saved by saveState(). @return reader still ok. */
    bool loadState(recovery::StateReader &r);

  private:
    static uint64_t rotl(uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    uint64_t s_[4];
    uint64_t seed_ = 0;
    uint64_t draws_ = 0;
};

} // namespace ssdcheck::sim

