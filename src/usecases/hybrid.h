/**
 * @file
 * Hybrid (SSD + NVM) write tiering (paper §IV-B "Hybrid PAS").
 *
 * Two policies over the same two-device stack:
 *
 *  - Baseline: every write goes to the NVM until it fills; a
 *    background thread drains it to the SSD. Once full, backpressure
 *    exposes every write to the irregular SSD (Fig. 15a cliff).
 *  - Hybrid PAS ("selective delivery"): SSDcheck predicts each write;
 *    HL-predicted writes go to the NVM, NL writes go to the NVM only
 *    with probability W (the buffer weight) and otherwise straight to
 *    the SSD — keeping NVM pressure low so it is always available to
 *    absorb the requests that would actually stall.
 *
 * Reads are served from the NVM when it holds the newest copy.
 * The tier presents itself as a BlockDevice so every runner works on
 * it unchanged; the background drain is folded into virtual time
 * before each foreground submission.
 */
#pragma once

#include <cstdint>
#include <string>

#include "blockdev/block_device.h"
#include "core/ssdcheck.h"
#include "nvm/nvm_device.h"
#include "sim/rng.h"
#include "ssd/ssd_device.h"

namespace ssdcheck::usecases {

/** Tiering policy. */
enum class HybridMode { Baseline, HybridPas };

/** Tier tunables. */
struct HybridConfig
{
    /** Buffer weight W: fraction of NL writes sent to the NVM. */
    double bufferWeight = 0.8;
    /** Background drain cadence. */
    sim::SimDuration drainPeriod = sim::milliseconds(1);
    /** Pages written back to the SSD per drain tick. */
    uint32_t drainBatchPages = 8;
    /**
     * Drain only while occupancy exceeds this fraction of capacity
     * (watermark hysteresis): a lightly pressured NVM keeps hot pages
     * resident, coalescing their rewrites instead of cycling them
     * through the SSD.
     */
    double drainThresholdFraction = 0.5;
    uint64_t seed = 17;
};

/** The SSD+NVM stack under one block-device interface. */
class HybridTier : public blockdev::BlockDevice
{
  public:
    /**
     * @param check required for HybridPas (used for predictions);
     *        may be null for Baseline.
     */
    HybridTier(ssd::SsdDevice &ssd, nvm::NvmDevice &nvm,
               core::SsdCheck *check, HybridMode mode,
               HybridConfig cfg = {});

    blockdev::IoResult submit(const blockdev::IoRequest &req,
                              sim::SimTime now) override;
    uint64_t capacitySectors() const override
    {
        return ssd_.capacitySectors();
    }
    void purge(sim::SimTime now) override;
    std::string name() const override;

    // -- metrics ---------------------------------------------------------
    /** Pages absorbed by the NVM (Fig. 15c pressure metric). */
    uint64_t nvmWritePages() const { return nvm_.totalWritesAbsorbed(); }

    /** Foreground writes that went straight to the SSD. */
    uint64_t ssdDirectWrites() const { return ssdDirectWrites_; }

    /** Foreground writes that hit a full NVM (backpressure events). */
    uint64_t backpressureWrites() const { return backpressureWrites_; }

    const nvm::NvmDevice &nvm() const { return nvm_; }

  private:
    /** Run background drain ticks scheduled before @p now. */
    void drainUpTo(sim::SimTime now);

    /** Submit a request to the SSD through recovery::replayRequest,
     *  which predicts it, feeds the model and scores the result. */
    blockdev::IoResult ssdSubmit(const blockdev::IoRequest &req,
                                 sim::SimTime now);

    ssd::SsdDevice &ssd_;
    nvm::NvmDevice &nvm_;
    core::SsdCheck *check_;
    HybridMode mode_;
    HybridConfig cfg_;
    sim::Rng rng_;
    sim::SimTime nextDrain_;
    uint64_t ssdDirectWrites_ = 0;
    uint64_t backpressureWrites_ = 0;
};

} // namespace ssdcheck::usecases

