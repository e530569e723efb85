/**
 * @file
 * The simulated black-box SSD.
 *
 * Routes requests to internal allocation volumes by the configured
 * LBA bit indices, serializes them over the host interface, and adds
 * device-level noise (latency jitter lives in the volumes; random
 * unmodeled hiccups are injected here). Implements BlockDevice, which
 * is the only surface src/core is allowed to touch.
 *
 * For experiments that need ground truth (Fig. 3 cause breakdown,
 * accuracy-vs-truth tests) submitDetailed() also returns IoDetail
 * annotations — the equivalent of the paper's FPGA prototype's
 * measurement units. Production-path callers use plain submit().
 */
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "blockdev/block_device.h"
#include "sim/rng.h"
#include "ssd/fault_injector.h"
#include "ssd/ssd_config.h"
#include "ssd/volume.h"

namespace ssdcheck::recovery {
class StateWriter;
class StateReader;
} // namespace ssdcheck::recovery

namespace ssdcheck::ssd {

/** Simulated SSD exposing the black-box block interface. */
class SsdDevice final : public blockdev::BlockDevice
{
  public:
    /** @param cfg validated configuration (asserts on invalid). */
    explicit SsdDevice(SsdConfig cfg);

    // BlockDevice interface.
    blockdev::IoResult submit(const blockdev::IoRequest &req,
                              sim::SimTime now) override;
    uint64_t capacitySectors() const override;
    void purge(sim::SimTime now) override;
    std::string name() const override { return cfg_.name; }

    /**
     * submit() plus introspection and data-path stamps.
     * @param detail ground-truth annotations (optional).
     * @param writePayload stamp stored to each written page, offset by
     *        page position within the request (optional).
     * @param readPayload receives the stamp of the first page read
     *        (optional).
     */
    blockdev::IoResult submitDetailed(const blockdev::IoRequest &req,
                                      sim::SimTime now, IoDetail *detail,
                                      const uint64_t *writePayload = nullptr,
                                      uint64_t *readPayload = nullptr);

    /**
     * SNIA-style preconditioning: instantly write every logical page
     * once (no virtual time passes). Call after purge, before
     * steady-state measurements.
     */
    void precondition();

    /** Latest value of a 4KB page (buffer-aware), for integrity tests. */
    bool peekPage(uint64_t pageIndex, uint64_t *payload) const;

    const SsdConfig &config() const { return cfg_; }

    /** Per-volume counters (introspection). */
    const VolumeCounters &volumeCounters(uint32_t volume) const;

    /** Counters summed over all volumes. */
    VolumeCounters totalCounters() const;

    /** Direct FTL access for consistency checks in tests. */
    const Volume &volume(uint32_t i) const { return *volumes_[i]; }

    /** Injection ground truth (tests, fault reports). */
    const FaultCounters &faultCounters() const
    {
        return faults_.counters();
    }

    /** Requests served so far (drift clock, introspection). */
    uint64_t requestsServed() const { return requestsServed_; }

    /**
     * Attach observability targets (cold path, before the run): the
     * device emits dispatch/hiccup/stall/drift events on the interface
     * track, exports fault counters onto the registry under a
     * {device=<name>} label, and cascades to every volume.
     */
    void attachObservability(const obs::Sink &sink);

    /**
     * Serialize the complete dynamic device state: the drift-mutable
     * config fields (buffer capacity, read-trigger flag), device and
     * fault random streams, every volume, the interface gates, the
     * request counter and the optimal-mode functional store.
     */
    void saveState(recovery::StateWriter &w) const;

    /** Restore state saved by saveState() (same configuration). */
    bool loadState(recovery::StateReader &r);

  private:
    /** Apply the configured firmware-drift event to the live device. */
    void applyDrift();

    SsdConfig cfg_;
    LbaRouter router_; ///< Precomputed LBA routing (hot path). // snapshot:skip(derived from cfg_ in the constructor; pure function of the volume layout)
    sim::Rng rng_;
    FaultInjector faults_;
    /** The profile injects nothing: its per-request hooks are skipped. */
    bool faultsInert_; // snapshot:skip(derived from cfg_.faults in the constructor)
    std::vector<std::unique_ptr<Volume>> volumes_;
    sim::SimTime busGate_;
    sim::SimTime lastSubmit_;
    uint64_t requestsServed_ = 0;
    /** Functional store used only in optimalMode. */
    std::unordered_map<uint64_t, uint64_t> optimalStore_;

    // Observability (null until attachObservability()).
    obs::TraceRecorder *trace_ = nullptr; // snapshot:skip(non-owning observability hook, re-attached after restore)
    static constexpr obs::TraceTrack kBusTrack{obs::kDevicePid,
                                               obs::kDeviceInterfaceTid};
};

} // namespace ssdcheck::ssd

