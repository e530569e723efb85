/**
 * @file
 * Device presets: the seven commodity SSDs of Table I and the five
 * FPGA prototype variants of Fig. 3.
 *
 * Table I ground truth reproduced by the presets:
 *
 *   Vendor  SSD  Volumes (bits)  Buffer  Type  Flush
 *   W       A    1 (none)        248KB   back  full
 *   X       B    1 (none)        248KB   back  full
 *   Y       C    1 (none)        256KB   back  full
 *   Z       D    2 (17)          128KB   back  full
 *   Z       E    4 (17, 18)      128KB   back  full
 *   Z       F    1 (none)        128KB   fore  full & read-trigger
 *   Z       G    1 (none)        128KB   fore  full & read-trigger
 *
 * Each vendor also gets distinct interface timings, parallelism,
 * overprovisioning, jitter and unmodeled-noise levels, producing the
 * inter-SSD irregularity of Fig. 1. SSD D and E carry the SLC-cache
 * secondary feature that lowers HL prediction accuracy in Fig. 11.
 */
#pragma once

#include <string>
#include <vector>

#include "ssd/ssd_config.h"

namespace ssdcheck::ssd {

/** The seven commodity SSDs evaluated in the paper. */
enum class SsdModel { A, B, C, D, E, F, G };

/** All models, in paper order. */
std::vector<SsdModel> allModels();

/** "A".."G". */
std::string toString(SsdModel m);

/**
 * Build the configuration of one Table-I device.
 * @param seedSalt perturbs the device's random streams so repeated
 *        experiments can draw independent noise.
 */
SsdConfig makePreset(SsdModel m, uint64_t seedSalt = 0);

/** Fig. 3 prototype variants (§III-A). */
enum class PrototypeVariant
{
    Optimal,  ///< Immediate acknowledgement, no internal operations.
    Others,   ///< Everything except WB-flush and GC costs.
    WbOthers, ///< Others + write-buffer flush cost.
    GcOthers, ///< Others + garbage-collection cost.
    All,      ///< The complete device.
};

/** All prototype variants, in paper order. */
std::vector<PrototypeVariant> allPrototypeVariants();

/** Human-readable variant name, e.g. "SSD_WB+Others". */
std::string toString(PrototypeVariant v);

/** Build the configuration of one Fig. 3 prototype variant. */
SsdConfig makePrototype(PrototypeVariant v, uint64_t seedSalt = 0);

/**
 * Paper §VI: an NVM-based SSD (3D-XPoint/PRAM-class medium behind an
 * internal write buffer, still relying on GC for consistent
 * throughput). SSDcheck is medium-agnostic — the same diagnosis and
 * model apply; this preset exists to demonstrate that claim.
 */
SsdConfig makeNvmBackedSsd(uint64_t seedSalt = 0);

/**
 * Look up a device by its CLI name: "A".."G" (Table I) or "nvm".
 * @return true and fill @p out when the name is known.
 */
bool presetByName(const std::string &name, SsdConfig *out);

} // namespace ssdcheck::ssd

