/**
 * @file
 * Cross-layer invariant registry of a Shard (recovery/shard.h).
 *
 * After every kill-and-resume cycle, at the end of a run and after
 * every chaos shard, the soak tool, `ssdcheck run --check-invariants`
 * and the chaos campaign assert that the simulation is not just
 * CRC-intact but *semantically* coherent across layers: FTL maps
 * agree with NAND, victim selection matches a from-scratch scan,
 * buffers respect capacity, and every layer's counters add up to the
 * same story about how many requests happened. A serialization bug
 * that loses or double-counts state shows up here long before it
 * would surface as an accuracy anomaly.
 */
#pragma once

#include <string>
#include <vector>

#include "recovery/shard.h"

namespace ssdcheck::recovery {

/**
 * Check every cross-layer invariant of @p shard at a request barrier.
 * @return one description per violated invariant (empty = coherent).
 */
std::vector<std::string> checkInvariants(const Shard &shard);

} // namespace ssdcheck::recovery
