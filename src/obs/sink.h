/**
 * @file
 * The observability attachment point: the three optional pillar
 * pointers (span trace, metrics registry, misprediction audit) that
 * components accept via attachObservability(). Every pointer
 * may be null — a component hooked with a partial sink only feeds the
 * pillars present, and with no sink at all every hook is one null
 * check (the near-zero-when-disabled contract).
 *
 * Lifetime: the sink's targets must outlive every component they are
 * attached to; the CLI and tests create them on the stack around the
 * run.
 */
#pragma once

#include "obs/audit_log.h"
#include "obs/registry.h"
#include "obs/trace_recorder.h"

namespace ssdcheck::obs {

/** Optional observability targets handed to components. */
struct Sink
{
    TraceRecorder *trace = nullptr;
    Registry *metrics = nullptr;
    AuditLog *audit = nullptr;
};

} // namespace ssdcheck::obs
