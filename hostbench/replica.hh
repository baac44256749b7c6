/**
 * @file
 * Outside-in replay of BatchEngine::runInstance.
 *
 * The traced run re-executes every instance through the same public
 * calls the engine makes — NetworkCache::acquire, Machine::reset, the
 * seeded input generators, Machine::run*, the sequential reference
 * check — with a span around each.  The input generators local to
 * src/workload/engine.cc (sortValues, randomIntMatrix,
 * randomBoolMatrix) are re-implemented here draw for draw, so the
 * caller must cross-check every outcome against the engine's own
 * report: a drifted replica then fails loudly instead of timing a
 * different program.
 */

#pragma once

#include <cstdint>

#include "spans.hh"
#include "workload/network_cache.hh"
#include "workload/spec.hh"

namespace hostbench {

/** What one replayed instance produced. */
struct ReplayOutcome
{
    bool verified = false;
    std::uint64_t time = 0;
    std::uint64_t steps = 0;
    std::uint64_t area = 0;
    /** The acquire missed and built the machine. */
    bool built = false;
};

/** Peak resident set size of this process so far, in KiB. */
long peakRssKb();

/** Replay one instance on `cache`, spanning each layer in `log`. */
ReplayOutcome replayInstance(const ot::workload::InstanceSpec &inst,
                             ot::workload::NetworkCache &cache,
                             SpanLog &log, std::uint64_t call);

} // namespace hostbench
