#pragma once

// The one trace generator (not installed; include only from src/sim).

#include <span>

#include "dmv/sim/sim.hpp"
#include "dmv/sim/trace_plan.hpp"

namespace dmv::sim::detail {

/// Behind simulate_into, simulate_chunk and the delta engine's patches:
/// writes every chunk of `chunks` (all of one plan for this binding)
/// into its slice of `out`, which must already cover them. Each state
/// the chunks touch is compiled once and shared read-only by the chunk
/// workers, which spread over the pool.
void generate_chunks(const Sdfg& sdfg, const SymbolMap& symbols,
                     const SimulationOptions& options,
                     const AccessTrace& header,
                     std::span<const TraceChunk> chunks, EventList& out);

/// Places the containers into `trace`, sizes its events to
/// plan.total_events and generates every chunk of `plan`.
void simulate_plan_into(const Sdfg& sdfg, const SymbolMap& symbols,
                        const SimulationOptions& options,
                        const TracePlan& plan, AccessTrace& trace);

}  // namespace dmv::sim::detail
