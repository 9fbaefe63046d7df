#pragma once

// Deterministic chunk planning: the one definition of a trace.
//
// The simulator's event stream is fully determined by the SDFG and the
// symbol binding: every top-level map's iteration counts and every
// tasklet/copy's per-iteration memlet event count are exactly computable
// BEFORE generation. plan_trace() computes them and splits the trace
// into contiguous chunks — one or more per top-level map (sliced along
// the outermost dimension), one per top-level tasklet or copy — each
// with a precomputed (event_offset, event_count, execution_offset,
// execution_count). An event's timestep is its global index, so
// event_offset doubles as the chunk's timestep base.
//
// Generation always runs from a plan: the EventList is sized to
// total_events once, and each chunk writes its disjoint column slice —
// one after another or over the pool — so the output is bit-identical
// at any thread count. See docs/simulation.md for the safety argument.
//
// Planning is exact, not estimated: an analytic fast path multiplies
// iteration-count products by per-iteration event counts when extents
// are invariant in the map's own parameters, and falls back to
// enumerating dependent (triangular/tiled) dimensions. A binding the
// planner cannot model raises, before any event is generated, the
// exception class generation would raise; a scope that runs zero times
// is never evaluated, so it never raises.

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "dmv/sim/sim.hpp"

namespace dmv::sim {

/// One contiguous slice of the serial event stream.
struct TraceChunk {
  int state = 0;                  ///< Index into sdfg.states().
  ir::NodeId node = ir::kNoNode;  ///< Top-level map entry/tasklet/access.
  /// For map chunks: the half-open range of outermost-dimension ORDINALS
  /// this chunk executes (value = begin + ordinal*step). Serial chunks
  /// (tasklet/copy) use [0, 1).
  std::int64_t outer_begin = 0;
  std::int64_t outer_count = 0;
  /// Position of the chunk's events in the serial stream. event_offset
  /// is also the chunk's first timestep (timestep == global event index).
  std::int64_t event_offset = 0;
  std::int64_t event_count = 0;
  /// Position of the chunk's tasklet-execution ids.
  std::int64_t execution_offset = 0;
  std::int64_t execution_count = 0;
};

struct TracePlan {
  std::int64_t total_events = 0;
  std::int64_t total_executions = 0;
  /// Chunks in serial emission order; offsets are contiguous.
  std::vector<TraceChunk> chunks;
};

/// Computes the exact chunk decomposition of simulate()'s event stream
/// under `symbols`. Top-level maps are split along their outermost
/// dimension into at most `max_chunks_per_map` pieces balanced by event
/// count (0 = derive from dmv::par::num_threads()). Throws what
/// generation would for a binding it cannot run under —
/// symbolic::UnboundSymbolError, std::domain_error (division by zero),
/// std::invalid_argument (a non-positive map or subset step),
/// std::logic_error (copy subset size mismatch) — and
/// std::overflow_error when an event or execution count exceeds int64.
TracePlan plan_trace(const Sdfg& sdfg, const SymbolMap& symbols,
                     const SimulationOptions& options,
                     int max_chunks_per_map = 0);

/// Arena variant reusing `plan.chunks` capacity across sweep steps.
void plan_trace_into(const Sdfg& sdfg, const SymbolMap& symbols,
                     const SimulationOptions& options, int max_chunks_per_map,
                     TracePlan& plan);

/// Generates exactly `chunk` of a plan for this (sdfg, symbols, options)
/// triple, with absolute execution stamps. `header` supplies the
/// placed container layouts (any trace simulate() returned for the same
/// binding and options, or place_containers()' output). `out` must be
/// sized to at least event_offset + event_count; the events are written
/// AT their [event_offset, event_offset + event_count) slice indices, so
/// concurrent calls on disjoint chunks of one list are safe. A chunk
/// that faults leaves the events before the fault in its slice. Throws
/// std::logic_error if the chunk's generated event or execution count
/// disagrees with the plan.
void simulate_chunk(const Sdfg& sdfg, const SymbolMap& symbols,
                    const SimulationOptions& options,
                    const AccessTrace& header, const TraceChunk& chunk,
                    EventList& out);

/// Dependency symbol set of each chunk, index-aligned with plan.chunks:
/// the symbols (declared, or free and not a map parameter of the state)
/// that can change the chunk's event
/// PAYLOAD (container / flat / is_write columns) while the plan shape
/// stays fixed. Per chunk this is a conservative superset of the free
/// symbols of
///   * the chunk scope's map range expressions — excluding the already-
///     chunked outermost dimension's END bound, whose changes can only
///     add or remove outer ordinals and therefore always surface as a
///     plan-shape difference (chunk counts/offsets change);
///   * every EVENT-GENERATING memlet subset inside the scope — tasklet
///     reads/writes and access-to-access copies (with other_subset).
///     Map-boundary routing memlets never emit events and are excluded;
///   * strides / start offset of every container the scope references
///     (they determine the flat indices). Container SHAPE is excluded:
///     for an in-bounds program it only sizes the placed buffer, which
///     is a metric-layer (layout) concern, not an event-payload one.
/// A chunk whose dependency set is disjoint from a binding delta emits a
/// byte-identical event slice under the new binding — the CLEAN
/// classification of the delta engine. Chunks of the same top-level node
/// share one set.
std::vector<std::set<std::string>> chunk_dependencies(const Sdfg& sdfg,
                                                      const TracePlan& plan);

}  // namespace dmv::sim
