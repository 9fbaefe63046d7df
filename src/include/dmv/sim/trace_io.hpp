#pragma once

// Access-trace serialization (paper §VIII-d).
//
// The Discussion notes that for dynamic or irregular programs — where
// the small-scale simulation cannot derive accesses statically — "the
// global and local visualization techniques ... can similarly be used to
// analyze and explore traditional instrumentation data". This module is
// that path: traces recorded by an external tool (Pin, perf mem, a
// hand-instrumented app) can be imported in a simple CSV format and then
// flow through the SAME stack — access counts, reuse distances, miss
// classification, movement estimates, renderers — as simulated traces.
// Simulated traces export to the same format for archival and diffing.
//
// Format (line oriented):
//   dmvtrace 2
//   container <name> <element_size> <base_address> <shape...> ; <strides...>
//   ...one line per container...
//   events
//   <container_index> <flat_index> <r|w> <execution>
//   ...
// An event's timestep is its line's position in the events section.
// read_trace also accepts version 1 files, whose event lines are
// `<timestep> <container_index> <flat_index> <r|w> <execution> <tasklet>`;
// the timestep and tasklet fields must be integers and are ignored.

#include <iosfwd>
#include <string>

#include "dmv/sim/sim.hpp"

namespace dmv::sim {

/// Writes the trace; throws on stream failure.
void write_trace(const AccessTrace& trace, std::ostream& out);
std::string trace_to_string(const AccessTrace& trace);

/// Parses a trace; throws std::runtime_error with a line number on
/// malformed input.
AccessTrace read_trace(std::istream& in);
AccessTrace trace_from_string(const std::string& text);

}  // namespace dmv::sim
