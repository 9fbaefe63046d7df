#pragma once

// Reference tracer: the plain interpreted walk of an SDFG region, kept in
// the tests as the oracle for sim::simulate. It places containers with
// sim::place_containers, iterates every map through
// IterationSpace::from(...).for_each with a fresh SymbolMap per scope,
// and evaluates every memlet bound with Expr::evaluate — no compiled
// memlet subsets, no lane batching, no trace plan, no parallelism. The
// library's engine must reproduce its event stream bit for bit.

#include <string>
#include <vector>

#include "dmv/ir/sdfg.hpp"
#include "dmv/sim/sim.hpp"
#include "dmv/symbolic/expr.hpp"

namespace dmv::sim {

/// Full trace of `sdfg` under `symbols`: containers, layouts, every
/// event in serial order, and the execution count. Honors
/// options.placement_alignment and options.wcr_reads.
AccessTrace reference_trace(const ir::Sdfg& sdfg,
                            const symbolic::SymbolMap& symbols,
                            const SimulationOptions& options = {});

/// One case-study program at one binding.
struct CaseStudyStage {
  std::string label;
  ir::Sdfg sdfg;
  symbolic::SymbolMap binding;
};

/// The eight case-study stages — the four hdiff variants, the three
/// bert stages, and matmul — at bindings large enough that simulate's
/// parallel path engages at 4 threads (a multi-chunk plan of at least
/// 8192 events).
std::vector<CaseStudyStage> case_study_stages();

}  // namespace dmv::sim
