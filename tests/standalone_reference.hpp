#pragma once

// Standalone-pass oracle for MetricPipeline: the PipelineResult the
// independent metric passes (count_accesses, stack_distances,
// classify_misses, element_distance_stats, simulate_cache,
// physical_movement) produce for one trace and config. Every pipeline
// driver must match it bit for bit, field by field.

#include <string>

#include "dmv/sim/pipeline.hpp"
#include "dmv/sim/sim.hpp"

namespace dmv::sim {

/// The standalone passes' result for `trace` under `config`; only the
/// consumers `config` enables are populated, as in a pipeline result.
PipelineResult standalone_result(const AccessTrace& trace,
                                 const PipelineConfig& config);

/// Gtest expectations over EVERY PipelineResult field, exact.
void expect_results_equal(const PipelineResult& actual,
                          const PipelineResult& expected,
                          const std::string& context = "");

}  // namespace dmv::sim
