// Metric engine tests.
//
// The engine (sim/metric_merge) runs every MetricPipeline driver: a
// fresh pass in consumer segments, set-partitioned exact LRU and
// two-phase stack distances (or one segment for small traces, one
// worker, or a pool task), and an append-only resume of the checkpoint
// state. Its contract is BIT-IDENTITY with the standalone metric passes
// for every PipelineResult field, at any (thread, lane, partition)
// combination, across materialized, generating, delta and resumed
// drives. All suites are named MetricMerge so the CI
// determinism / sanitizer / TSan gates pick them up.

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "dmv/par/par.hpp"
#include "dmv/sim/pipeline.hpp"
#include "dmv/sim/sim.hpp"
#include "dmv/workloads/workloads.hpp"
#include "standalone_reference.hpp"

namespace dmv::sim {
namespace {

/// Every consumer on.
PipelineConfig merge_config() {
  PipelineConfig config;
  config.line_size = 64;
  config.counts = true;
  config.miss_threshold_lines = 64;
  config.keep_distances = true;
  config.element_stats = true;
  config.cache = CacheConfig{};
  config.movement = true;
  return config;
}

/// Standalone passes vs the engine at {1, 2, 4, 8} threads, across the
/// materialized, generating and delta drives.
void check_bit_identity(const ir::Sdfg& sdfg,
                        const std::vector<symbolic::SymbolMap>& bindings,
                        const std::string& name) {
  for (std::size_t b = 0; b < bindings.size(); ++b) {
    const symbolic::SymbolMap& binding = bindings[b];
    const AccessTrace trace = simulate(sdfg, binding);
    const PipelineResult expected = standalone_result(trace, merge_config());
    for (const int threads : {1, 2, 4, 8}) {
      par::ThreadScope scope(threads);
      const std::string context = name + " binding " + std::to_string(b) +
                                  " threads " + std::to_string(threads);
      MetricPipeline merged(merge_config());
      expect_results_equal(merged.run(trace), expected,
                           context + " run(trace)");
      expect_results_equal(merged.run(sdfg, binding), expected,
                           context + " run(sdfg)");
      expect_results_equal(
          merged.run_delta(sdfg, /*program_version=*/7, binding), expected,
          context + " delta");
    }
  }
}

TEST(MetricMerge, SerialVsWorkersBitIdentityHdiff) {
  const ir::Sdfg sdfg = workloads::hdiff(workloads::HdiffVariant::Baseline);
  check_bit_identity(
      sdfg,
      {symbolic::SymbolMap{{"I", 8}, {"J", 8}, {"K", 4}},
       symbolic::SymbolMap{{"I", 12}, {"J", 10}, {"K", 6}},
       symbolic::SymbolMap{{"I", 16}, {"J", 16}, {"K", 3}}},
      "hdiff");
}

TEST(MetricMerge, SerialVsWorkersBitIdentityBert) {
  const ir::Sdfg sdfg = workloads::bert_encoder(workloads::BertStage::Fused1);
  symbolic::SymbolMap small = workloads::bert_small();
  symbolic::SymbolMap wider = small;
  wider["SM"] = small.at("SM") + 6;
  symbolic::SymbolMap deeper = small;
  deeper["H"] = small.at("H") + 2;
  check_bit_identity(sdfg, {small, wider, deeper}, "bert");
}

TEST(MetricMerge, SerialVsWorkersBitIdentityMatmul) {
  const ir::Sdfg sdfg = workloads::matmul();
  symbolic::SymbolMap fig5 = workloads::matmul_fig5();
  symbolic::SymbolMap narrow = fig5;
  narrow["N"] = 6;
  symbolic::SymbolMap tall = fig5;
  tall["M"] = fig5.at("M") + 9;
  check_bit_identity(sdfg, {fig5, narrow, tall}, "matmul");
}

// Set-partition boundary shapes: one set (fully associative), direct
// mapped, more sets than touched lines, and a cache line size different
// from the distance line size.
TEST(MetricMerge, SetPartitionBoundaries) {
  const ir::Sdfg sdfg = workloads::hdiff(workloads::HdiffVariant::Baseline);
  const symbolic::SymbolMap binding{{"I", 12}, {"J", 12}, {"K", 4}};
  struct Shape {
    const char* name;
    CacheConfig cache;
    int line_size;
  };
  const Shape shapes[] = {
      {"fully-associative", CacheConfig{64, 4096, 0}, 64},
      {"direct-mapped", CacheConfig{64, 4096, 1}, 64},
      {"sets-exceed-lines", CacheConfig{64, 1 << 16, 1}, 64},
      {"associativity-1-small", CacheConfig{64, 128, 1}, 64},
      {"cache-line-differs", CacheConfig{32, 8192, 4}, 64},
  };
  for (const Shape& shape : shapes) {
    PipelineConfig config = merge_config();
    config.line_size = shape.line_size;
    config.cache = shape.cache;
    const AccessTrace trace = simulate(sdfg, binding);
    const PipelineResult expected = standalone_result(trace, config);
    for (const int threads : {1, 2, 8}) {
      par::ThreadScope scope(threads);
      MetricPipeline merged(config);
      expect_results_equal(merged.run(trace), expected,
                           std::string(shape.name) + " threads " +
                               std::to_string(threads));
    }
  }
}

// Hand-built traces: random layouts and event streams, including the
// degenerate sizes the segment planner must not mishandle.
TEST(MetricMerge, HandBuiltTraceFuzz) {
  std::mt19937 rng(20260809u);
  for (const std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{2},
                              std::size_t{7}, std::size_t{63},
                              std::size_t{1000}, std::size_t{5000}}) {
    AccessTrace trace;
    const int containers = 1 + static_cast<int>(rng() % 3);
    std::int64_t base = 0;
    for (int c = 0; c < containers; ++c) {
      layout::ConcreteLayout layout;
      layout.name = "c" + std::to_string(c);
      const std::int64_t elements = 16 + static_cast<std::int64_t>(rng() % 240);
      layout.shape = {elements};
      layout.strides = {1};
      layout.element_size = (rng() % 2) ? 8 : 4;
      layout.base_address = base;
      base += layout.allocated_bytes() + 64;
      trace.containers.push_back(layout.name);
      trace.layouts.push_back(layout);
    }
    for (std::size_t i = 0; i < n; ++i) {
      AccessEvent event;
      event.container = static_cast<int>(rng() % containers);
      event.flat = static_cast<std::int64_t>(
          rng() % trace.layouts[event.container].shape[0]);
      event.is_write = (rng() % 4) == 0;
      event.execution = static_cast<std::int64_t>(i);
      trace.events.push_back(event);
    }
    trace.executions = static_cast<std::int64_t>(n);

    const PipelineResult expected = standalone_result(trace, merge_config());
    for (const int threads : {1, 4, 8}) {
      par::ThreadScope scope(threads);
      MetricPipeline merged(merge_config());
      expect_results_equal(merged.run(trace), expected,
                           "n=" + std::to_string(n) + " threads " +
                               std::to_string(threads));
    }
  }
}

// Containers placed 2^40 bytes apart: the distance line span is far
// beyond the dense tables, so every pass takes the hash last-seen path
// as one segment and must still match the standalone passes exactly; a
// cache over that span is rejected with the sparse-span error, and so
// is a cache over negative line ids.
TEST(MetricMerge, SparseLineSpanTakesHashPath) {
  AccessTrace trace;
  for (int c = 0; c < 2; ++c) {
    layout::ConcreteLayout layout;
    layout.name = "c" + std::to_string(c);
    layout.shape = {512};
    layout.strides = {1};
    layout.element_size = 8;
    layout.base_address = c == 0 ? 0 : std::int64_t{1} << 40;
    trace.containers.push_back(layout.name);
    trace.layouts.push_back(layout);
  }
  std::mt19937 rng(20261017u);
  const std::size_t n = 20000;
  for (std::size_t i = 0; i < n; ++i) {
    AccessEvent event;
    event.container = static_cast<int>(rng() % 2);
    event.flat = static_cast<std::int64_t>(rng() % 512);
    event.is_write = (rng() % 4) == 0;
    event.execution = static_cast<std::int64_t>(i);
    trace.events.push_back(event);
  }
  trace.executions = static_cast<std::int64_t>(n);

  PipelineConfig config = merge_config();
  config.cache.reset();
  const PipelineResult expected = standalone_result(trace, config);
  for (const int threads : {1, 4}) {
    par::ThreadScope scope(threads);
    MetricPipeline pipeline(config);
    expect_results_equal(pipeline.run(trace), expected,
                         "threads " + std::to_string(threads));
    EXPECT_EQ(pipeline.last_timings().partitions, 1);
  }

  MetricPipeline with_cache(merge_config());
  try {
    with_cache.run(trace);
    ADD_FAILURE() << "sparse cache span accepted";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("too sparse"), std::string::npos)
        << error.what();
  }
  // The flat LRU arrays mark empty ways with -1, so negative cache line
  // ids are rejected too, not simulated wrongly.
  trace.layouts[1].base_address = -4096;
  EXPECT_THROW(with_cache.run(trace), std::invalid_argument);
}

// Phase timing observability: partitions report the engine's use, and
// the breakdown is populated for every drive mode.
TEST(MetricMerge, PhaseTimingsReportPartitions) {
  const ir::Sdfg sdfg = workloads::hdiff(workloads::HdiffVariant::Baseline);
  const symbolic::SymbolMap binding{{"I", 16}, {"J", 16}, {"K", 4}};

  {
    par::ThreadScope serial(1);
    MetricPipeline pipeline(merge_config());
    pipeline.run(sdfg, binding);
    EXPECT_EQ(pipeline.last_timings().partitions, 1);
    EXPECT_GE(pipeline.last_timings().metrics_ms, 0.0);
  }
  {
    par::ThreadScope scope(8);
    MetricPipeline pipeline(merge_config());
    const AccessTrace trace = simulate(sdfg, binding);
    pipeline.run(trace);
    EXPECT_GT(pipeline.last_timings().partitions, 1);
    // The served path: a cold delta step runs the segmented pass too...
    pipeline.run_delta(sdfg, /*program_version=*/1, binding);
    EXPECT_GT(pipeline.last_timings().partitions, 1);
    EXPECT_GT(pipeline.last_timings().simulate_ms, 0.0);
    // ...and an unchanged binding only finalizes the live state.
    pipeline.run_delta(sdfg, /*program_version=*/1, binding);
    EXPECT_EQ(pipeline.last_timings().partitions, 1);
    EXPECT_EQ(pipeline.last_timings().simulate_ms, 0.0);
  }
}

// Append-only resume: an upward K drag on fixed-capacity hdiff resumes
// the checkpointed state at every step after the first, and the trace
// grows past twice its first size, so the live Fenwick regrows and is
// rebuilt from the last-seen table. The cold first step is segmented at
// 4 threads (its last segment leaves the live Fenwick) and a single
// block pass at 1 thread.
TEST(MetricMerge, ResumeRegrowsFenwickAcrossAppendDrag) {
  const ir::Sdfg sdfg = workloads::fixed_capacity(
      workloads::hdiff(workloads::HdiffVariant::Reordered), {{"K", "KMAX"}});
  PipelineConfig config;
  config.line_size = 64;
  config.counts = true;
  config.miss_threshold_lines = 16;
  config.keep_distances = true;
  config.element_stats = true;
  config.movement = true;
  config.cache = CacheConfig{128, 8192, 4};  // Its own line size.
  for (const int threads : {1, 4}) {
    par::ThreadScope scope(threads);
    MetricPipeline pipeline(config);
    std::int64_t first_events = 0;
    std::int64_t last_events = 0;
    for (const std::int64_t k : {2, 3, 4, 5, 7, 9}) {
      const symbolic::SymbolMap binding{
          {"I", 20}, {"J", 20}, {"K", k}, {"KMAX", 12}};
      const std::string context =
          "threads " + std::to_string(threads) + " K=" + std::to_string(k);
      DeltaOutcome outcome;
      const PipelineResult result =
          pipeline.run_delta(sdfg, /*program_version=*/5, binding, {},
                             &outcome);
      if (k == 2) {
        EXPECT_EQ(outcome.path, DeltaOutcome::Path::kCold) << context;
        EXPECT_EQ(pipeline.last_timings().partitions > 1, threads > 1)
            << context;
        first_events = result.events;
      } else {
        EXPECT_EQ(outcome.path, DeltaOutcome::Path::kChunkDelta) << context;
        EXPECT_TRUE(outcome.resumed) << context;
        EXPECT_GT(result.events, last_events) << context;
      }
      last_events = result.events;
      expect_results_equal(result,
                           standalone_result(simulate(sdfg, binding), config),
                           context);
    }
    EXPECT_GT(last_events, 2 * first_events);
  }
}

}  // namespace
}  // namespace dmv::sim
