#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "dmv/analysis/analysis.hpp"
#include "dmv/par/par.hpp"
#include "dmv/sim/pipeline.hpp"
#include "dmv/sim/sim.hpp"
#include "dmv/sim/trace_plan.hpp"
#include "dmv/workloads/workloads.hpp"
#include "reference_trace.hpp"
#include "standalone_reference.hpp"

// Determinism contract of the parallel engine: every metric pass and the
// simulator must be BIT-IDENTICAL to the serial baseline — parallelism,
// expression compilation and lane batching are pure performance changes,
// never numeric ones. These tests run the same inputs through (a) the
// simulator vs the test-side reference tracer (reference_trace.hpp, a
// plain interpreted walk) and (b) the metric passes at 1 vs 8 threads,
// and require exact equality.

namespace dmv::sim {
namespace {

void expect_traces_identical(const AccessTrace& a, const AccessTrace& b) {
  ASSERT_EQ(a.containers, b.containers);
  ASSERT_EQ(a.executions, b.executions);
  ASSERT_EQ(a.events.size(), b.events.size());
  for (std::size_t i = 0; i < a.events.size(); ++i) {
    const AccessEvent& x = a.events[i];
    const AccessEvent& y = b.events[i];
    ASSERT_EQ(x.container, y.container) << "event " << i;
    ASSERT_EQ(x.flat, y.flat) << "event " << i;
    ASSERT_EQ(x.is_write, y.is_write) << "event " << i;
    ASSERT_EQ(x.timestep, y.timestep) << "event " << i;
    ASSERT_EQ(x.execution, y.execution) << "event " << i;
  }
}

void expect_stats_equal(const MissStats& a, const MissStats& b) {
  EXPECT_EQ(a.cold, b.cold);
  EXPECT_EQ(a.capacity, b.capacity);
  EXPECT_EQ(a.hits, b.hits);
}

TEST(Determinism, CompiledSimulatorMatchesInterpreterOnHdiff) {
  const ir::Sdfg sdfg =
      workloads::hdiff(workloads::HdiffVariant::Baseline);
  const symbolic::SymbolMap binding = workloads::hdiff_local();
  expect_traces_identical(reference_trace(sdfg, binding),
                          simulate(sdfg, binding));
}

TEST(Determinism, CompiledSimulatorMatchesInterpreterOnBert) {
  const ir::Sdfg sdfg = workloads::bert_encoder(workloads::BertStage::Fused1);
  const symbolic::SymbolMap binding = workloads::bert_small();
  expect_traces_identical(reference_trace(sdfg, binding),
                          simulate(sdfg, binding));
}

TEST(Determinism, ReferenceTraceMatchesSimulateOnCaseStudies) {
  for (const auto& [label, sdfg, binding] : case_study_stages()) {
    SCOPED_TRACE(label);
    const AccessTrace reference = reference_trace(sdfg, binding);
    {
      par::ThreadScope scope(4);
      const TracePlan plan = plan_trace(sdfg, binding, {});
      ASSERT_GT(plan.chunks.size(), 1u);
      ASSERT_GE(plan.total_events, 8192);
    }
    for (const int threads : {1, 4}) {
      SCOPED_TRACE(::testing::Message() << threads << " threads");
      par::ThreadScope scope(threads);
      expect_traces_identical(reference, simulate(sdfg, binding));
    }
  }
}

TEST(Determinism, ParallelTraceBitIdenticalAcrossThreadCounts) {
  // The tentpole contract: chunked parallel generation is a pure
  // performance change. 1 thread (chunks one after another), 8 threads
  // (chunks over the pool), and the reference tracer must produce
  // byte-identical traces.
  const std::vector<std::pair<ir::Sdfg, symbolic::SymbolMap>> cases = [] {
    std::vector<std::pair<ir::Sdfg, symbolic::SymbolMap>> list;
    list.emplace_back(workloads::hdiff(workloads::HdiffVariant::Baseline),
                      workloads::hdiff_local());
    list.emplace_back(workloads::matmul(),
                      symbolic::SymbolMap{{"M", 12}, {"N", 10}, {"K", 8}});
    list.emplace_back(workloads::bert_encoder(workloads::BertStage::Fused1),
                      workloads::bert_small());
    return list;
  }();
  for (const auto& [sdfg, binding] : cases) {
    const AccessTrace reference = reference_trace(sdfg, binding);
    AccessTrace one;
    AccessTrace eight;
    {
      par::ThreadScope scope(1);
      one = simulate(sdfg, binding);
    }
    {
      par::ThreadScope scope(8);
      eight = simulate(sdfg, binding);
    }
    expect_traces_identical(reference, one);
    expect_traces_identical(reference, eight);
  }
}

TEST(Determinism, MetricPassesBitIdenticalAcrossThreadCounts) {
  const ir::Sdfg sdfg =
      workloads::hdiff(workloads::HdiffVariant::Baseline);
  const AccessTrace trace =
      simulate(sdfg, symbolic::SymbolMap{{"I", 12}, {"J", 12}, {"K", 6}});
  const StackDistanceResult distances = stack_distances(trace, 64);

  AccessCounts counts_serial;
  MissReport report_serial;
  ElementDistanceStats stats_serial;
  CacheSimResult cache_serial;
  {
    par::ThreadScope scope(1);
    counts_serial = count_accesses(trace);
    report_serial = classify_misses(trace, distances, 64);
    stats_serial = element_distance_stats(trace, distances, 0);
    cache_serial = simulate_cache(trace, CacheConfig{});
  }
  AccessCounts counts_parallel;
  MissReport report_parallel;
  ElementDistanceStats stats_parallel;
  CacheSimResult cache_parallel;
  {
    par::ThreadScope scope(8);
    counts_parallel = count_accesses(trace);
    report_parallel = classify_misses(trace, distances, 64);
    stats_parallel = element_distance_stats(trace, distances, 0);
    cache_parallel = simulate_cache(trace, CacheConfig{});
  }

  EXPECT_EQ(counts_serial.reads, counts_parallel.reads);
  EXPECT_EQ(counts_serial.writes, counts_parallel.writes);

  EXPECT_EQ(report_serial.element_misses, report_parallel.element_misses);
  ASSERT_EQ(report_serial.per_container.size(),
            report_parallel.per_container.size());
  for (std::size_t c = 0; c < report_serial.per_container.size(); ++c) {
    expect_stats_equal(report_serial.per_container[c],
                       report_parallel.per_container[c]);
  }
  expect_stats_equal(report_serial.total, report_parallel.total);

  EXPECT_EQ(stats_serial.min, stats_parallel.min);
  EXPECT_EQ(stats_serial.median, stats_parallel.median);
  EXPECT_EQ(stats_serial.max, stats_parallel.max);
  EXPECT_EQ(stats_serial.cold_count, stats_parallel.cold_count);

  ASSERT_EQ(cache_serial.per_container.size(),
            cache_parallel.per_container.size());
  for (std::size_t c = 0; c < cache_serial.per_container.size(); ++c) {
    expect_stats_equal(cache_serial.per_container[c],
                       cache_parallel.per_container[c]);
  }
  expect_stats_equal(cache_serial.total, cache_parallel.total);
}

TEST(Determinism, FusedPipelineBitIdenticalAcrossThreadCounts) {
  // The pipeline splits its pass into more segments and cache-set
  // partitions as threads grow; every driver must still match the
  // standalone passes exactly at 1 and 8 threads.
  const ir::Sdfg sdfg =
      workloads::hdiff(workloads::HdiffVariant::Baseline);
  const symbolic::SymbolMap binding{{"I", 12}, {"J", 12}, {"K", 6}};

  PipelineConfig config;
  config.miss_threshold_lines = 64;
  config.keep_distances = true;
  config.element_stats = true;
  config.cache = CacheConfig{};
  config.movement = true;

  const AccessTrace trace = simulate(sdfg, binding);
  const PipelineResult expected = standalone_result(trace, config);
  for (const int threads : {1, 8}) {
    par::ThreadScope scope(threads);
    MetricPipeline pipeline(config);
    const std::string context = "threads " + std::to_string(threads);
    expect_results_equal(pipeline.run(sdfg, binding), expected,
                         context + " run(sdfg)");
    expect_results_equal(
        pipeline.run_delta(sdfg, /*program_version=*/1, binding), expected,
        context + " run_delta");
  }
}

TEST(Determinism, RelatedAccessesBitIdenticalAcrossThreadCounts) {
  const ir::Sdfg sdfg = workloads::matmul();
  const AccessTrace trace =
      simulate(sdfg, symbolic::SymbolMap{{"M", 8}, {"N", 8}, {"K", 8}});
  const std::vector<Selection> selected{{0, {0, 5, 9}}};
  AccessCounts serial;
  {
    par::ThreadScope scope(1);
    serial = related_accesses(trace, selected);
  }
  AccessCounts parallel;
  {
    par::ThreadScope scope(8);
    parallel = related_accesses(trace, selected);
  }
  EXPECT_EQ(serial.reads, parallel.reads);
  EXPECT_EQ(serial.writes, parallel.writes);
}

TEST(Determinism, SweepMetricMatchesScalarEvaluation) {
  const ir::Sdfg sdfg =
      workloads::hdiff(workloads::HdiffVariant::Baseline);
  const symbolic::Expr metric = analysis::total_movement_bytes(sdfg);
  const symbolic::SymbolMap base{{"I", 16}, {"J", 16}, {"K", 4}};
  const std::vector<std::int64_t> values{2, 4, 8, 16, 32};
  par::ThreadScope scope(8);
  const auto series = analysis::sweep_metric(metric, base, "K", values);
  ASSERT_EQ(series.size(), values.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    symbolic::SymbolMap binding = base;
    binding["K"] = values[i];
    EXPECT_EQ(series[i].value, values[i]);
    EXPECT_EQ(series[i].metric,
              static_cast<double>(metric.evaluate(binding)));
  }
}

}  // namespace
}  // namespace dmv::sim
