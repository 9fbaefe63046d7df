// Algorithmic ablation: the O(log n)-per-access Fenwick formulation of
// Olken's stack-distance algorithm vs the naive O(n) LRU-stack scan.
// The paper's interactivity claim ("reducing the wait time for
// performance data ... to a fraction of a second") depends on the
// analysis pipeline staying fast as the parameterized sizes grow; this
// benchmark quantifies the asymptotic gap.

#include <benchmark/benchmark.h>

#include <random>

#include "dmv/sim/sim.hpp"
#include "dmv/workloads/workloads.hpp"

namespace {

namespace sim = dmv::sim;

sim::AccessTrace random_trace(std::int64_t elements, std::size_t length) {
  sim::AccessTrace trace;
  dmv::layout::ConcreteLayout layout;
  layout.name = "A";
  layout.shape = {elements};
  layout.strides = {1};
  layout.element_size = 8;
  trace.containers = {"A"};
  trace.layouts = {layout};
  std::mt19937 rng(12345);
  std::uniform_int_distribution<std::int64_t> element(0, elements - 1);
  trace.events.reserve(length);
  for (std::size_t i = 0; i < length; ++i) {
    sim::AccessEvent event;
    event.container = 0;
    event.flat = element(rng);
    trace.events.push_back(event);
  }
  return trace;
}

void BM_StackDistance_Fenwick(benchmark::State& state) {
  sim::AccessTrace trace =
      random_trace(state.range(0) / 4, state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim::stack_distances(trace, 64));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

void BM_StackDistance_Naive(benchmark::State& state) {
  sim::AccessTrace trace =
      random_trace(state.range(0) / 4, state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim::stack_distances_naive(trace, 64));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

void BM_StackDistance_Hdiff(benchmark::State& state) {
  // The real pipeline cost at increasing parameterized sizes.
  const std::int64_t scale = state.range(0);
  dmv::ir::Sdfg sdfg =
      dmv::workloads::hdiff(dmv::workloads::HdiffVariant::Baseline);
  dmv::symbolic::SymbolMap params{
      {"I", scale}, {"J", scale}, {"K", std::max<std::int64_t>(2, scale / 2)}};
  sim::AccessTrace trace = sim::simulate(sdfg, params);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim::stack_distances(trace, 64));
  }
  state.SetLabel(std::to_string(trace.events.size()) + " events");
}

void BM_SimulatePipeline_HdiffLocal(benchmark::State& state) {
  // End-to-end local-view latency at the paper's 1/32 parameters: this
  // is the "fraction of a second" interactivity budget.
  dmv::ir::Sdfg sdfg =
      dmv::workloads::hdiff(dmv::workloads::HdiffVariant::Baseline);
  const dmv::symbolic::SymbolMap params = dmv::workloads::hdiff_local();
  for (auto _ : state) {
    sim::AccessTrace trace = sim::simulate(sdfg, params);
    sim::StackDistanceResult distances = sim::stack_distances(trace, 64);
    sim::MissReport report = sim::classify_misses(trace, distances, 8);
    benchmark::DoNotOptimize(
        sim::physical_movement(trace, report, 64).total_bytes);
  }
}

}  // namespace

BENCHMARK(BM_StackDistance_Fenwick)->Range(1 << 10, 1 << 17);
BENCHMARK(BM_StackDistance_Naive)->Range(1 << 10, 1 << 15);
BENCHMARK(BM_StackDistance_Hdiff)->Arg(8)->Arg(16)->Arg(24);
BENCHMARK(BM_SimulatePipeline_HdiffLocal)->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
