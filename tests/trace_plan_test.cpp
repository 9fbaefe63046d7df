#include "dmv/sim/trace_plan.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "dmv/builder/program_builder.hpp"
#include "dmv/par/par.hpp"
#include "dmv/sim/sim.hpp"
#include "dmv/workloads/workloads.hpp"
#include "reference_trace.hpp"

// The chunk planner's contract: plan_trace() predicts the event stream
// EXACTLY — total counts, per-chunk counts, and offsets — for every
// workload and binding, before a single event is generated, and refuses
// a binding it cannot model with the exception the walk raises. These
// tests cross-check plans against the reference tracer
// (tests/reference_trace.hpp) and regenerate each chunk in isolation to
// verify it reproduces its slice bit for bit.

namespace dmv::sim {
namespace {

using builder::ProgramBuilder;

// Regenerates `chunk` in isolation through simulate_chunk and compares
// its slice against the corresponding slice of `reference`.
void expect_chunk_matches(const ir::Sdfg& sdfg,
                          const symbolic::SymbolMap& binding,
                          const SimulationOptions& options,
                          const AccessTrace& reference,
                          const TraceChunk& chunk) {
  EventList events;
  events.resize(static_cast<std::size_t>(chunk.event_offset +
                                         chunk.event_count));
  simulate_chunk(sdfg, binding, options, reference, chunk, events);
  for (std::int64_t i = chunk.event_offset;
       i < chunk.event_offset + chunk.event_count; ++i) {
    const AccessEvent got = events[static_cast<std::size_t>(i)];
    const AccessEvent want = reference.events[static_cast<std::size_t>(i)];
    ASSERT_EQ(got.container, want.container) << "event " << i;
    ASSERT_EQ(got.flat, want.flat) << "event " << i;
    ASSERT_EQ(got.is_write, want.is_write) << "event " << i;
    ASSERT_EQ(got.timestep, want.timestep) << "event " << i;
    ASSERT_EQ(got.execution, want.execution) << "event " << i;
  }
}

// Validates the structural invariants of a plan and its agreement with
// `reference`, then regenerates every chunk through simulate_chunk and
// compares each against the corresponding slice of `reference`.
void expect_plan_matches(const ir::Sdfg& sdfg,
                         const symbolic::SymbolMap& binding,
                         const SimulationOptions& options,
                         int max_chunks_per_map,
                         const AccessTrace& reference) {
  const TracePlan plan = plan_trace(sdfg, binding, options,
                                    max_chunks_per_map);
  EXPECT_EQ(plan.total_events,
            static_cast<std::int64_t>(reference.events.size()));
  EXPECT_EQ(plan.total_executions, reference.executions);

  // Chunks tile the stream: contiguous event and execution offsets.
  std::int64_t event_cursor = 0;
  std::int64_t execution_cursor = 0;
  for (const TraceChunk& chunk : plan.chunks) {
    EXPECT_EQ(chunk.event_offset, event_cursor);
    EXPECT_EQ(chunk.execution_offset, execution_cursor);
    EXPECT_GT(chunk.event_count + chunk.execution_count, 0)
        << "planner emitted an empty chunk";
    event_cursor += chunk.event_count;
    execution_cursor += chunk.execution_count;
  }
  EXPECT_EQ(event_cursor, plan.total_events);
  EXPECT_EQ(execution_cursor, plan.total_executions);

  // Each chunk regenerated in isolation reproduces its reference slice.
  for (const TraceChunk& chunk : plan.chunks) {
    expect_chunk_matches(sdfg, binding, options, reference, chunk);
  }
}

void expect_plan_matches_reference(const ir::Sdfg& sdfg,
                                   const symbolic::SymbolMap& binding,
                                   const SimulationOptions& options = {},
                                   int max_chunks_per_map = 4) {
  expect_plan_matches(sdfg, binding, options, max_chunks_per_map,
                      reference_trace(sdfg, binding, options));
}

TEST(TracePlan, HdiffAcrossBindings) {
  const ir::Sdfg sdfg = workloads::hdiff(workloads::HdiffVariant::Baseline);
  expect_plan_matches_reference(sdfg, workloads::hdiff_local());
  expect_plan_matches_reference(sdfg, {{"I", 5}, {"J", 7}, {"K", 3}});
  expect_plan_matches_reference(sdfg, {{"I", 16}, {"J", 4}, {"K", 1}});
}

TEST(TracePlan, BertAcrossBindings) {
  const ir::Sdfg sdfg = workloads::bert_encoder(workloads::BertStage::Fused1);
  expect_plan_matches_reference(sdfg, workloads::bert_small());
  expect_plan_matches_reference(
      sdfg,
      {{"B", 1}, {"H", 1}, {"SM", 4}, {"I", 8}, {"emb", 16}, {"P", 4}});
  expect_plan_matches_reference(
      sdfg,
      {{"B", 2}, {"H", 2}, {"SM", 4}, {"I", 8}, {"emb", 8}, {"P", 2}});
}

TEST(TracePlan, MatmulAcrossBindings) {
  const ir::Sdfg sdfg = workloads::matmul();
  expect_plan_matches_reference(sdfg, workloads::matmul_fig5());
  expect_plan_matches_reference(sdfg, {{"M", 3}, {"N", 5}, {"K", 7}});
  expect_plan_matches_reference(sdfg, {{"M", 1}, {"N", 1}, {"K", 9}});
}

TEST(TracePlan, ConvAcrossBindings) {
  const ir::Sdfg sdfg = workloads::conv2d();
  expect_plan_matches_reference(sdfg, workloads::conv2d_fig4());
  symbolic::SymbolMap binding = workloads::conv2d_fig4();
  binding["Cout"] = 1;
  expect_plan_matches_reference(sdfg, binding);
  binding["Hh"] = 6;
  binding["W"] = 6;
  expect_plan_matches_reference(sdfg, binding);
}

TEST(TracePlan, OuterProductAcrossBindings) {
  const ir::Sdfg sdfg = workloads::outer_product();
  expect_plan_matches_reference(sdfg, workloads::outer_product_fig3());
  expect_plan_matches_reference(sdfg, {{"M", 1}, {"N", 17}});
  expect_plan_matches_reference(sdfg, {{"M", 64}, {"N", 2}});
}

TEST(TracePlan, WcrReadsDoubleTheOutEdgeEvents) {
  // The planner must model the wcr_reads option: each Sum-accumulating
  // out-edge element becomes a read+write pair.
  const ir::Sdfg sdfg = workloads::matmul();
  SimulationOptions options;
  options.wcr_reads = true;
  expect_plan_matches_reference(sdfg, {{"M", 4}, {"N", 4}, {"K", 4}}, options);
}

TEST(TracePlan, InterpretedEngineChunks) {
  // Every chunk reproduces its slice of the reference tracer's
  // interpreted walk.
  const ir::Sdfg sdfg = workloads::outer_product();
  const symbolic::SymbolMap binding = workloads::outer_product_fig3();
  expect_plan_matches(sdfg, binding, {}, 4, reference_trace(sdfg, binding));
}

TEST(TracePlan, ReferenceTraceMatchesChunkOnCaseStudies) {
  // One simulate_chunk slice per plan — the middle chunk, which starts
  // mid-iteration-space — against the reference tracer, for the eight
  // case-study stages.
  for (const auto& [label, sdfg, binding] : case_study_stages()) {
    SCOPED_TRACE(label);
    const AccessTrace reference = reference_trace(sdfg, binding);
    const TracePlan plan = plan_trace(sdfg, binding, {}, 4);
    ASSERT_GT(plan.chunks.size(), 1u);
    EXPECT_EQ(plan.total_events,
              static_cast<std::int64_t>(reference.events.size()));
    EXPECT_EQ(plan.total_executions, reference.executions);
    expect_chunk_matches(sdfg, binding, {}, reference,
                         plan.chunks[plan.chunks.size() / 2]);
  }
}

TEST(TracePlan, ManyChunksPerMap) {
  // Oversplitting (more chunks than outer iterations available) must
  // still tile the stream exactly.
  const ir::Sdfg sdfg = workloads::outer_product();
  expect_plan_matches_reference(sdfg, {{"M", 6}, {"N", 3}}, {},
                             /*max_chunks_per_map=*/64);
}

TEST(TracePlan, DegenerateExtentZeroMap) {
  // A map whose outer extent is 0 at this binding contributes nothing.
  ProgramBuilder p("empty_map");
  p.symbols({"N"});
  p.array("A", {"8"});
  p.array("B", {"8"});
  p.state("s");
  p.mapped_tasklet("t", {{"i", "0:N-1"}}, {{"a", "A", "i"}}, "o = a",
                   {{"o", "B", "i"}});
  const ir::Sdfg sdfg = p.take();
  const symbolic::SymbolMap binding{{"N", 0}};

  const TracePlan plan = plan_trace(sdfg, binding, {});
  EXPECT_EQ(plan.total_events, 0);
  EXPECT_EQ(plan.total_executions, 0);
  EXPECT_TRUE(plan.chunks.empty());
  expect_plan_matches_reference(sdfg, binding);
  // The parallel entry points handle the empty plan too.
  EXPECT_EQ(simulate(sdfg, binding).events.size(), 0u);
}

TEST(TracePlan, DegenerateExtentOneMap) {
  // A single outer iteration cannot be split further than one chunk.
  ProgramBuilder p("one_iter");
  p.symbols({"N"});
  p.array("A", {"4", "N"});
  p.array("B", {"4", "N"});
  p.state("s");
  p.mapped_tasklet("t", {{"i", "0:0"}, {"j", "0:N-1"}}, {{"a", "A", "i, j"}},
                   "o = a", {{"o", "B", "i, j"}});
  const ir::Sdfg sdfg = p.take();
  const symbolic::SymbolMap binding{{"N", 5}};

  const TracePlan plan = plan_trace(sdfg, binding, {}, 8);
  ASSERT_EQ(plan.chunks.size(), 1u);
  EXPECT_EQ(plan.chunks[0].outer_begin, 0);
  EXPECT_EQ(plan.chunks[0].outer_count, 1);
  expect_plan_matches_reference(sdfg, binding, {}, 8);
}

TEST(TracePlan, ZeroTripNestedMap) {
  // The outer map runs but the nested tasklet map is empty at this
  // binding: executions exist in neither engine, and the planner agrees.
  ProgramBuilder p("zero_inner");
  p.symbols({"N", "K"});
  p.array("A", {"N", "8"});
  p.array("B", {"N", "8"});
  p.state("s");
  p.begin_map("outer", {{"i", "0:N-1"}});
  p.mapped_tasklet("t", {{"k", "0:K-1"}}, {{"a", "A", "i, k"}}, "o = a",
                   {{"o", "B", "i, k"}});
  p.end_map();
  const ir::Sdfg sdfg = p.take();
  const symbolic::SymbolMap binding{{"N", 6}, {"K", 0}};

  const TracePlan plan = plan_trace(sdfg, binding, {});
  EXPECT_EQ(plan.total_events, 0);
  EXPECT_EQ(plan.total_executions, 0);
  expect_plan_matches_reference(sdfg, binding);
}

TEST(TracePlan, TriangularInnerRangeFallsBackToEnumeration) {
  // j's extent depends on the OUTER map parameter — the analytic product
  // fails and the planner enumerates outer ordinals, staying exact.
  ProgramBuilder p("triangle");
  p.symbols({"N"});
  p.array("A", {"N", "N"});
  p.array("B", {"N", "N"});
  p.state("s");
  p.mapped_tasklet("t", {{"i", "0:N-1"}, {"j", "0:i"}}, {{"a", "A", "i, j"}},
                   "o = a", {{"o", "B", "i, j"}});
  const ir::Sdfg sdfg = p.take();
  const symbolic::SymbolMap binding{{"N", 9}};
  expect_plan_matches_reference(sdfg, binding, {}, 4);
}

TEST(TracePlan, CopyNodesPlanAsSerialChunks) {
  ProgramBuilder p("copy_chunks");
  p.symbols({"N"});
  p.array("A", {"N"});
  p.array("B", {"N"});
  p.array("C", {"N"});
  p.state("s");
  p.copy("A", "0:N-1", "B", "0:N-1");
  p.copy("B", "0:N-1", "C", "0:N-1");
  const ir::Sdfg sdfg = p.take();
  expect_plan_matches_reference(sdfg, {{"N", 12}});
}

TEST(TracePlan, ChunkCountTracksThreadKnob) {
  // max_chunks_per_map = 0 derives the split from the thread knob; more
  // threads must never change the PLANNED TOTALS, only the partition.
  const ir::Sdfg sdfg = workloads::matmul();
  const symbolic::SymbolMap binding = workloads::matmul_fig5();
  TracePlan narrow;
  TracePlan wide;
  {
    par::ThreadScope scope(2);
    narrow = plan_trace(sdfg, binding, {});
  }
  {
    par::ThreadScope scope(8);
    wide = plan_trace(sdfg, binding, {});
  }
  EXPECT_EQ(narrow.total_events, wide.total_events);
  EXPECT_EQ(narrow.total_executions, wide.total_executions);
  EXPECT_GE(wide.chunks.size(), narrow.chunks.size());
}

// The exception class `run` raises, by name ("none" when it returns).
template <typename Run>
std::string thrown_class(Run&& run) {
  try {
    run();
  } catch (const symbolic::UnboundSymbolError&) {
    return "UnboundSymbolError";
  } catch (const std::domain_error&) {
    return "domain_error";
  } catch (const std::invalid_argument&) {
    return "invalid_argument";
  } catch (const std::out_of_range&) {
    return "out_of_range";
  } catch (const std::logic_error&) {
    return "logic_error";
  } catch (const std::exception& error) {
    return std::string("other: ") + error.what();
  }
  return "none";
}

// B[i] = A[<read>] over i in <range>, with symbols N and S and arrays
// of 16 elements.
ir::Sdfg one_map_program(const std::string& range, const std::string& read) {
  ProgramBuilder p("faults");
  p.symbols({"N", "S"});
  p.array("A", {"16"});
  p.array("B", {"16"});
  p.state("s");
  p.mapped_tasklet("t", {{"i", range}}, {{"a", "A", read}}, "b = a",
                   {{"b", "B", "i"}});
  return p.take();
}

// Copies A[0:N-1] to B[0:S-1]; the builder refuses the mismatch, so the
// destination subset is edited in afterwards.
ir::Sdfg mismatched_copy_program() {
  ProgramBuilder p("bad_copy");
  p.symbols({"N", "S"});
  p.array("A", {"16"});
  p.array("B", {"16"});
  p.state("s");
  p.copy("A", "0:N-1", "B", "0:N-1");
  ir::Sdfg sdfg = p.take();
  for (ir::Edge& edge : sdfg.states()[0].mutable_edges()) {
    edge.memlet.other_subset = ir::Subset::parse("0:S-1");
  }
  return sdfg;
}

TEST(TracePlan, PlannerErrorsMatchReferenceTrace) {
  // A binding the planner cannot model raises the class the reference
  // walk raises, whether the planner or generation finds the fault, at
  // one thread and on the pool.
  struct Case {
    const char* label;
    ir::Sdfg sdfg;
    symbolic::SymbolMap binding;
    const char* expected;
  };
  const Case cases[] = {
      {"unbound symbol", workloads::matmul(), {{"M", 4}, {"N", 4}},
       "UnboundSymbolError"},
      {"division by zero in a map bound", one_map_program("0:N/S-1", "i"),
       {{"N", 16}, {"S", 0}}, "domain_error"},
      {"division by zero in a subset", one_map_program("0:N-1", "i / S"),
       {{"N", 16}, {"S", 0}}, "domain_error"},
      {"non-positive map step", one_map_program("0:N-1:S", "i"),
       {{"N", 16}, {"S", 0}}, "invalid_argument"},
      {"copy size mismatch", mismatched_copy_program(),
       {{"N", 16}, {"S", 8}}, "logic_error"},
      {"out-of-bounds access", one_map_program("0:N-1", "i + 1"),
       {{"N", 16}, {"S", 1}}, "out_of_range"},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.label);
    EXPECT_EQ(thrown_class([&] { reference_trace(c.sdfg, c.binding); }),
              c.expected);
    for (const int threads : {1, 4}) {
      par::ThreadScope scope(threads);
      EXPECT_EQ(thrown_class([&] { simulate(c.sdfg, c.binding); }),
                c.expected)
          << "threads=" << threads;
    }
  }
  // A zero subset step never ends the reference walk; the planner
  // refuses it before any event is generated.
  const ir::Sdfg strided = one_map_program("0:N-1", "0:N-1:S");
  const symbolic::SymbolMap zero_step{{"N", 16}, {"S", 0}};
  EXPECT_EQ(thrown_class([&] { plan_trace(strided, zero_step, {}); }),
            "invalid_argument");
  for (const int threads : {1, 4}) {
    par::ThreadScope scope(threads);
    EXPECT_EQ(thrown_class([&] { simulate(strided, zero_step); }),
              "invalid_argument")
        << "threads=" << threads;
  }
}

TEST(TracePlan, ScopeRunningZeroTimesIsNeverEvaluated) {
  // The body's zero subset step would be refused if the body ran; a map
  // that runs zero times — at the top level or nested — emits nothing,
  // as in the reference walk.
  const ir::Sdfg top = one_map_program("0:N-1", "0:N-1:S");
  const symbolic::SymbolMap empty{{"N", 0}, {"S", 0}};
  EXPECT_EQ(reference_trace(top, empty).events.size(), 0u);
  EXPECT_EQ(simulate(top, empty).events.size(), 0u);

  ProgramBuilder p("zero_inner_step");
  p.symbols({"N", "K", "S"});
  p.array("A", {"N", "8"});
  p.array("B", {"N", "8"});
  p.state("s");
  p.begin_map("outer", {{"i", "0:N-1"}});
  p.mapped_tasklet("t", {{"k", "0:K-1"}}, {{"a", "A", "i, 0:7:S"}}, "o = a",
                   {{"o", "B", "i, k"}});
  p.end_map();
  const ir::Sdfg nested = p.take();
  const symbolic::SymbolMap inner_empty{{"N", 6}, {"K", 0}, {"S", 0}};
  EXPECT_EQ(reference_trace(nested, inner_empty).events.size(), 0u);
  for (const int threads : {1, 4}) {
    par::ThreadScope scope(threads);
    const AccessTrace trace = simulate(nested, inner_empty);
    EXPECT_EQ(trace.events.size(), 0u);
    EXPECT_EQ(trace.executions, 0);
  }
}

TEST(TracePlan, UniformChunkBoundariesAreArithmetic) {
  // The uniform path places chunk boundaries by arithmetic, at a cost
  // set by the chunk count: 2^62 outer ordinals plan instantly, and a
  // trace too long for int64 is refused instead of wrapping.
  ProgramBuilder p("long_map");
  p.symbols({"N", "M"});
  p.array("A", {"N", "M"});
  p.state("s");
  p.mapped_tasklet("t", {{"i", "0:N-1"}, {"j", "0:M-1"}}, {{"a", "A", "i, j"}},
                   "o = a", {{"o", "A", "i, j"}});
  const ir::Sdfg sdfg = p.take();
  const TracePlan plan =
      plan_trace(sdfg, {{"N", std::int64_t{1} << 60}, {"M", 2}}, {}, 4);
  ASSERT_EQ(plan.chunks.size(), 4u);
  EXPECT_EQ(plan.total_events, std::int64_t{1} << 62);
  EXPECT_EQ(plan.chunks[1].outer_begin, std::int64_t{1} << 58);
  EXPECT_EQ(plan.chunks[3].event_offset, 3 * (std::int64_t{1} << 60));
  EXPECT_THROW(plan_trace(sdfg, {{"N", std::int64_t{1} << 62}, {"M", 2}}, {}),
               std::overflow_error);
  EXPECT_THROW(plan_trace(sdfg, {{"N", 3037000500}, {"M", 3037000500}}, {}),
               std::overflow_error);
}

}  // namespace
}  // namespace dmv::sim
