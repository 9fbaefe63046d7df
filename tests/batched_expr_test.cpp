#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <optional>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "dmv/builder/program_builder.hpp"
#include "dmv/par/par.hpp"
#include "dmv/sim/sim.hpp"
#include "dmv/sim/trace_plan.hpp"
#include "dmv/symbolic/batched.hpp"
#include "dmv/symbolic/compiled.hpp"
#include "dmv/symbolic/expr.hpp"
#include "dmv/symbolic/parser.hpp"
#include "reference_trace.hpp"

// Contract of the lane-batched evaluator: for every lane L, the batched
// result equals scalar evaluation of the same program against lane L's
// environment — including WHICH inputs fault. A fault bit must be set
// exactly when the scalar engine throws (std::domain_error for division
// or modulo by zero and negative Pow exponents; UnboundSymbolError for
// an unbound slot, which faults all lanes); non-faulting lanes must be
// bit-identical. The simulator-level tests then pin the tail-mask and
// fault-ordering behavior of the batched innermost loop.

namespace dmv::symbolic {
namespace {

const std::vector<std::string> kSymbols{"N", "M", "K", "i", "j"};

// Same generator family as compiled_expr_test: Pow exponents stay small
// non-negative constants; zero divisors are part of the contract.
Expr random_expr(std::mt19937& rng, int depth) {
  std::uniform_int_distribution<int> leaf_pick(0, 1);
  std::uniform_int_distribution<std::int64_t> constant(-5, 5);
  std::uniform_int_distribution<std::size_t> symbol(0, kSymbols.size() - 1);
  if (depth <= 0 || std::uniform_int_distribution<int>(0, 3)(rng) == 0) {
    return leaf_pick(rng) == 0 ? Expr::constant(constant(rng))
                               : Expr::symbol(kSymbols[symbol(rng)]);
  }
  std::uniform_int_distribution<int> kind_pick(0, 7);
  const ExprKind kinds[] = {ExprKind::Add,      ExprKind::Mul,
                            ExprKind::FloorDiv, ExprKind::CeilDiv,
                            ExprKind::Mod,      ExprKind::Min,
                            ExprKind::Max,      ExprKind::Pow};
  const ExprKind kind = kinds[kind_pick(rng)];
  if (kind == ExprKind::Pow) {
    std::uniform_int_distribution<std::int64_t> exponent(0, 3);
    return Expr::make(kind, {random_expr(rng, depth - 1), Expr(exponent(rng))});
  }
  std::vector<Expr> operands;
  const int arity = (kind == ExprKind::Add || kind == ExprKind::Mul)
                        ? std::uniform_int_distribution<int>(2, 3)(rng)
                        : 2;
  for (int i = 0; i < arity; ++i) {
    operands.push_back(random_expr(rng, depth - 1));
  }
  return Expr::make(kind, std::move(operands));
}

std::optional<std::int64_t> guarded_scalar(const CompiledExpr& compiled,
                                           const std::vector<std::int64_t>& env,
                                           const std::vector<char>& bound) {
  try {
    return compiled.evaluate(env.data(), bound.data());
  } catch (const std::domain_error&) {
    return std::nullopt;
  }
}

// Checks `expr` against per-lane environments where EVERY slot carries
// independent lane values (strictly more general than the simulator's
// one-varying-slot usage).
void check_against_scalar(const Expr& expr,
                          const std::vector<std::vector<std::int64_t>>&
                              lane_envs /* [lane][slot] */) {
  SymbolTable table;
  const CompiledExpr scalar = CompiledExpr::compile(expr, table);
  const BatchedCompiledExpr batched(scalar);
  const int width = static_cast<int>(lane_envs.size());
  const std::size_t slots = table.size();

  const std::vector<std::int64_t> zeros(slots, 0);
  const std::vector<char> all_bound(slots, 1);
  LaneEnv env;
  env.reset(zeros, all_bound, width);
  std::vector<std::int64_t> per_slot(static_cast<std::size_t>(width));
  for (std::size_t s = 0; s < slots; ++s) {
    for (int l = 0; l < width; ++l) {
      per_slot[static_cast<std::size_t>(l)] = lane_envs[l][s];
    }
    env.set_lanes(static_cast<int>(s), per_slot);
  }

  std::vector<std::int64_t> out(static_cast<std::size_t>(width));
  const std::uint32_t faults = batched.evaluate(env, out.data());
  for (int l = 0; l < width; ++l) {
    const auto expected = guarded_scalar(scalar, lane_envs[l], all_bound);
    const bool faulted = (faults >> l) & 1u;
    ASSERT_EQ(expected.has_value(), !faulted)
        << expr.to_string() << " lane " << l;
    if (expected) {
      ASSERT_EQ(*expected, out[static_cast<std::size_t>(l)])
          << expr.to_string() << " lane " << l;
    }
  }
}

TEST(BatchedExpr, MatchesScalarOnRandomExpressionsAndBindings) {
  std::mt19937 rng(20260809);
  std::uniform_int_distribution<std::int64_t> value(-10, 10);
  for (int trial = 0; trial < 2000; ++trial) {
    const Expr expr = random_expr(rng, 4);
    // Cycle widths: the specialized 4- and 8-lane paths plus a width
    // with no template instantiation (generic fallback).
    const int width = (trial % 3 == 0) ? 4 : (trial % 3 == 1) ? 8 : 5;
    SymbolTable probe;
    CompiledExpr::compile(expr, probe);
    std::vector<std::vector<std::int64_t>> lane_envs(
        static_cast<std::size_t>(width),
        std::vector<std::int64_t>(probe.size()));
    for (auto& lane : lane_envs) {
      for (auto& slot : lane) slot = value(rng);
    }
    check_against_scalar(expr, lane_envs);
  }
}

TEST(BatchedExpr, DomainFaultsArePerLane) {
  // i / j, ceil(i / j), i % j, i ** j: lanes where j makes the scalar
  // helper throw must fault, and ONLY those lanes.
  const Expr i = Expr::symbol("i");
  const Expr j = Expr::symbol("j");
  const struct {
    Expr expr;
    std::vector<std::int64_t> j_values;  // One per lane, width 8.
  } cases[] = {
      {Expr::make(ExprKind::FloorDiv, {i, j}), {3, 0, -2, 1, 0, 7, -1, 5}},
      {Expr::make(ExprKind::CeilDiv, {i, j}), {0, 4, 2, 0, -3, 1, 6, 0}},
      {Expr::make(ExprKind::Mod, {i, j}), {2, -5, 0, 3, 1, 0, 0, -4}},
      {Expr::make(ExprKind::Pow, {i, j}), {0, 2, -1, 3, -7, 1, 0, -2}},
  };
  for (const auto& test_case : cases) {
    std::vector<std::vector<std::int64_t>> lane_envs;
    for (std::size_t l = 0; l < test_case.j_values.size(); ++l) {
      // Slot order is first-intern order: i then j.
      lane_envs.push_back(
          {static_cast<std::int64_t>(l) + 5, test_case.j_values[l]});
    }
    check_against_scalar(test_case.expr, lane_envs);
  }
}

TEST(BatchedExpr, UnboundSlotFaultsEveryLane) {
  SymbolTable table;
  const CompiledExpr scalar = CompiledExpr::compile(parse("N + M"), table);
  const BatchedCompiledExpr batched(scalar);
  std::vector<std::int64_t> values;
  std::vector<char> bound;
  table.bind(SymbolMap{{"N", 3}}, values, bound);
  LaneEnv env;
  env.reset(values, bound, 8);
  std::int64_t out[8];
  EXPECT_EQ(batched.evaluate(env, out), 0xffu);
  // Binding the slot clears the fault and matches scalar.
  env.broadcast(table.lookup("M"), 4);
  EXPECT_EQ(batched.evaluate(env, out), 0u);
  for (int l = 0; l < 8; ++l) EXPECT_EQ(out[l], 7);
}

TEST(BatchedExpr, DeepExpressionUsesHeapStack) {
  Expr expr = Expr::symbol("N");
  for (int n = 0; n < 80; ++n) {
    expr = Expr::make(ExprKind::Min, {Expr(1000 + n), expr});
  }
  std::vector<std::vector<std::int64_t>> lane_envs;
  for (int l = 0; l < 8; ++l) {
    lane_envs.push_back({40 + static_cast<std::int64_t>(l)});
  }
  check_against_scalar(expr, lane_envs);
}

}  // namespace
}  // namespace dmv::symbolic

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

ir::Sdfg one_dim_program() {
  builder::ProgramBuilder program("tail1d");
  program.symbols({"N"});
  program.array("A", {"N + 2"});
  program.array("B", {"N + 2"});
  program.state("s");
  program.mapped_tasklet("t", {{"i", "0:N-1"}}, {{"a", "A", "i"}},
                         "b = a + 1", {{"b", "B", "i"}});
  return program.take();
}

ir::Sdfg two_dim_program() {
  builder::ProgramBuilder program("tail2d");
  program.symbols({"N"});
  program.array("A", {"4", "N + 2"});
  program.array("B", {"4", "N + 2"});
  program.state("s");
  program.mapped_tasklet("t", {{"i", "0:3"}, {"j", "0:N-1"}},
                         {{"a", "A", "i, j"}}, "b = a + 1",
                         {{"b", "B", "i, j"}});
  return program.take();
}

TEST(BatchedTrace, TailMaskCoversEveryTripCount) {
  // Trip counts around the lane width W=8: 0, 1, W-1, W, W+1 (and a
  // multi-batch 2W+3). The batched trace must equal the reference
  // tracer's exactly — the padded tail lanes must not emit.
  const ir::Sdfg programs[] = {one_dim_program(), two_dim_program()};
  for (const ir::Sdfg& sdfg : programs) {
    for (const std::int64_t n : {0, 1, 7, 8, 9, 19}) {
      const symbolic::SymbolMap binding{{"N", n}};
      SCOPED_TRACE("N=" + std::to_string(n));
      par::ThreadScope serial(1);
      expect_traces_identical(reference_trace(sdfg, binding),
                              simulate(sdfg, binding));
    }
  }
}

TEST(BatchedTrace, FaultingLaneReplaysAtExactScalarPosition) {
  // A[i % (4 - i)] throws std::domain_error (modulo by zero) at i == 4 —
  // lane 4 of the first batch. The batched engine must emit exactly the
  // events of iterations 0..3 and then throw, like the reference walk.
  builder::ProgramBuilder program("faulty");
  program.array("A", {"16"});
  program.array("B", {"16"});
  program.state("s");
  program.mapped_tasklet("t", {{"i", "0:9"}}, {{"a", "A", "i % (4 - i)"}},
                         "b = a", {{"b", "B", "i"}});
  const ir::Sdfg sdfg = program.take();
  EXPECT_THROW(reference_trace(sdfg, {}), std::domain_error);

  // Generation writes into a list pre-sized from the plan. The faulting
  // chunk fills its slice up to the fault and leaves the rest alone.
  const TracePlan plan = plan_trace(sdfg, {}, {});
  ASSERT_EQ(plan.chunks.size(), 1u);
  ASSERT_EQ(plan.total_events, 20);
  AccessTrace header;
  place_containers(sdfg, {}, {}, header);
  AccessEvent sentinel;
  sentinel.container = 7;
  sentinel.flat = -1;
  sentinel.execution = -1;
  EventList events;
  events.resize(static_cast<std::size_t>(plan.total_events));
  for (std::size_t i = 0; i < events.size(); ++i) events.set(i, sentinel);
  EXPECT_THROW(simulate_chunk(sdfg, {}, {}, header, plan.chunks[0], events),
               std::domain_error);
  // Iterations 0..3 read A[i % (4 - i)] = A[0], A[1], A[0], A[0] and
  // write B[i]; A is container 0 and B container 1.
  struct Expected {
    std::int32_t container;
    std::int64_t flat;
    bool is_write;
    std::int64_t execution;
  };
  const Expected expected[] = {{0, 0, false, 0}, {1, 0, true, 0},
                               {0, 1, false, 1}, {1, 1, true, 1},
                               {0, 0, false, 2}, {1, 2, true, 2},
                               {0, 0, false, 3}, {1, 3, true, 3}};
  for (std::size_t i = 0; i < std::size(expected); ++i) {
    const AccessEvent event = events[i];
    EXPECT_EQ(event.container, expected[i].container) << "event " << i;
    EXPECT_EQ(event.flat, expected[i].flat) << "event " << i;
    EXPECT_EQ(event.is_write, expected[i].is_write) << "event " << i;
    EXPECT_EQ(event.execution, expected[i].execution) << "event " << i;
  }
  const AccessEvent untouched = events[std::size(expected)];
  EXPECT_EQ(untouched.container, sentinel.container);
  EXPECT_EQ(untouched.flat, sentinel.flat);
  EXPECT_EQ(untouched.execution, sentinel.execution);
}

TEST(BatchedTrace, UnboundSymbolThrowsIdentically) {
  // A never-bound symbol: the engine must throw UnboundSymbolError like
  // the reference walk, at 1 thread and with the planner engaged.
  const ir::Sdfg sdfg = one_dim_program();
  EXPECT_THROW(reference_trace(sdfg, {}), symbolic::UnboundSymbolError);
  for (const int threads : {1, 4}) {
    par::ThreadScope scope(threads);
    EXPECT_THROW(simulate(sdfg, {}), symbolic::UnboundSymbolError)
        << "threads=" << threads;
  }
}

}  // namespace
}  // namespace dmv::sim
