#include <algorithm>
#include <array>
#include <map>
#include <optional>
#include <stdexcept>

#include "dmv/par/par.hpp"
#include "dmv/sim/sim.hpp"
#include "dmv/sim/trace_plan.hpp"
#include "dmv/symbolic/batched.hpp"
#include "generate.hpp"

namespace dmv::sim {

namespace {

using ir::Edge;
using ir::Node;
using ir::NodeId;
using ir::NodeKind;
using ir::Subset;
using symbolic::BatchedCompiledExpr;
using symbolic::CompiledExpr;
using symbolic::LaneEnv;
using symbolic::SymbolTable;

// Lane width W of the batched innermost loops: eight iteration points
// per dispatch. The one-point loop is 1.8-4.3x slower on the served
// programs and no other width beats 8 on all of them
// (docs/simulation.md).
constexpr int kLaneWidth = 8;
static_assert(kLaneWidth <= symbolic::kMaxLaneWidth);

// -- Compiled state ----------------------------------------------------
//
// All map bounds and memlet subsets of a state are flattened ONCE to
// CompiledExpr over a single slot table; iteration then runs against a
// flat int64 environment with no SymbolMap copies and no per-element
// allocation. The test-side reference tracer (tests/reference_trace.hpp)
// walks the same order over SymbolMaps and must match bit for bit.

struct CompiledRange {
  CompiledExpr begin, end, step;
};
struct CompiledSubset {
  std::vector<CompiledRange> ranges;
  int container = -1;
};
struct CompiledEdge {
  CompiledSubset subset;
  /// Copy edges (access node to access node) only: the destination
  /// side — other_subset when given, else subset — on the destination
  /// container.
  CompiledSubset destination;
  /// Tasklet writes under wcr_reads: each element is read, then written.
  bool wcr_read = false;
};
struct CompiledMap {
  std::vector<int> param_slots;
  std::vector<CompiledRange> bounds;
};

// -- Lane-batched innermost loops --------------------------------------
//
// For a map whose scope is pure tasklets, the innermost loop advances
// kLaneWidth iteration points per step: every subset-bound expression
// that reads the innermost parameter is evaluated for all W lanes in
// one batched pass (symbolic/batched.hpp), expressions invariant in that
// parameter are evaluated once per loop entry, and the lanes are then
// drained in serial order through the ordinary emit path — so the event
// stream is bit-identical to the scalar loop. Expressions are
// deduplicated by interned node, which collapses e.g. every "k" bound of
// a stencil's memlets into one batched evaluation. Batches where any
// active lane would throw are replayed through the scalar engine so the
// exception (and every event before it) lands exactly where serial
// order puts it.

/// Where a subset bound's value lives during the drain: lane-varying
/// results sit in the worker's lane outputs (index * W + lane),
/// invariants in its invariant values (index).
struct BatchedRef {
  std::int32_t index = 0;
  bool varying = false;
};
struct BatchedRangeRef {
  BatchedRef begin, end, step;
};
/// One memlet of one tasklet, in emission order.
struct BatchedRun {
  int container = -1;
  bool is_write = false;
  bool wcr_read = false;
  std::vector<BatchedRangeRef> ranges;
};
struct BatchedTasklet {
  std::vector<BatchedRun> runs;
};
struct BatchedScope {
  bool enabled = false;
  int lane_slot = -1;  ///< Innermost map parameter's slot.
  std::vector<BatchedCompiledExpr> varying;
  std::vector<CompiledExpr> invariant;
  std::vector<BatchedTasklet> tasklets;
};

/// One state compiled under one binding: schedule, slot table, compiled
/// maps and edges, batched scopes, and the binding's slot values. Built
/// once per generation call and only read by the chunk workers, which
/// own nothing but their environment and scratch.
class CompiledState {
 public:
  CompiledState(const State& state,
                const std::map<std::string, int>& container_ids,
                const SymbolMap& symbols, const SimulationOptions& options)
      : state(state), schedule(state) {
    maps.assign(state.num_nodes(), {});
    edges.assign(state.edges().size(), {});
    for (const Node& node : state.nodes()) {
      if (node.kind != NodeKind::MapEntry) continue;
      CompiledMap& map = maps[node.id];
      map.param_slots.reserve(node.map.params.size());
      for (const std::string& param : node.map.params) {
        map.param_slots.push_back(table.intern(param));
      }
      map.bounds.reserve(node.map.ranges.size());
      for (const ir::Range& range : node.map.ranges) {
        map.bounds.push_back(compile_range(range));
      }
    }
    for (std::size_t e = 0; e < state.edges().size(); ++e) {
      const Edge& edge = state.edges()[e];
      if (edge.memlet.is_empty()) continue;
      CompiledEdge& compiled = edges[e];
      compiled.subset = compile_subset(edge.memlet.subset,
                                       container_ids.at(edge.memlet.data));
      compiled.wcr_read =
          edge.memlet.wcr != ir::Wcr::None && options.wcr_reads;
      const Node& src = state.node(edge.src);
      const Node& dst = state.node(edge.dst);
      if (src.kind == NodeKind::Access && dst.kind == NodeKind::Access) {
        const int dst_container = container_ids.at(dst.data);
        compiled.destination =
            edge.memlet.other_subset.ranges.empty()
                ? compile_subset(edge.memlet.subset, dst_container)
                : compile_subset(edge.memlet.other_subset, dst_container);
      }
    }
    batched.assign(state.num_nodes(), {});
    for (const Node& node : state.nodes()) {
      if (node.kind != NodeKind::MapEntry) continue;
      build_batched_scope(node);
    }
    table.bind(symbols, values, bound);
  }

  const State& state;
  ir::StateSchedule schedule;
  SymbolTable table;
  std::vector<CompiledMap> maps;      ///< Indexed by node id.
  std::vector<CompiledEdge> edges;    ///< Indexed by edge index.
  /// Indexed by node id; disabled entries run the scalar loop.
  std::vector<BatchedScope> batched;
  /// The binding in slot form: every worker's starting environment.
  std::vector<std::int64_t> values;
  std::vector<char> bound;

 private:
  CompiledRange compile_range(const ir::Range& range) {
    return {CompiledExpr::compile(range.begin, table),
            CompiledExpr::compile(range.end, table),
            CompiledExpr::compile(range.step, table)};
  }

  CompiledSubset compile_subset(const Subset& subset, int container) {
    CompiledSubset compiled;
    compiled.ranges.reserve(subset.ranges.size());
    for (const ir::Range& range : subset.ranges) {
      compiled.ranges.push_back(compile_range(range));
    }
    compiled.container = container;
    return compiled;
  }

  /// Analyzes `node`'s scope for lane batching; leaves the scope
  /// disabled (scalar fallback) on any construct the drain cannot
  /// reproduce exactly: nested maps, access-node copies, or an empty
  /// iteration signature.
  void build_batched_scope(const Node& node) {
    const CompiledMap& map = maps[node.id];
    if (map.bounds.empty()) return;
    BatchedScope& scope = batched[node.id];
    for (NodeId id : schedule.order) {
      const Node& child = state.node(id);
      if (child.scope_parent != node.id) continue;
      if (child.kind == NodeKind::MapExit) continue;
      if (child.kind != NodeKind::Tasklet) return;
    }
    const int lane_slot = map.param_slots.back();
    // Dedup by interned node: one evaluation per distinct expression,
    // shared by every memlet bound that names it.
    std::unordered_map<const symbolic::ExprNode*, BatchedRef> seen;
    auto ref_of = [&](const symbolic::Expr& expr) {
      const symbolic::ExprNode* key = &expr.node();
      auto it = seen.find(key);
      if (it != seen.end()) return it->second;
      CompiledExpr compiled = CompiledExpr::compile(expr, table);
      BatchedRef ref;
      if (compiled.reads_any({lane_slot})) {
        ref.varying = true;
        ref.index = static_cast<std::int32_t>(scope.varying.size());
        scope.varying.emplace_back(std::move(compiled));
      } else {
        ref.varying = false;
        ref.index = static_cast<std::int32_t>(scope.invariant.size());
        scope.invariant.push_back(std::move(compiled));
      }
      seen.emplace(key, ref);
      return ref;
    };
    auto add_run = [&](BatchedTasklet& tasklet, const Edge* edge,
                       bool is_write) {
      const CompiledEdge& compiled =
          edges[static_cast<std::size_t>(edge - state.edges().data())];
      BatchedRun run;
      run.container = compiled.subset.container;
      run.is_write = is_write;
      run.wcr_read = is_write && compiled.wcr_read;
      run.ranges.reserve(edge->memlet.subset.ranges.size());
      for (const ir::Range& range : edge->memlet.subset.ranges) {
        run.ranges.push_back(
            {ref_of(range.begin), ref_of(range.end), ref_of(range.step)});
      }
      tasklet.runs.push_back(std::move(run));
    };
    // Tasklets in schedule order, each memlet in execute_tasklet
    // order (in-edges then out-edges, empty memlets skipped) — the drain
    // replays this list verbatim.
    for (NodeId id : schedule.order) {
      const Node& child = state.node(id);
      if (child.scope_parent != node.id ||
          child.kind != NodeKind::Tasklet) {
        continue;
      }
      BatchedTasklet tasklet;
      for (const Edge* edge : schedule.in_adjacency[id]) {
        if (edge->memlet.is_empty()) continue;
        add_run(tasklet, edge, /*is_write=*/false);
      }
      for (const Edge* edge : schedule.out_adjacency[id]) {
        if (edge->memlet.is_empty()) continue;
        add_run(tasklet, edge, /*is_write=*/true);
      }
      scope.tasklets.push_back(std::move(tasklet));
    }
    scope.lane_slot = lane_slot;
    scope.enabled = true;
  }
};

/// Generates plan chunks of one compiled state, each starting
/// mid-iteration-space at the plan's absolute event position and
/// execution stamp, into the slice indices of a pre-sized list.
class ChunkWriter {
 public:
  ChunkWriter(const CompiledState& compiled,
              const std::vector<ConcreteLayout>& layouts, EventList& out)
      : compiled_(compiled), state_(compiled.state), layouts_(layouts),
        out_(out) {}

  void run(const TraceChunk& chunk) {
    env_values_ = compiled_.values;
    env_bound_ = compiled_.bound;
    position_ = chunk.event_offset;
    execution_ = chunk.execution_offset;
    chunk_limit_ = chunk.event_offset + chunk.event_count;
    const Node& node = state_.node(chunk.node);
    switch (node.kind) {
      case NodeKind::MapEntry:
        execute_map(node, chunk.outer_begin, chunk.outer_count);
        break;
      case NodeKind::Tasklet:
        execute_tasklet(node);
        break;
      case NodeKind::Access:
        execute_copies(node);
        break;
      case NodeKind::MapExit:
        break;
    }
    if (position_ != chunk.event_offset + chunk.event_count ||
        execution_ != chunk.execution_offset + chunk.execution_count) {
      throw std::logic_error(
          "simulate: trace plan chunk count mismatch (planner bug)");
    }
  }

 private:
  std::int64_t eval(const CompiledExpr& expr) {
    return expr.evaluate(env_values_.data(), env_bound_.data(),
                         &compiled_.table.names());
  }

  void execute_scope(NodeId scope) {
    for (NodeId id : compiled_.schedule.order) {
      const Node& node = state_.node(id);
      if (node.scope_parent != scope) continue;
      switch (node.kind) {
        case NodeKind::MapEntry:
          execute_map(node);
          break;
        case NodeKind::Tasklet:
          execute_tasklet(node);
          break;
        case NodeKind::Access:
          execute_copies(node);
          break;
        case NodeKind::MapExit:
          break;  // Writes are emitted at the producing tasklet.
      }
    }
  }

  /// Runs one entry into `node`'s map. A chunk passes the outermost
  /// dimension's ordinal slice [outer_begin, outer_begin + outer_count);
  /// `outer_count` < 0 runs every ordinal. Slices partitioning
  /// [0, trips) visit the identical point sequence as the whole map,
  /// which is what makes chunked output bit-identical.
  void execute_map(const Node& node, std::int64_t outer_begin = 0,
                   std::int64_t outer_count = -1) {
    const CompiledMap& map = compiled_.maps[node.id];
    // Save the parameter slots' outer bindings: a nested map may reuse a
    // parameter name, and the outer value must survive the inner scope
    // (a SymbolMap walk gets this from its per-scope env copies).
    std::vector<std::pair<std::int64_t, char>> saved;
    saved.reserve(map.param_slots.size());
    for (int slot : map.param_slots) {
      saved.emplace_back(env_values_[slot], env_bound_[slot]);
    }
    iterate_map(node, map, 0, outer_begin, outer_count);
    for (std::size_t p = 0; p < map.param_slots.size(); ++p) {
      env_values_[map.param_slots[p]] = saved[p].first;
      env_bound_[map.param_slots[p]] = saved[p].second;
    }
  }

  /// Runs dimensions [dim, end) over the ordinals [first, first + count)
  /// of dimension `dim` (count < 0: all of them). A zero-dimensional
  /// map runs its scope once.
  void iterate_map(const Node& node, const CompiledMap& map, std::size_t dim,
                   std::int64_t first = 0, std::int64_t count = -1) {
    if (dim == map.bounds.size()) {
      execute_scope(node.id);
      return;
    }
    // This and inner parameters are out of scope while evaluating this
    // dimension's bounds (matches a SymbolMap walk, whose env only holds
    // outer parameters here).
    for (std::size_t q = dim; q < map.param_slots.size(); ++q) {
      env_bound_[map.param_slots[q]] = 0;
    }
    const std::int64_t begin = eval(map.bounds[dim].begin);
    const std::int64_t end = eval(map.bounds[dim].end);
    const std::int64_t step = eval(map.bounds[dim].step);
    if (step <= 0) {
      throw std::invalid_argument("IterationSpace: non-positive step");
    }
    if (count < 0) count = end >= begin ? (end - begin) / step + 1 : 0;
    const std::int64_t start = begin + first * step;
    const BatchedScope& scope = compiled_.batched[node.id];
    if (dim + 1 == map.bounds.size() && scope.enabled) {
      execute_innermost_batched(node, scope, start, count, step);
      return;
    }
    const int slot = map.param_slots[dim];
    for (std::int64_t o = 0; o < count; ++o) {
      env_values_[slot] = start + o * step;
      env_bound_[slot] = 1;
      iterate_map(node, map, dim + 1);
    }
  }

  /// The scalar innermost loop over `count` points starting at `first`:
  /// the replay target when a batch would throw, and the exact loop the
  /// batched path must match byte for byte.
  void run_innermost_scalar(const Node& node, int slot, std::int64_t first,
                            std::int64_t count, std::int64_t step) {
    for (std::int64_t i = 0; i < count; ++i) {
      env_values_[slot] = first + i * step;
      env_bound_[slot] = 1;
      execute_scope(node.id);
    }
  }

  /// Runs `count` innermost iteration points (values first, first+step,
  /// ...) of a batchable scope, kLaneWidth lanes at a time. Bounds
  /// invariant in the lane parameter are evaluated once per entry (the
  /// scalar loop recomputes them per point against an identical
  /// environment, so the values — and any exception — are the same);
  /// lane-varying bounds are evaluated W lanes per dispatch; events then
  /// drain lane by lane through emit(), preserving serial order. The
  /// tail batch pads inactive lanes with the last active point's value —
  /// never out of the loop's domain — and ignores their faults.
  void execute_innermost_batched(const Node& node, const BatchedScope& scope,
                                 std::int64_t begin, std::int64_t count,
                                 std::int64_t step) {
    if (count <= 0) return;
    constexpr int W = kLaneWidth;
    const int slot = scope.lane_slot;
    invariant_vals_.resize(scope.invariant.size());
    try {
      for (std::size_t e = 0; e < scope.invariant.size(); ++e) {
        invariant_vals_[e] = eval(scope.invariant[e]);
      }
    } catch (...) {
      // An invariant bound throws on every point; the scalar loop
      // throws it at the first point, after zero events.
      run_innermost_scalar(node, slot, begin, count, step);
      return;
    }
    lane_env_.reset(env_values_, env_bound_, W);
    lane_out_.resize(scope.varying.size() * static_cast<std::size_t>(W));
    lane_param_.resize(static_cast<std::size_t>(W));
    for (std::int64_t base = 0; base < count; base += W) {
      const int active =
          static_cast<int>(std::min<std::int64_t>(W, count - base));
      for (int l = 0; l < W; ++l) {
        const std::int64_t o =
            base + std::min<std::int64_t>(l, active - 1);
        lane_param_[static_cast<std::size_t>(l)] = begin + o * step;
      }
      lane_env_.set_lanes(slot, lane_param_);
      std::uint32_t faults = 0;
      for (std::size_t e = 0; e < scope.varying.size(); ++e) {
        faults |= scope.varying[e].evaluate(
            lane_env_, lane_out_.data() + e * static_cast<std::size_t>(W));
      }
      const std::uint32_t active_mask =
          active >= 32 ? 0xffffffffu
                       : ((std::uint32_t{1} << active) - 1u);
      if ((faults & active_mask) != 0) {
        // Some active lane would throw: replay the batch scalar so the
        // exception fires at the exact point — after the exact events —
        // serial order produces.
        run_innermost_scalar(node, slot, begin + base * step, active, step);
        continue;
      }
      for (int l = 0; l < active; ++l) {
        drain_lane(scope, l);
      }
    }
    // Leave the parameter as the scalar loop does: bound to the last
    // point (re-unbound by the next bounds evaluation anyway).
    env_values_[slot] = begin + (count - 1) * step;
    env_bound_[slot] = 1;
  }

  /// Emits one lane's events: every tasklet's memlet runs in order,
  /// bounds read from the batched results, elements walked by the same
  /// odometer as enumerate_subset.
  void drain_lane(const BatchedScope& scope, int lane) {
    for (const BatchedTasklet& tasklet : scope.tasklets) {
      for (const BatchedRun& run : tasklet.runs) {
        auto& bounds = bounds_scratch_;
        bounds.clear();
        for (const BatchedRangeRef& range : run.ranges) {
          bounds.push_back({lane_value(range.begin, lane),
                            lane_value(range.end, lane),
                            lane_value(range.step, lane)});
        }
        layout::Index& cursor = cursor_scratch_;
        cursor.assign(bounds.size(), 0);
        for (std::size_t d = 0; d < bounds.size(); ++d) {
          cursor[d] = bounds[d][0];
        }
        if (bounds.empty()) {
          emit_run_element(run, cursor);
          continue;
        }
        for (;;) {
          emit_run_element(run, cursor);
          int d = static_cast<int>(bounds.size()) - 1;
          for (; d >= 0; --d) {
            cursor[d] += bounds[d][2];
            if (cursor[d] <= bounds[d][1]) break;
            cursor[d] = bounds[d][0];
          }
          if (d < 0) break;
        }
      }
      ++execution_;
    }
  }

  std::int64_t lane_value(const BatchedRef& ref, int lane) const {
    return ref.varying
               ? lane_out_[static_cast<std::size_t>(ref.index) * kLaneWidth +
                           lane]
               : invariant_vals_[static_cast<std::size_t>(ref.index)];
  }

  void emit_run_element(const BatchedRun& run, const layout::Index& element) {
    if (run.wcr_read) {
      emit(run.container, element, /*is_write=*/false);
    }
    emit(run.container, element, run.is_write);
  }

  // Evaluates a compiled subset's bounds into scratch and emits every
  // element directly, in row-major order, without allocating.
  template <typename PerElement>
  void enumerate_subset(const CompiledSubset& subset, PerElement&& emit_at) {
    auto& bounds = bounds_scratch_;
    bounds.clear();
    for (const CompiledRange& range : subset.ranges) {
      bounds.push_back(
          {eval(range.begin), eval(range.end), eval(range.step)});
    }
    layout::Index& cursor = cursor_scratch_;
    cursor.assign(bounds.size(), 0);
    for (std::size_t d = 0; d < bounds.size(); ++d) cursor[d] = bounds[d][0];
    if (bounds.empty()) {
      emit_at(cursor);
      return;
    }
    for (;;) {
      emit_at(cursor);
      int d = static_cast<int>(bounds.size()) - 1;
      for (; d >= 0; --d) {
        cursor[d] += bounds[d][2];
        if (cursor[d] <= bounds[d][1]) break;
        cursor[d] = bounds[d][0];
      }
      if (d < 0) break;
    }
  }

  const CompiledEdge& compiled_edge(const Edge* edge) const {
    return compiled_.edges[static_cast<std::size_t>(
        edge - state_.edges().data())];
  }

  void emit_subset(const Edge* edge, bool is_write) {
    const CompiledEdge& compiled = compiled_edge(edge);
    const bool wcr_read = is_write && compiled.wcr_read;
    const int container = compiled.subset.container;
    enumerate_subset(compiled.subset, [&](const layout::Index& element) {
      if (wcr_read) emit(container, element, /*is_write=*/false);
      emit(container, element, is_write);
    });
  }

  void execute_tasklet(const Node& node) {
    for (const Edge* edge : compiled_.schedule.in_adjacency[node.id]) {
      if (edge->memlet.is_empty()) continue;
      emit_subset(edge, /*is_write=*/false);
    }
    for (const Edge* edge : compiled_.schedule.out_adjacency[node.id]) {
      if (edge->memlet.is_empty()) continue;
      emit_subset(edge, /*is_write=*/true);
    }
    ++execution_;
  }

  void execute_copies(const Node& node) {
    for (const Edge* edge : compiled_.schedule.out_adjacency[node.id]) {
      if (edge->memlet.is_empty()) continue;
      if (state_.node(edge->dst).kind != NodeKind::Access) continue;
      const CompiledEdge& compiled = compiled_edge(edge);
      // Enumerate both sides (copies are rare and top-level; the
      // simplicity of materializing them beats a dual odometer).
      std::vector<layout::Index> sources;
      enumerate_subset(compiled.subset, [&](const layout::Index& element) {
        sources.push_back(element);
      });
      std::vector<layout::Index> destinations;
      enumerate_subset(compiled.destination,
                       [&](const layout::Index& element) {
                         destinations.push_back(element);
                       });
      if (sources.size() != destinations.size()) {
        throw std::logic_error("simulate: copy subset size mismatch on '" +
                               edge->memlet.data + "'");
      }
      for (std::size_t i = 0; i < sources.size(); ++i) {
        emit(compiled.subset.container, sources[i], /*is_write=*/false);
        emit(compiled.destination.container, destinations[i],
             /*is_write=*/true);
        ++execution_;
      }
    }
  }

  void emit(int container, const layout::Index& indices, bool is_write) {
    const ConcreteLayout& layout = layouts_[container];
    if (!layout.in_bounds(indices)) {
      std::string text;
      for (std::int64_t i : indices) text += std::to_string(i) + ",";
      throw std::out_of_range("simulate: access out of bounds on '" +
                              layout.name + "' at [" + text + "]");
    }
    // The plan fixed this chunk's event range up front, so emitting past
    // it means the planner under-counted — fail loudly instead of
    // corrupting a neighboring slice.
    if (position_ >= chunk_limit_) {
      throw std::logic_error(
          "simulate: trace plan chunk overflow (planner bug)");
    }
    AccessEvent event;
    event.container = container;
    event.flat = layout.flat_index(indices);
    event.is_write = is_write;
    event.execution = execution_;
    out_.set(static_cast<std::size_t>(position_++), event);
  }

  const CompiledState& compiled_;
  const State& state_;
  const std::vector<ConcreteLayout>& layouts_;
  EventList& out_;
  std::vector<std::int64_t> env_values_;
  std::vector<char> env_bound_;
  LaneEnv lane_env_;
  std::vector<std::int64_t> lane_out_;        ///< [varying index * W + lane].
  std::vector<std::int64_t> invariant_vals_;  ///< [invariant index].
  std::vector<std::int64_t> lane_param_;      ///< W point values, scratch.
  std::vector<std::array<std::int64_t, 3>> bounds_scratch_;
  layout::Index cursor_scratch_;
  /// Absolute index of the next event, and one past the chunk's slice.
  std::int64_t position_ = 0;
  std::int64_t chunk_limit_ = 0;
  std::int64_t execution_ = 0;
};

}  // namespace

int AccessTrace::container_id(const std::string& name) const {
  for (std::size_t i = 0; i < containers.size(); ++i) {
    if (containers[i] == name) return static_cast<int>(i);
  }
  throw std::out_of_range("AccessTrace: unknown container '" + name + "'");
}

const ConcreteLayout& AccessTrace::layout_of(const std::string& name) const {
  return layouts[container_id(name)];
}

AccessTrace simulate(const Sdfg& sdfg, const SymbolMap& symbols,
                     const SimulationOptions& options) {
  AccessTrace trace;
  simulate_into(sdfg, symbols, options, trace);
  return trace;
}

void simulate_into(const Sdfg& sdfg, const SymbolMap& symbols,
                   const SimulationOptions& options, AccessTrace& trace) {
  detail::simulate_plan_into(sdfg, symbols, options,
                             plan_trace(sdfg, symbols, options), trace);
}

void simulate_chunk(const Sdfg& sdfg, const SymbolMap& symbols,
                    const SimulationOptions& options,
                    const AccessTrace& header, const TraceChunk& chunk,
                    EventList& out) {
  detail::generate_chunks(sdfg, symbols, options, header, {&chunk, 1}, out);
}

void place_containers(const Sdfg& sdfg, const SymbolMap& symbols,
                      const SimulationOptions& options, AccessTrace& trace) {
  // sdfg.arrays() is an ordered map, so the container index assignment
  // is deterministic.
  layout::AddressSpace space(options.placement_alignment);
  for (const auto& [name, descriptor] : sdfg.arrays()) {
    ConcreteLayout layout = ConcreteLayout::from(descriptor, symbols);
    space.place(layout);
    trace.containers.push_back(name);
    trace.layouts.push_back(std::move(layout));
  }
}

namespace detail {

void simulate_plan_into(const Sdfg& sdfg, const SymbolMap& symbols,
                        const SimulationOptions& options,
                        const TracePlan& plan, AccessTrace& trace) {
  trace.containers.clear();
  trace.layouts.clear();
  trace.executions = 0;
  place_containers(sdfg, symbols, options, trace);
  // Size the columns once from the plan total (resize keeps the
  // capacity of an earlier, larger step); every chunk then writes only
  // its disjoint [event_offset, event_offset + event_count) slice.
  trace.events.resize(static_cast<std::size_t>(plan.total_events));
  generate_chunks(sdfg, symbols, options, trace, plan.chunks, trace.events);
  trace.executions = plan.total_executions;
}

void generate_chunks(const Sdfg& sdfg, const SymbolMap& symbols,
                     const SimulationOptions& options,
                     const AccessTrace& header,
                     std::span<const TraceChunk> chunks, EventList& out) {
  std::map<std::string, int> container_ids;
  for (std::size_t i = 0; i < header.containers.size(); ++i) {
    container_ids.emplace(header.containers[i], static_cast<int>(i));
  }
  // Each state the chunks touch is compiled once, here, and shared
  // read-only by every worker below.
  std::vector<std::optional<CompiledState>> compiled(sdfg.states().size());
  for (const TraceChunk& chunk : chunks) {
    if (static_cast<std::int64_t>(out.size()) <
        chunk.event_offset + chunk.event_count) {
      throw std::invalid_argument("simulate: output list too short");
    }
    std::optional<CompiledState>& slot =
        compiled.at(static_cast<std::size_t>(chunk.state));
    if (!slot) {
      slot.emplace(sdfg.states()[static_cast<std::size_t>(chunk.state)],
                   container_ids, symbols, options);
    }
  }
  par::parallel_for(chunks.size(), 1, [&](std::size_t begin, std::size_t end) {
    for (std::size_t c = begin; c < end; ++c) {
      const TraceChunk& chunk = chunks[c];
      ChunkWriter(*compiled[static_cast<std::size_t>(chunk.state)],
                  header.layouts, out)
          .run(chunk);
    }
  });
}

}  // namespace detail

}  // namespace dmv::sim
