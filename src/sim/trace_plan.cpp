#include "dmv/sim/trace_plan.hpp"

#include <algorithm>
#include <map>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>

#include "dmv/par/par.hpp"
#include "dmv/symbolic/expr.hpp"

namespace dmv::sim {

namespace {

using ir::Edge;
using ir::Node;
using ir::NodeId;
using ir::NodeKind;
using ir::Subset;

// Splitting a map finer than this many events per chunk buys no wall
// time but pays per-chunk setup (environment binding, map entry).
constexpr std::int64_t kMinChunkEvents = 4096;

// Event and execution counts are int64 everywhere downstream; a binding
// whose trace does not fit is refused before anything is sized.
std::int64_t checked_add(std::int64_t a, std::int64_t b) {
  std::int64_t sum = 0;
  if (__builtin_add_overflow(a, b, &sum)) {
    throw std::overflow_error("trace plan: event count overflows int64");
  }
  return sum;
}

std::int64_t checked_mul(std::int64_t a, std::int64_t b) {
  std::int64_t product = 0;
  if (__builtin_mul_overflow(a, b, &product)) {
    throw std::overflow_error("trace plan: event count overflows int64");
  }
  return product;
}

struct Counts {
  std::int64_t events = 0;
  std::int64_t executions = 0;
  Counts& operator+=(const Counts& other) {
    events = checked_add(events, other.events);
    executions = checked_add(executions, other.executions);
    return *this;
  }
  Counts times(std::int64_t n) const {
    return {checked_mul(events, n), checked_mul(executions, n)};
  }
};

// Trip count of [begin : end : step], step > 0.
std::int64_t range_trips(std::int64_t begin, std::int64_t end,
                         std::int64_t step) {
  if (end < begin) return 0;
  std::int64_t extent = 0;
  if (__builtin_sub_overflow(end, begin, &extent)) {
    throw std::overflow_error("trace plan: iteration count overflows int64");
  }
  return checked_add(extent / step, 1);
}

void check_map_step(std::int64_t step) {
  if (step <= 0) {
    throw std::invalid_argument("IterationSpace: non-positive step");
  }
}

// A subset step of 0 would make generation emit one element forever.
void check_subset_step(std::int64_t step) {
  if (step <= 0) {
    throw std::invalid_argument("simulate: non-positive subset step");
  }
}

// Elements enumerate_subset visits. The simulator's odometer always
// emits at least once per dimension (a degenerate dimension contributes
// its begin value), and an empty range list is one scalar element —
// hence max(1, trips) per dimension, not trips.
std::int64_t subset_size(const Subset& subset, const SymbolMap& env) {
  std::int64_t n = 1;
  for (const ir::Range& range : subset.ranges) {
    const std::int64_t begin = range.begin.evaluate(env);
    const std::int64_t end = range.end.evaluate(env);
    const std::int64_t step = range.step.evaluate(env);
    check_subset_step(step);
    n = checked_mul(
        n, std::max<std::int64_t>(1, range_trips(begin, end, step)));
  }
  return n;
}

class Planner {
 public:
  Planner(const Sdfg& sdfg, const SymbolMap& symbols,
          const SimulationOptions& options)
      : sdfg_(sdfg), symbols_(symbols), options_(options) {}

  void build(int max_chunks, TracePlan& plan) {
    const auto& states = sdfg_.states();
    for (std::size_t s = 0; s < states.size(); ++s) {
      const State& state = states[s];
      schedule_ = ir::StateSchedule(state);
      for (NodeId id : schedule_.order) {
        const Node& node = state.node(id);
        if (node.scope_parent != ir::kNoNode) continue;
        switch (node.kind) {
          case NodeKind::MapEntry:
            plan_map(static_cast<int>(s), state, node, max_chunks, plan);
            break;
          case NodeKind::Tasklet:
          case NodeKind::Access:
            add_chunk(static_cast<int>(s), id, 0, 1,
                      bound_node_counts(state, node, symbols_), plan);
            break;
          case NodeKind::MapExit:
            break;
        }
      }
    }
  }

 private:
  void add_chunk(int state_index, NodeId node, std::int64_t outer_begin,
                 std::int64_t outer_count, const Counts& counts,
                 TracePlan& plan) {
    if (counts.events == 0 && counts.executions == 0) return;
    TraceChunk chunk;
    chunk.state = state_index;
    chunk.node = node;
    chunk.outer_begin = outer_begin;
    chunk.outer_count = outer_count;
    chunk.event_offset = plan.total_events;
    chunk.event_count = counts.events;
    chunk.execution_offset = plan.total_executions;
    chunk.execution_count = counts.executions;
    plan.chunks.push_back(chunk);
    plan.total_events = checked_add(plan.total_events, counts.events);
    plan.total_executions =
        checked_add(plan.total_executions, counts.executions);
  }

  // -- Chunk partitioning of one top-level map ------------------------

  void plan_map(int state_index, const State& state, const Node& node,
                int max_chunks, TracePlan& plan) {
    const ir::MapInfo& map = node.map;
    SymbolMap env = symbols_;
    if (map.ranges.empty()) {
      // A zero-dimensional map runs its body once; one chunk covering
      // the single synthetic outer ordinal.
      add_chunk(state_index, node.id, 0, 1, scope_counts(state, node.id, env),
                plan);
      return;
    }
    // As in generation, the map's own parameters are unbound while its
    // bounds are evaluated, whatever the binding holds under that name.
    for (const std::string& param : map.params) env.erase(param);
    const ir::Range& outer = map.ranges[0];
    const std::int64_t begin = outer.begin.evaluate(env);
    const std::int64_t end = outer.end.evaluate(env);
    const std::int64_t step = outer.step.evaluate(env);
    check_map_step(step);
    const std::int64_t n0 = range_trips(begin, end, step);
    if (n0 == 0) return;  // Zero-trip map: nothing emitted.
    const std::int64_t goal = std::max(1, max_chunks);
    // A chunk closes at the first outer ordinal where its events reach
    // the target.
    auto chunk_target = [goal](std::int64_t map_events) {
      const std::int64_t share =
          map_events == 0 ? 0 : (map_events - 1) / goal + 1;
      return std::max(share, kMinChunkEvents);
    };

    // Every outer ordinal has the same counts when the remaining extents
    // are invariant in the map's own parameters: the chunk boundaries
    // then follow by arithmetic, at a cost set by the chunk count.
    const std::set<std::string> own(map.params.begin(), map.params.end());
    if (std::optional<Counts> per =
            analytic_map_counts(state, node, 1, env, own)) {
      const std::int64_t target = chunk_target(per->times(n0).events);
      const std::int64_t ordinals =
          per->events == 0 ? n0
                           : std::min(n0, (target - 1) / per->events + 1);
      for (std::int64_t first = 0; first < n0;) {
        const std::int64_t count = std::min(ordinals, n0 - first);
        add_chunk(state_index, node.id, first, count, per->times(count),
                  plan);
        first += count;
      }
      return;
    }

    // Otherwise (triangular/tiled outer bounds) each ordinal is counted
    // by exact enumeration.
    std::vector<Counts> per(static_cast<std::size_t>(n0));
    Counts map_total;
    for (std::int64_t o = 0; o < n0; ++o) {
      env[map.params[0]] = begin + o * step;
      per[static_cast<std::size_t>(o)] =
          map_counts_from_dim(state, node, 1, env);
      map_total += per[static_cast<std::size_t>(o)];
    }
    const std::int64_t target = chunk_target(map_total.events);
    std::int64_t chunk_begin = 0;
    Counts acc;
    for (std::int64_t o = 0; o < n0; ++o) {
      acc += per[static_cast<std::size_t>(o)];
      if (acc.events >= target || o + 1 == n0) {
        add_chunk(state_index, node.id, chunk_begin, o + 1 - chunk_begin, acc,
                  plan);
        chunk_begin = o + 1;
        acc = Counts{};
      }
    }
  }

  // -- Counting one tasklet firing or one copy node ------------------

  static const Subset& copy_destination(const Edge& edge) {
    return edge.memlet.other_subset.ranges.empty() ? edge.memlet.subset
                                                   : edge.memlet.other_subset;
  }

  /// Counts of a tasklet firing or of an access node's copies, given the
  /// element count of each subset (nullopt when one is not known).
  template <typename SizeOf>
  std::optional<Counts> node_counts(const State& state, const Node& node,
                                    SizeOf&& size_of) const {
    Counts counts;
    if (node.kind == NodeKind::Tasklet) {
      for (const Edge* edge : schedule_.in_adjacency[node.id]) {
        if (edge->memlet.is_empty()) continue;
        const std::optional<std::int64_t> n = size_of(edge->memlet.subset);
        if (!n) return std::nullopt;
        counts.events = checked_add(counts.events, *n);
      }
      // A written element is one event, or two when WCR outputs also
      // emit their read.
      for (const Edge* edge : schedule_.out_adjacency[node.id]) {
        if (edge->memlet.is_empty()) continue;
        const std::optional<std::int64_t> n = size_of(edge->memlet.subset);
        if (!n) return std::nullopt;
        const bool wcr_read =
            edge->memlet.wcr != ir::Wcr::None && options_.wcr_reads;
        counts.events =
            checked_add(counts.events, wcr_read ? checked_mul(*n, 2) : *n);
      }
      counts.executions = 1;
      return counts;
    }
    for (const Edge* edge : schedule_.out_adjacency[node.id]) {
      if (edge->memlet.is_empty()) continue;
      if (state.node(edge->dst).kind != NodeKind::Access) continue;
      const std::optional<std::int64_t> n_src = size_of(edge->memlet.subset);
      const std::optional<std::int64_t> n_dst =
          size_of(copy_destination(*edge));
      if (!n_src || !n_dst) return std::nullopt;
      if (*n_src != *n_dst) {
        throw std::logic_error("simulate: copy subset size mismatch on '" +
                               edge->memlet.data + "'");
      }
      counts += Counts{checked_mul(*n_src, 2), *n_src};
    }
    return counts;
  }

  /// Counts of a tasklet or copy node under a fully bound env.
  Counts bound_node_counts(const State& state, const Node& node,
                           const SymbolMap& env) const {
    return *node_counts(state, node, [&env](const Subset& subset) {
      return std::optional<std::int64_t>(subset_size(subset, env));
    });
  }

  // -- Exact counting (enumerating fallback) --------------------------

  Counts scope_counts(const State& state, NodeId scope, SymbolMap& env) const {
    Counts total;
    for (NodeId id : schedule_.order) {
      const Node& node = state.node(id);
      if (node.scope_parent != scope) continue;
      switch (node.kind) {
        case NodeKind::MapEntry:
          total += map_counts(state, node, env);
          break;
        case NodeKind::Tasklet:
        case NodeKind::Access:
          total += bound_node_counts(state, node, env);
          break;
        case NodeKind::MapExit:
          break;
      }
    }
    return total;
  }

  /// Counts of one entry into a nested map. Its parameters shadow any
  /// outer binding of the same name until the map exits.
  Counts map_counts(const State& state, const Node& node,
                    SymbolMap& env) const {
    SymbolMap shadowed;
    for (const std::string& param : node.map.params) {
      if (auto it = env.find(param); it != env.end()) {
        shadowed.insert(*it);
        env.erase(it);
      }
    }
    const Counts counts = map_counts_from_dim(state, node, 0, env);
    env.insert(shadowed.begin(), shadowed.end());
    return counts;
  }

  /// Counts of the map with dims [0, dim) bound in env and the rest
  /// unbound. Tries the analytic product for the remaining dims first;
  /// otherwise binds this dim's parameter value by value and recurses.
  Counts map_counts_from_dim(const State& state, const Node& node,
                             std::size_t dim, SymbolMap& env) const {
    const ir::MapInfo& map = node.map;
    if (dim == map.ranges.size()) return scope_counts(state, node.id, env);
    const std::set<std::string> unbound(map.params.begin() + dim,
                                        map.params.end());
    if (std::optional<Counts> analytic =
            analytic_map_counts(state, node, dim, env, unbound)) {
      return *analytic;
    }
    const ir::Range& range = map.ranges[dim];
    const std::int64_t begin = range.begin.evaluate(env);
    const std::int64_t end = range.end.evaluate(env);
    const std::int64_t step = range.step.evaluate(env);
    check_map_step(step);
    Counts total;
    const std::string& param = map.params[dim];
    const std::int64_t trips = range_trips(begin, end, step);
    for (std::int64_t o = 0; o < trips; ++o) {
      env[param] = begin + o * step;
      total += map_counts_from_dim(state, node, dim + 1, env);
    }
    env.erase(param);
    return total;
  }

  // -- Analytic counting ----------------------------------------------
  //
  // A count is analytic when it does not depend on the parameters in
  // `unbound` (the enclosing maps' still-unbound parameters): the trip
  // count of [begin : end : step] is derived from extent = end - begin,
  // which SIMPLIFIES the parameters away for the ubiquitous
  // A[i, j:j+2]-style subsets even though begin/end individually depend
  // on them. Everything else falls back to enumeration.

  static std::optional<std::int64_t> analytic_trips(
      const ir::Range& range, const SymbolMap& env,
      const std::set<std::string>& unbound,
      void (*check_step)(std::int64_t)) {
    if (symbolic::depends_on_any(range.step, unbound)) return std::nullopt;
    const symbolic::Expr extent = symbolic::simplified(range.end - range.begin);
    if (symbolic::depends_on_any(extent, unbound)) return std::nullopt;
    const auto e = extent.try_evaluate(env);
    const auto s = range.step.try_evaluate(env);
    if (!e || !s) return std::nullopt;
    check_step(*s);
    return range_trips(0, *e, *s);
  }

  static std::optional<std::int64_t> analytic_subset_size(
      const Subset& subset, const SymbolMap& env,
      const std::set<std::string>& unbound) {
    std::int64_t n = 1;
    for (const ir::Range& range : subset.ranges) {
      const auto trips =
          analytic_trips(range, env, unbound, check_subset_step);
      if (!trips) return std::nullopt;
      n = checked_mul(n, std::max<std::int64_t>(1, *trips));
    }
    return n;
  }

  std::optional<Counts> analytic_scope_counts(
      const State& state, NodeId scope, const SymbolMap& env,
      const std::set<std::string>& unbound) const {
    Counts total;
    for (NodeId id : schedule_.order) {
      const Node& node = state.node(id);
      if (node.scope_parent != scope) continue;
      std::optional<Counts> counts;
      switch (node.kind) {
        case NodeKind::MapEntry: {
          std::set<std::string> inner = unbound;
          inner.insert(node.map.params.begin(), node.map.params.end());
          counts = analytic_map_counts(state, node, 0, env, inner);
          break;
        }
        case NodeKind::Tasklet:
        case NodeKind::Access:
          counts = node_counts(state, node, [&](const Subset& subset) {
            return analytic_subset_size(subset, env, unbound);
          });
          break;
        case NodeKind::MapExit:
          continue;
      }
      if (!counts) return std::nullopt;
      total += *counts;
    }
    return total;
  }

  /// Counts of dims [dim, end) of the map and its body. A dimension with
  /// zero trips ends the count: generation never reaches the dimensions
  /// and the body behind it, so neither may raise.
  std::optional<Counts> analytic_map_counts(
      const State& state, const Node& node, std::size_t dim,
      const SymbolMap& env, const std::set<std::string>& unbound) const {
    std::int64_t trips = 1;
    for (std::size_t d = dim; d < node.map.ranges.size(); ++d) {
      const auto t =
          analytic_trips(node.map.ranges[d], env, unbound, check_map_step);
      if (!t) return std::nullopt;
      if (*t == 0) return Counts{};
      trips = checked_mul(trips, *t);
    }
    const std::optional<Counts> body =
        analytic_scope_counts(state, node.id, env, unbound);
    if (!body) return std::nullopt;
    return body->times(trips);
  }

  const Sdfg& sdfg_;
  const SymbolMap& symbols_;
  const SimulationOptions& options_;
  ir::StateSchedule schedule_;
};

}  // namespace

void plan_trace_into(const Sdfg& sdfg, const SymbolMap& symbols,
                     const SimulationOptions& options, int max_chunks_per_map,
                     TracePlan& plan) {
  plan.total_events = 0;
  plan.total_executions = 0;
  plan.chunks.clear();
  int max_chunks = max_chunks_per_map > 0 ? max_chunks_per_map
                                          : par::num_threads() * 4;
  if (max_chunks < 1) max_chunks = 1;
  Planner(sdfg, symbols, options).build(max_chunks, plan);
}

TracePlan plan_trace(const Sdfg& sdfg, const SymbolMap& symbols,
                     const SimulationOptions& options, int max_chunks_per_map) {
  TracePlan plan;
  plan_trace_into(sdfg, symbols, options, max_chunks_per_map, plan);
  return plan;
}

namespace {

/// Dependency set of one top-level node's scope (see the header for the
/// inclusion rules). `outer_chunked` marks map nodes whose outermost
/// dimension is the plan's chunking axis (its END bound is excluded).
std::set<std::string> scope_dependencies(const Sdfg& sdfg, const State& state,
                                         NodeId top, bool outer_chunked) {
  std::set<std::string> reached;
  auto visit = [&reached](const symbolic::Expr& e) {
    e.collect_free_symbols(reached);
  };
  auto visit_ranges = [&visit](const std::vector<ir::Range>& ranges) {
    for (const ir::Range& range : ranges) {
      visit(range.begin);
      visit(range.end);
      visit(range.step);
    }
  };
  // Scope membership: a node is in the scope when `top` is on its
  // scope_parent chain (or is the node itself).
  auto in_scope = [&state, top](NodeId id) {
    for (NodeId current = id; current != ir::kNoNode;
         current = state.node(current).scope_parent) {
      if (current == top) return true;
    }
    return false;
  };
  std::set<std::string> containers;
  for (const Node& node : state.nodes()) {
    if (!in_scope(node.id)) continue;
    if (node.kind == NodeKind::MapEntry) {
      if (node.id == top && outer_chunked && !node.map.ranges.empty()) {
        const ir::Range& outer = node.map.ranges[0];
        visit(outer.begin);
        visit(outer.step);
        for (std::size_t d = 1; d < node.map.ranges.size(); ++d) {
          visit(node.map.ranges[d].begin);
          visit(node.map.ranges[d].end);
          visit(node.map.ranges[d].step);
        }
      } else {
        visit_ranges(node.map.ranges);
      }
    }
  }
  for (const Edge& edge : state.edges()) {
    if (edge.memlet.is_empty()) continue;
    if (!in_scope(edge.src) && !in_scope(edge.dst)) continue;
    // Only event-GENERATING memlets matter: tasklet reads/writes and
    // access-to-access copies. Map-boundary routing memlets (whose
    // subsets typically span the whole container, e.g. 0:K-1) never
    // emit events — including them would pull the slider symbol into
    // every chunk's dependency set and forfeit the clean-chunk reuse
    // that the fixed-capacity pattern is designed to enable.
    const Node& src = state.node(edge.src);
    const Node& dst = state.node(edge.dst);
    const bool tasklet_edge = src.kind == NodeKind::Tasklet ||
                              dst.kind == NodeKind::Tasklet;
    const bool copy_edge =
        src.kind == NodeKind::Access && dst.kind == NodeKind::Access;
    if (!tasklet_edge && !copy_edge) continue;
    visit_ranges(edge.memlet.subset.ranges);
    visit_ranges(edge.memlet.other_subset.ranges);
    containers.insert(edge.memlet.data);
    if (dst.kind == NodeKind::Access && !dst.data.empty()) {
      containers.insert(dst.data);
    }
  }
  // Strides and start offsets determine every event's flat index; SHAPE
  // does not (for an in-bounds program it only sizes the placed buffer,
  // which is the metric layer's layout concern, handled separately by
  // the delta engine's layout-clean check). Leaving shape out is what
  // keeps a fixed-capacity slider workload — extents bound by a capacity
  // symbol, the slider only in loop ranges — fully clean.
  for (const std::string& name : containers) {
    const ir::DataDescriptor& descriptor = sdfg.array(name);
    for (const symbolic::Expr& stride : descriptor.strides) visit(stride);
    visit(descriptor.start_offset);
  }
  // Map parameters are bound by their maps and are not tunable unless
  // the program also declares the name. Every other free symbol is, even
  // an undeclared one (the ir::validate rule), so a program that skipped
  // validation cannot read a symbol the delta engine does not watch.
  std::set<std::string> params;
  for (const Node& node : state.nodes()) {
    if (node.kind != NodeKind::MapEntry) continue;
    params.insert(node.map.params.begin(), node.map.params.end());
  }
  std::set<std::string> result;
  for (const std::string& symbol : reached) {
    if (sdfg.symbols().contains(symbol) || !params.contains(symbol)) {
      result.insert(symbol);
    }
  }
  return result;
}

}  // namespace

std::vector<std::set<std::string>> chunk_dependencies(const Sdfg& sdfg,
                                                      const TracePlan& plan) {
  std::vector<std::set<std::string>> deps;
  deps.reserve(plan.chunks.size());
  // Chunks of the same (state, node) share one set; cache by key.
  std::map<std::pair<int, NodeId>, std::set<std::string>> cache;
  for (const TraceChunk& chunk : plan.chunks) {
    const std::pair<int, NodeId> key{chunk.state, chunk.node};
    auto it = cache.find(key);
    if (it == cache.end()) {
      const State& state =
          sdfg.states().at(static_cast<std::size_t>(chunk.state));
      const Node& node = state.node(chunk.node);
      const bool outer_chunked = node.kind == NodeKind::MapEntry;
      it = cache
               .emplace(key, scope_dependencies(sdfg, state, chunk.node,
                                                outer_chunked))
               .first;
    }
    deps.push_back(it->second);
  }
  return deps;
}

}  // namespace dmv::sim
