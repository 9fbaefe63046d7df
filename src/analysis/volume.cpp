#include <algorithm>
#include <cmath>
#include <set>

#include "dmv/analysis/analysis.hpp"

namespace dmv::analysis {

using ir::Node;
using ir::NodeKind;

NodeId edge_scope(const State& state, const Edge& edge) {
  const Node& src = state.node(edge.src);
  const Node& dst = state.node(edge.dst);
  // Entry -> body edges run inside the map the entry opens.
  if (src.kind == NodeKind::MapEntry && dst.scope_parent == src.id) {
    return src.id;
  }
  // Exit -> outside edges run in the scope surrounding the map.
  if (src.kind == NodeKind::MapExit && src.paired != ir::kNoNode) {
    return state.node(src.paired).scope_parent;
  }
  return src.scope_parent;
}

Expr scope_iterations(const State& state, NodeId scope) {
  Expr total = 1;
  NodeId current = scope;
  while (current != ir::kNoNode) {
    const Node& entry = state.node(current);
    for (const ir::Range& range : entry.map.ranges) {
      total = total * range.size();
    }
    current = entry.scope_parent;
  }
  return total;
}

Expr total_edge_elements(const State& state, const Edge& edge) {
  if (edge.memlet.is_empty()) return 0;
  return edge.memlet.effective_volume() *
         scope_iterations(state, edge_scope(state, edge));
}

Expr total_edge_bytes(const Sdfg& sdfg, const State& state,
                      const Edge& edge) {
  if (edge.memlet.is_empty()) return 0;
  return total_edge_elements(state, edge) *
         sdfg.array(edge.memlet.data).element_size;
}

std::vector<EdgeVolume> edge_volumes(const Sdfg& sdfg) {
  std::vector<EdgeVolume> result;
  for (int s = 0; s < static_cast<int>(sdfg.states().size()); ++s) {
    const State& state = sdfg.states()[s];
    for (std::size_t e = 0; e < state.edges().size(); ++e) {
      const Edge& edge = state.edges()[e];
      if (edge.memlet.is_empty()) continue;
      EdgeVolume volume;
      volume.ref = EdgeRef{s, e};
      volume.data = edge.memlet.data;
      volume.elements = total_edge_elements(state, edge);
      volume.bytes = volume.elements * sdfg.array(edge.memlet.data).element_size;
      result.push_back(std::move(volume));
    }
  }
  return result;
}

Expr total_movement_bytes(const Sdfg& sdfg) {
  Expr total = 0;
  for (const EdgeVolume& volume : edge_volumes(sdfg)) {
    total = total + volume.bytes;
  }
  return total;
}

std::set<std::string> simulation_symbols(const Sdfg& sdfg) {
  std::set<std::string> reached;
  auto visit = [&](const Expr& e) { e.collect_free_symbols(reached); };
  auto visit_ranges = [&](const std::vector<ir::Range>& ranges) {
    for (const ir::Range& range : ranges) {
      visit(range.begin);
      visit(range.end);
      visit(range.step);
    }
  };
  for (const auto& [name, descriptor] : sdfg.arrays()) {
    for (const Expr& extent : descriptor.shape) visit(extent);
    for (const Expr& stride : descriptor.strides) visit(stride);
    visit(descriptor.start_offset);
  }
  // A map parameter is bound by its map, so it is dropped per state
  // unless the program also declares it. Any other free symbol is
  // tunable, declared or not: the ir::validate rule, so a validated
  // program gets exactly its reached declared symbols.
  std::set<std::string> result = reached;
  for (const State& state : sdfg.states()) {
    std::set<std::string> params;
    reached.clear();
    for (const ir::Node& node : state.nodes()) {
      if (node.kind == ir::NodeKind::MapEntry) {
        visit_ranges(node.map.ranges);
        params.insert(node.map.params.begin(), node.map.params.end());
      }
    }
    for (const Edge& edge : state.edges()) {
      if (edge.memlet.is_empty()) continue;
      visit_ranges(edge.memlet.subset.ranges);
      visit_ranges(edge.memlet.other_subset.ranges);
      visit(edge.memlet.volume);
    }
    for (const std::string& symbol : reached) {
      if (sdfg.symbols().contains(symbol) || !params.contains(symbol)) {
        result.insert(symbol);
      }
    }
  }
  return result;
}

MovementDiff diff_movement(const Sdfg& before, const Sdfg& after,
                           const SymbolMap& symbols) {
  auto per_container = [&](const Sdfg& sdfg) {
    std::map<std::string, double> totals;
    for (const EdgeVolume& volume : edge_volumes(sdfg)) {
      totals[volume.data] +=
          static_cast<double>(volume.bytes.evaluate(symbols));
    }
    return totals;
  };
  const std::map<std::string, double> before_totals = per_container(before);
  const std::map<std::string, double> after_totals = per_container(after);

  MovementDiff diff;
  std::set<std::string> names;
  for (const auto& [name, bytes] : before_totals) names.insert(name);
  for (const auto& [name, bytes] : after_totals) names.insert(name);
  for (const std::string& name : names) {
    ContainerDelta delta;
    delta.data = name;
    auto b = before_totals.find(name);
    auto a = after_totals.find(name);
    if (b != before_totals.end()) delta.before_bytes = b->second;
    if (a != after_totals.end()) delta.after_bytes = a->second;
    diff.before_total += delta.before_bytes;
    diff.after_total += delta.after_bytes;
    diff.containers.push_back(std::move(delta));
  }
  std::sort(diff.containers.begin(), diff.containers.end(),
            [](const ContainerDelta& a, const ContainerDelta& b) {
              return std::abs(a.delta()) > std::abs(b.delta());
            });
  return diff;
}

std::vector<RankedEdge> rank_edges_by_volume(const Sdfg& sdfg,
                                             const SymbolMap& symbols) {
  std::vector<RankedEdge> ranked;
  for (const EdgeVolume& volume : edge_volumes(sdfg)) {
    RankedEdge entry;
    entry.ref = volume.ref;
    entry.data = volume.data;
    entry.bytes = static_cast<double>(volume.bytes.evaluate(symbols));
    ranked.push_back(std::move(entry));
  }
  std::sort(ranked.begin(), ranked.end(),
            [](const RankedEdge& a, const RankedEdge& b) {
              return a.bytes > b.bytes;
            });
  return ranked;
}

}  // namespace dmv::analysis
