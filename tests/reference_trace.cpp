#include "reference_trace.hpp"

#include <array>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "dmv/ir/graph.hpp"
#include "dmv/workloads/workloads.hpp"

namespace dmv::sim {
namespace {

using ir::Edge;
using ir::Node;
using ir::NodeId;
using ir::NodeKind;
using ir::State;
using ir::Subset;
using symbolic::SymbolMap;

// Every element index tuple of a subset evaluated under `env`, in
// row-major order. A zero-dimensional subset is one empty tuple.
std::vector<layout::Index> subset_elements(const Subset& subset,
                                           const SymbolMap& env) {
  std::vector<std::array<std::int64_t, 3>> bounds;
  for (const ir::Range& range : subset.ranges) {
    bounds.push_back({range.begin.evaluate(env), range.end.evaluate(env),
                      range.step.evaluate(env)});
  }
  if (bounds.empty()) return {layout::Index{}};
  std::vector<layout::Index> elements;
  layout::Index cursor(bounds.size());
  for (std::size_t d = 0; d < bounds.size(); ++d) cursor[d] = bounds[d][0];
  for (;;) {
    elements.push_back(cursor);
    int d = static_cast<int>(bounds.size()) - 1;
    for (; d >= 0; --d) {
      cursor[d] += bounds[d][2];
      if (cursor[d] <= bounds[d][1]) break;
      cursor[d] = bounds[d][0];
    }
    if (d < 0) break;
  }
  return elements;
}

class Walker {
 public:
  Walker(const SimulationOptions& options, AccessTrace& trace)
      : options_(options), trace_(trace) {}

  void run_state(const State& state, const SymbolMap& env) {
    schedule_ = ir::StateSchedule(state);
    scope(state, ir::kNoNode, env);
  }

  std::int64_t executions() const { return execution_; }

 private:
  void scope(const State& state, NodeId parent, const SymbolMap& env) {
    for (NodeId id : schedule_.order) {
      const Node& node = state.node(id);
      if (node.scope_parent != parent) continue;
      switch (node.kind) {
        case NodeKind::MapEntry: {
          const IterationSpace space = IterationSpace::from(node.map, env);
          space.for_each([&](std::span<const std::int64_t> values) {
            SymbolMap inner = env;
            for (std::size_t p = 0; p < space.params.size(); ++p) {
              inner[space.params[p]] = values[p];
            }
            scope(state, node.id, inner);
          });
          break;
        }
        case NodeKind::Tasklet:
          tasklet(node, env);
          break;
        case NodeKind::Access:
          copies(state, node, env);
          break;
        case NodeKind::MapExit:
          break;  // Writes are emitted at the producing tasklet.
      }
    }
  }

  void tasklet(const Node& node, const SymbolMap& env) {
    for (const Edge* edge : schedule_.in_adjacency[node.id]) {
      if (!edge->memlet.is_empty()) memlet(edge->memlet, env, false);
    }
    for (const Edge* edge : schedule_.out_adjacency[node.id]) {
      if (!edge->memlet.is_empty()) memlet(edge->memlet, env, true);
    }
    ++execution_;
  }

  void memlet(const ir::Memlet& m, const SymbolMap& env, bool is_write) {
    const int container = trace_.container_id(m.data);
    const bool wcr_read =
        is_write && m.wcr != ir::Wcr::None && options_.wcr_reads;
    for (const layout::Index& element : subset_elements(m.subset, env)) {
      if (wcr_read) emit(container, element, false);
      emit(container, element, is_write);
    }
  }

  // Access -> access copy edges: element-wise read of the source subset
  // paired with a write of the destination subset.
  void copies(const State& state, const Node& node, const SymbolMap& env) {
    for (const Edge* edge : schedule_.out_adjacency[node.id]) {
      if (edge->memlet.is_empty()) continue;
      const Node& dst = state.node(edge->dst);
      if (dst.kind != NodeKind::Access) continue;
      const Subset& dst_subset = edge->memlet.other_subset.ranges.empty()
                                     ? edge->memlet.subset
                                     : edge->memlet.other_subset;
      const std::vector<layout::Index> sources =
          subset_elements(edge->memlet.subset, env);
      const std::vector<layout::Index> destinations =
          subset_elements(dst_subset, env);
      if (sources.size() != destinations.size()) {
        throw std::logic_error("reference_trace: copy subset size mismatch");
      }
      const int src = trace_.container_id(edge->memlet.data);
      const int dst_id = trace_.container_id(dst.data);
      for (std::size_t i = 0; i < sources.size(); ++i) {
        emit(src, sources[i], false);
        emit(dst_id, destinations[i], true);
        ++execution_;
      }
    }
  }

  void emit(int container, const layout::Index& indices, bool is_write) {
    const ConcreteLayout& layout = trace_.layouts[container];
    if (!layout.in_bounds(indices)) {
      throw std::out_of_range("reference_trace: access out of bounds on '" +
                              layout.name + "'");
    }
    AccessEvent event;
    event.container = container;
    event.flat = layout.flat_index(indices);
    event.is_write = is_write;
    event.execution = execution_;
    trace_.events.push_back(event);
  }

  const SimulationOptions& options_;
  AccessTrace& trace_;
  ir::StateSchedule schedule_;
  std::int64_t execution_ = 0;
};

}  // namespace

AccessTrace reference_trace(const ir::Sdfg& sdfg,
                            const symbolic::SymbolMap& symbols,
                            const SimulationOptions& options) {
  AccessTrace trace;
  place_containers(sdfg, symbols, options, trace);
  Walker walker(options, trace);
  for (const State& state : sdfg.states()) walker.run_state(state, symbols);
  trace.executions = walker.executions();
  return trace;
}

std::vector<CaseStudyStage> case_study_stages() {
  using workloads::BertStage;
  using workloads::HdiffVariant;
  std::vector<CaseStudyStage> stages;
  const symbolic::SymbolMap hdiff_binding{{"I", 16}, {"J", 16}, {"K", 5}};
  const std::pair<const char*, HdiffVariant> hdiff_variants[] = {
      {"hdiff baseline", HdiffVariant::Baseline},
      {"hdiff reshaped", HdiffVariant::Reshaped},
      {"hdiff reordered", HdiffVariant::Reordered},
      {"hdiff padded", HdiffVariant::Padded}};
  for (const auto& [label, variant] : hdiff_variants) {
    stages.push_back({label, workloads::hdiff(variant), hdiff_binding});
  }
  const std::pair<const char*, BertStage> bert_stages[] = {
      {"bert baseline", BertStage::Baseline},
      {"bert fused1", BertStage::Fused1},
      {"bert fused2", BertStage::Fused2}};
  for (const auto& [label, stage] : bert_stages) {
    stages.push_back(
        {label, workloads::bert_encoder(stage), workloads::bert_small()});
  }
  stages.push_back({"matmul", workloads::matmul(),
                    symbolic::SymbolMap{{"M", 24}, {"N", 24}, {"K", 16}}});
  return stages;
}

}  // namespace dmv::sim
