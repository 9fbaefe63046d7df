#pragma once

// Local-view simulation (paper §V).
//
// Once the user parameterizes a program region (binds its symbols to
// small concrete values), the iteration space of every map becomes
// enumerable, every memlet subset becomes evaluable, and the exact data
// access pattern of the region follows — no execution or profiling of the
// real program required. This module produces that access trace and the
// derived metrics the paper visualizes:
//
//   * per-element access counts (the flattened-time heatmap of Fig 4b),
//   * related-access queries (Fig 4c),
//   * stack/reuse distance at cache-line granularity (Fig 5b), computed
//     in O(log n) per access with a Fenwick-tree formulation of Olken's
//     algorithm,
//   * cold/capacity cache-miss classification with a user-adjustable
//     capacity threshold assuming a fully-associative LRU cache (§V-F),
//   * an exact set-associative LRU simulator used as ground truth to
//     validate that assumption,
//   * estimated physical data movement (misses x line size) that refines
//     the logical volumes of the global view (Fig 5c, Fig 7).
//
// Ownership: every result type here (AccessTrace, StackDistanceResult,
// MissReport, ...) is a self-contained value — it owns its vectors and
// never aliases the inputs it was computed from.
//
// Thread safety & determinism: the pass functions are pure — concurrent
// calls on distinct traces are safe; concurrent calls on the SAME trace
// are safe because traces are only read. Passes that parallelize
// internally do so through dmv::par's block-ordered reduce, so every
// output is bit-identical at any dmv::par::num_threads() setting; see
// dmv/par/par.hpp for the contract and determinism_test for the gate.

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <limits>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "dmv/ir/sdfg.hpp"
#include "dmv/layout/layout.hpp"
#include "dmv/symbolic/compiled.hpp"

namespace dmv::sim {

using ir::Sdfg;
using ir::State;
using layout::ConcreteLayout;
using symbolic::SymbolMap;

struct IterationSpace;

namespace detail {

/// Bounds of an IterationSpace compiled to slot-addressed form
/// (symbolic::CompiledExpr) so iteration evaluates them without map
/// lookups. Bounds independent of the space's own parameters are
/// evaluated once on first use and cached — the loop-invariant hoisting
/// that keeps tiled inner maps from re-evaluating outer-constant bounds
/// at every outer point.
class CompiledSpaceBounds {
 public:
  explicit CompiledSpaceBounds(const IterationSpace& space);

  struct Triple {
    std::int64_t begin = 0;
    std::int64_t end = 0;
    std::int64_t step = 1;
  };
  /// Evaluates dimension `dim`'s bounds under the currently bound outer
  /// parameters. Throws UnboundSymbolError / std::domain_error exactly
  /// where the symbolic evaluation would.
  Triple eval(std::size_t dim);
  /// Binds the dim's parameter for inner dimensions.
  void set_param(std::size_t dim, std::int64_t value);

 private:
  struct Dim {
    symbolic::CompiledExpr begin, end, step;
    bool invariant = false;  ///< Independent of the space's own params.
    bool cached = false;
    Triple cache;
  };
  symbolic::SymbolTable table_;
  std::vector<std::int64_t> values_;
  std::vector<char> bound_;
  std::vector<int> param_slots_;
  std::vector<Dim> dims_;
};

}  // namespace detail

/// Concrete iteration space of a map under a symbol binding. Bounds are
/// kept symbolic and evaluated per nesting level DURING iteration, with
/// outer parameters already bound — this is what lets inner ranges
/// depend on outer parameters, as tiled maps produce (e.g. the inner
/// range [i_tile*8 : i_tile*8 + 7] of transforms::tile_map). Iteration
/// compiles the bounds once (slot-addressed evaluation, invariant
/// hoisting) instead of re-evaluating Expr trees per point.
struct IterationSpace {
  std::vector<std::string> params;
  std::vector<ir::Range> ranges;  ///< Symbolic, inclusive ends.
  SymbolMap base;                 ///< The binding iteration starts from.

  /// Number of points. Computed arithmetically from the evaluated bounds
  /// when no range depends on the space's own parameters; falls back to
  /// enumeration for dependent (e.g. triangular or tiled) ranges.
  std::int64_t size() const;
  /// Calls fn(std::span<const int64_t> values) for every point, outer
  /// parameter slowest (lexicographic order).
  template <typename Fn>
  void for_each(Fn&& fn) const {
    detail::CompiledSpaceBounds bounds(*this);
    std::vector<std::int64_t> values(params.size());
    iterate(0, values, bounds, fn);
  }

  static IterationSpace from(const ir::MapInfo& info,
                             const SymbolMap& symbols);

 private:
  template <typename Fn>
  void iterate(std::size_t dim, std::vector<std::int64_t>& values,
               detail::CompiledSpaceBounds& bounds, Fn&& fn) const {
    if (dim == params.size()) {
      fn(std::span<const std::int64_t>(values));
      return;
    }
    const auto [begin, end, step] = bounds.eval(dim);
    if (step <= 0) {
      throw std::invalid_argument("IterationSpace: non-positive step");
    }
    for (std::int64_t v = begin; v <= end; v += step) {
      values[dim] = v;
      bounds.set_param(dim, v);
      iterate(dim + 1, values, bounds, fn);
    }
  }
};

/// One element-granularity access in the simulated execution. This is
/// the VALUE type call sites iterate with; storage is columnar
/// (EventList), so the struct only exists transiently.
struct AccessEvent {
  std::int32_t container = 0;   ///< Index into AccessTrace::layouts.
  std::int64_t flat = 0;        ///< Logical row-major element index.
  bool is_write = false;
  /// Global order of the event. Not stored: EventList's operator[] and
  /// iterator fill it with the event's index, and push_back/set ignore
  /// it.
  std::int64_t timestep = 0;
  std::int64_t execution = 0;   ///< Tasklet-execution instance id.
};

/// Structure-of-arrays event storage: four resident columns, 21 B/event
/// (container 4, flat 8, is_write 1, execution 8). Metric passes touch
/// only the columns they need (stack distance reads container+flat), and
/// a column never pulls its neighbors into cache. The container
/// interface mirrors std::vector<AccessEvent> —
/// size/reserve/push_back/operator[]/range-for — so call sites iterate
/// it like a vector; operator[] and the iterator gather an AccessEvent
/// by value, with `timestep` set to the index.
class EventList {
 public:
  std::size_t size() const { return flat_.size(); }
  bool empty() const { return flat_.empty(); }

  void reserve(std::size_t n) {
    container_.reserve(n);
    flat_.reserve(n);
    is_write_.reserve(n);
    execution_.reserve(n);
  }

  void clear() {
    container_.clear();
    flat_.clear();
    is_write_.clear();
    execution_.clear();
  }

  void push_back(const AccessEvent& event) {
    container_.push_back(event.container);
    flat_.push_back(event.flat);
    is_write_.push_back(event.is_write ? 1 : 0);
    execution_.push_back(event.execution);
  }

  /// Sizes every column to exactly n events (new slots zero-filled).
  /// The parallel trace writer sizes the list from the plan's total ONCE,
  /// then chunks fill disjoint slices via set() — no writer ever grows
  /// the columns, so concurrent slice stores never invalidate each other.
  void resize(std::size_t n) {
    container_.resize(n);
    flat_.resize(n);
    is_write_.resize(n);
    execution_.resize(n);
  }

  /// Copies `count` events from `src` (starting at `src_begin`) into
  /// this list at `dst_begin`, adding `execution_delta` to the copied
  /// execution stamps. Both lists must already be sized; the payload
  /// columns (container, flat, is_write) are copied verbatim. This is
  /// the delta engine's clean-chunk splice: a chunk whose events are
  /// unchanged but whose position in the stream shifted is rebased with
  /// one column-wide add instead of re-simulation (timesteps follow the
  /// position, so they need no rebasing).
  void assign_range(const EventList& src, std::size_t src_begin,
                    std::size_t dst_begin, std::size_t count,
                    std::int64_t execution_delta) {
    std::copy_n(src.container_.begin() + src_begin, count,
                container_.begin() + dst_begin);
    std::copy_n(src.flat_.begin() + src_begin, count,
                flat_.begin() + dst_begin);
    std::copy_n(src.is_write_.begin() + src_begin, count,
                is_write_.begin() + dst_begin);
    for (std::size_t i = 0; i < count; ++i) {
      execution_[dst_begin + i] =
          src.execution_[src_begin + i] + execution_delta;
    }
  }

  /// Overwrites event i (must be < size()). Writing DISTINCT indices
  /// from different threads is safe: each store touches only element i
  /// of each pre-sized column.
  void set(std::size_t i, const AccessEvent& event) {
    container_[i] = event.container;
    flat_[i] = event.flat;
    is_write_[i] = event.is_write ? 1 : 0;
    execution_[i] = event.execution;
  }

  AccessEvent operator[](std::size_t i) const {
    AccessEvent event;
    event.container = container_[i];
    event.flat = flat_[i];
    event.is_write = is_write_[i] != 0;
    event.timestep = static_cast<std::int64_t>(i);
    event.execution = execution_[i];
    return event;
  }

  class const_iterator {
   public:
    using iterator_category = std::random_access_iterator_tag;
    using value_type = AccessEvent;
    using difference_type = std::ptrdiff_t;
    using pointer = void;
    using reference = AccessEvent;

    const_iterator() = default;
    const_iterator(const EventList* list, std::size_t index)
        : list_(list), index_(index) {}
    AccessEvent operator*() const { return (*list_)[index_]; }
    const_iterator& operator++() { ++index_; return *this; }
    const_iterator operator++(int) { return {list_, index_++}; }
    const_iterator& operator--() { --index_; return *this; }
    const_iterator& operator+=(difference_type d) { index_ += d; return *this; }
    friend const_iterator operator+(const_iterator it, difference_type d) {
      return {it.list_, it.index_ + d};
    }
    friend difference_type operator-(const const_iterator& a,
                                     const const_iterator& b) {
      return static_cast<difference_type>(a.index_) -
             static_cast<difference_type>(b.index_);
    }
    friend bool operator==(const const_iterator& a, const const_iterator& b) {
      return a.index_ == b.index_;
    }
    friend bool operator!=(const const_iterator& a, const const_iterator& b) {
      return a.index_ != b.index_;
    }

   private:
    const EventList* list_ = nullptr;
    std::size_t index_ = 0;
  };
  const_iterator begin() const { return {this, 0}; }
  const_iterator end() const { return {this, size()}; }

  /// Column views for the hot metric passes.
  std::span<const std::int32_t> container_column() const { return container_; }
  std::span<const std::int64_t> flat_column() const { return flat_; }
  std::span<const std::uint8_t> write_column() const { return is_write_; }
  std::span<const std::int64_t> execution_column() const { return execution_; }

  /// Bytes the events occupy in the four columns (21 per event); the
  /// spare capacity a growing list reserves is not counted.
  std::size_t used_bytes() const {
    return size() * (sizeof(std::int32_t) + sizeof(std::int64_t) +
                     sizeof(std::uint8_t) + sizeof(std::int64_t));
  }

 private:
  std::vector<std::int32_t> container_;
  std::vector<std::int64_t> flat_;
  std::vector<std::uint8_t> is_write_;
  std::vector<std::int64_t> execution_;
};

/// Full simulated access pattern of a parameterized program.
struct AccessTrace {
  std::vector<std::string> containers;       ///< Names, index-aligned.
  std::vector<ConcreteLayout> layouts;       ///< Placed in address space.
  EventList events;                          ///< Ordered by timestep.
  std::int64_t executions = 0;               ///< Total tasklet instances.

  int container_id(const std::string& name) const;
  const ConcreteLayout& layout_of(const std::string& name) const;
};

struct SimulationOptions {
  /// Base-address alignment used when placing containers (bytes).
  std::int64_t placement_alignment = 64;
  /// Include read events for WCR (accumulating) outputs. The paper counts
  /// a WCR update as one access; keep false to match.
  bool wcr_reads = false;
};

/// Simulates every state of the SDFG under the given parameter binding
/// and returns the exact access trace (§V-C "iteration space simulation").
/// Generation is plan-first: plan_trace (sim/trace_plan.hpp) computes
/// every chunk's exact event/execution offsets, the event columns are
/// sized to the plan's total once, and each chunk writes its disjoint
/// slice — over the dmv::par pool, or one after another at
/// num_threads()==1 and inside a pool task. Innermost loops of
/// pure-tasklet map scopes advance eight iteration points per step
/// (symbolic/batched.hpp). Output is bit-identical at any thread count
/// (see docs/simulation.md). A binding the planner refuses throws
/// before any event is generated.
AccessTrace simulate(const Sdfg& sdfg, const SymbolMap& symbols,
                     const SimulationOptions& options = {});

/// Same, but (re)filling a caller-owned trace: containers/layouts/events
/// are cleared and rewritten while the event columns KEEP their
/// capacity. This is the sweep-arena entry point — one trace buffer
/// serves every slider position instead of reallocating per binding.
/// After a throw the trace's contents are unspecified.
void simulate_into(const Sdfg& sdfg, const SymbolMap& symbols,
                   const SimulationOptions& options, AccessTrace& trace);

/// Places every container exactly as simulate() does (deterministic
/// sdfg.arrays() order, options.placement_alignment), APPENDING to
/// trace.containers / trace.layouts — callers clear first. Builds the
/// trace header the delta engine and the chunk writers need without
/// generating a single event.
void place_containers(const Sdfg& sdfg, const SymbolMap& symbols,
                      const SimulationOptions& options, AccessTrace& trace);

/// One-shot materialization of per-event cache-line ids plus the dense
/// line-id range each container spans, computed once per
/// (trace, line_size) and shared by every consumer that needs line ids
/// (stack distance, cache simulation, line-utilization stats) instead of
/// each pass re-deriving layout.unflatten + byte_address per event.
/// Containers are placed at non-overlapping addresses, so
/// [first_line, first_line + line_span) is a dense id range: consumers
/// can index per-line state with a flat array instead of a hash map.
struct LineTable {
  int line_size = 64;
  std::int64_t first_line = 0;  ///< Lowest line id any container spans.
  std::int64_t line_span = 0;   ///< Dense ids cover [first, first+span).
  struct ContainerRange {
    std::int64_t first = 0;  ///< First line id of the container.
    std::int64_t count = 0;  ///< Lines the container's buffer spans.
  };
  std::vector<ContainerRange> per_container;
  std::vector<std::int64_t> lines;  ///< Per-event global cache-line id.
};

LineTable build_line_table(const AccessTrace& trace, int line_size);
/// Arena variant: reuses `out.lines` capacity across sweep steps.
void build_line_table(const AccessTrace& trace, int line_size,
                      LineTable& out);

/// Per-element access counts per container; the flattened-time heatmap.
struct AccessCounts {
  /// [container][flat logical index] -> count.
  std::vector<std::vector<std::int64_t>> reads;
  std::vector<std::vector<std::int64_t>> writes;
  std::vector<std::int64_t> total(int container) const;
};
AccessCounts count_accesses(const AccessTrace& trace);

/// Related-access query (Fig 4c): accumulate, over every tasklet
/// execution that touches one of the selected elements, all accesses that
/// execution makes to OTHER containers/elements. Multiple selected
/// elements stack additively, as in the paper's click-to-stack UI.
struct Selection {
  int container = 0;
  std::vector<std::int64_t> flats;
};
AccessCounts related_accesses(const AccessTrace& trace,
                              const std::vector<Selection>& selected);

/// Stack distance (reuse distance) per event at cache-line granularity:
/// the number of DISTINCT cache lines referenced since the previous
/// reference to this event's line; kInfiniteDistance for first-ever
/// references (cold). Accessing a line "references" every element in it,
/// matching §V-E.
inline constexpr std::int64_t kInfiniteDistance =
    std::numeric_limits<std::int64_t>::max();

struct StackDistanceResult {
  int line_size = 64;
  /// Parallel to trace.events.
  std::vector<std::int64_t> distances;
};

StackDistanceResult stack_distances(const AccessTrace& trace, int line_size);
/// Same, consuming a prebuilt LineTable (no per-event address
/// re-derivation; per-line state lives in a dense array over the
/// table's line span).
StackDistanceResult stack_distances(const AccessTrace& trace,
                                    const LineTable& table);
/// Reference O(n^2) implementation (list scan), kept for validation and
/// for the algorithmic ablation benchmark.
StackDistanceResult stack_distances_naive(const AccessTrace& trace,
                                          int line_size);

/// Distance statistics per element for the Fig 5b heatmap. A value of
/// kInfiniteDistance appears for never-reused elements.
struct ElementDistanceStats {
  std::vector<std::int64_t> min;
  std::vector<std::int64_t> median;
  std::vector<std::int64_t> max;
  std::vector<std::int64_t> cold_count;  ///< Infinite-distance accesses.
};
ElementDistanceStats element_distance_stats(const AccessTrace& trace,
                                            const StackDistanceResult& result,
                                            int container);

/// All finite distances + cold count for one element or a whole
/// container, for the details-panel histogram of Fig 5b.
struct DistanceHistogram {
  std::vector<std::int64_t> distances;  ///< Finite distances, ascending.
  std::int64_t cold_misses = 0;
};
DistanceHistogram distance_histogram(const AccessTrace& trace,
                                     const StackDistanceResult& result,
                                     int container,
                                     std::int64_t flat = -1);

/// Cold/capacity miss classification from stack distances (§V-F). The
/// threshold is in cache lines: an access whose distance is >= threshold
/// is a capacity miss under LRU. Conflict misses are deliberately not
/// modeled (fully-associative assumption).
struct MissStats {
  std::int64_t cold = 0;
  std::int64_t capacity = 0;
  std::int64_t hits = 0;
  std::int64_t misses() const { return cold + capacity; }
  std::int64_t accesses() const { return cold + capacity + hits; }
};

struct MissReport {
  std::int64_t threshold_lines = 0;
  std::vector<MissStats> per_container;
  /// [container][flat] -> predicted misses for that element's accesses.
  std::vector<std::vector<std::int64_t>> element_misses;
  MissStats total;
};
MissReport classify_misses(const AccessTrace& trace,
                           const StackDistanceResult& distances,
                           std::int64_t threshold_lines);

/// Exact cache simulation used as ground truth for the §V-F assumption.
struct CacheConfig {
  int line_size = 64;
  std::int64_t total_size = 32 * 1024;
  /// Associativity; 0 = fully associative.
  int ways = 8;
};
struct CacheSimResult {
  CacheConfig config;
  std::vector<MissStats> per_container;  ///< cold vs non-cold split.
  MissStats total;
};
CacheSimResult simulate_cache(const AccessTrace& trace,
                              const CacheConfig& config);
/// Same, consuming a prebuilt LineTable. Throws std::invalid_argument if
/// table.line_size != config.line_size.
CacheSimResult simulate_cache(const AccessTrace& trace,
                              const CacheConfig& config,
                              const LineTable& table);

/// Spatial-locality statistics at tasklet-execution granularity, the
/// metric behind the Fig 8c padding step: for each execution (one stencil
/// application), how many distinct cache lines does its access
/// neighborhood on `container` touch, and what fraction of each touched
/// line's elements does the SAME execution use? Post-padding aligns rows
/// to lines, so neighborhoods stop pulling in unrelated previous-row
/// elements and utilization rises.
struct IterationLineStats {
  double mean_lines_per_execution = 0;
  /// Mean over executions of (elements accessed) / (line capacity in
  /// elements * lines touched).
  double mean_line_utilization = 0;
  std::int64_t executions = 0;
};
IterationLineStats iteration_line_stats(const AccessTrace& trace,
                                        int container, int line_size);
/// Same, consuming a prebuilt LineTable (must match line_size).
IterationLineStats iteration_line_stats(const AccessTrace& trace,
                                        int container,
                                        const LineTable& table);

/// Physical data-movement estimate (§V-F): predicted misses times line
/// size, per container and total — the refinement shown on the Fig 5c and
/// Fig 7 overlays.
struct MovementEstimate {
  int line_size = 64;
  std::vector<std::int64_t> bytes_per_container;
  std::int64_t total_bytes = 0;
};
MovementEstimate physical_movement(const AccessTrace& trace,
                                   const MissReport& report, int line_size);

/// Per-edge refinement of the GLOBAL view's movement overlay (§V-F:
/// "The resulting value can be used to refine the heatmap on the data
/// movement overlay", Fig 5c): each non-empty edge gets the physical
/// byte estimate of its container, apportioned by the edge's share of
/// that container's logical traffic. Keyed by edge index, ready for
/// GraphRenderOptions::edge_heat after normalization.
std::map<std::size_t, std::int64_t> physical_edge_bytes(
    const State& state, const AccessTrace& trace, const MissReport& report,
    const SymbolMap& symbols, int line_size);

}  // namespace dmv::sim
