#pragma once

// Fused metric pipeline.
//
// The interactive loop recomputes EVERY derived metric per slider
// position. Run as separate passes, each metric re-walks the event
// vector and several re-derive cache-line ids from scratch; the sweep
// also reallocates every trace buffer and per-line table at every
// binding. MetricPipeline drives the per-event metric consumers (access
// counts, stack distances, miss classification, exact cache simulation,
// element distance stats, physical movement) through one metric engine
// that derives each event's cache line once, splits the pass into
// segments and cache-set partitions when the trace is large enough, and
// keeps its tables in an arena that survives across bindings of a
// sweep.
//
// Three drivers share the engine: run(trace) over an existing trace,
// run(sdfg) over a trace simulated into the arena's reusable buffer, and
// run_delta(), which patches and resumes a checkpoint between slider
// steps (docs/incremental.md).
//
// Bit-identical contract: every output equals the corresponding
// standalone pass (count_accesses, stack_distances, classify_misses,
// element_distance_stats, simulate_cache, physical_movement) bit for
// bit, in every driver, at any thread count. Fusion and partitioning
// are pure performance changes — enforced by pipeline_test,
// metric_merge_test and the CI ablation smoke job.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "dmv/sim/sim.hpp"

namespace dmv::sim {

/// Which consumers the pipeline drives. Distances are computed whenever
/// any consumer needs them (misses, element stats, movement, or
/// keep_distances).
struct PipelineConfig {
  int line_size = 64;
  /// Per-element read/write counts (count_accesses).
  bool counts = true;
  /// Cold/capacity classification at this LRU threshold (in lines);
  /// 0 disables (classify_misses).
  std::int64_t miss_threshold_lines = 0;
  /// Store the per-event distance vector (O(events) memory — leave off
  /// unless the raw distances are needed).
  bool keep_distances = false;
  /// Per-container ElementDistanceStats (element_distance_stats).
  bool element_stats = false;
  /// Exact set-associative LRU simulation (simulate_cache).
  std::optional<CacheConfig> cache;
  /// Physical movement estimate; requires miss_threshold_lines > 0
  /// (physical_movement).
  bool movement = false;

  bool needs_distances() const {
    return miss_threshold_lines > 0 || keep_distances || element_stats ||
           movement;
  }
};

/// Outputs of one pass. Only the consumers enabled in the config
/// are populated; the rest stay default-constructed. The result owns
/// its payload (no aliasing into pipeline arenas) — safe to retain,
/// share, and cache beyond the pipeline's lifetime.
struct PipelineResult {
  std::int64_t events = 0;
  std::int64_t executions = 0;
  /// Container names, index-aligned with every per-container vector
  /// below — lets consumers resolve names without holding the trace.
  std::vector<std::string> containers;
  /// Index of a named container, or -1 when absent.
  int container_index(const std::string& name) const;
  AccessCounts counts;
  StackDistanceResult distances;
  MissReport misses;
  std::vector<ElementDistanceStats> element_stats;  ///< Per container.
  CacheSimResult cache;
  MovementEstimate movement;
};

/// How run_delta() satisfied one step — the observability record of the
/// delta recomputation engine (surfaced through session::SessionStats
/// and the bench harness).
struct DeltaOutcome {
  enum class Path {
    kCold,        ///< Full simulate + full metric replay.
    kNoChange,    ///< Binding identical to the checkpoint; result reused.
    kChunkDelta,  ///< Clean chunks spliced, dirty chunks re-simulated.
  };
  Path path = Path::kCold;
  /// Chunk-delta only: true when the metric state was RESUMED from the
  /// checkpoint (append-only step) instead of replayed from event 0.
  bool resumed = false;
  std::int64_t chunks_total = 0;
  std::int64_t chunks_clean = 0;
  std::int64_t chunks_dirty = 0;
  /// Why the engine fell back to kCold (static string, never null).
  const char* reason = "";
};

/// Wall-clock breakdown of the most recent run/run_delta call —
/// observability only (surfaced through session::SessionStats and
/// dmv_serve `stats`), never part of a result or cache key.
struct PhaseTimings {
  /// Trace generation / patching ms (0 for run(trace)).
  double simulate_ms = 0.0;
  /// Metric consumption + finalize ms.
  double metrics_ms = 0.0;
  /// Largest metric worker-partition count used (1 = the engine ran as
  /// one segment: a small trace, one worker, a pool task, or an
  /// append-only resume).
  int partitions = 1;
};

/// Stable 64-bit fingerprint of a config, folding in every field that
/// can change an output. Two configs with equal fingerprints produce
/// identical results for the same trace; the session layer uses it as
/// the metric-config component of its cache keys.
std::uint64_t fingerprint(const PipelineConfig& config);

/// Approximate heap footprint of a result's payload (vectors; the
/// struct itself excluded). Used for cache byte budgeting — an estimate,
/// not an allocator-exact measurement.
std::size_t approx_size_bytes(const PipelineResult& result);

/// Drives every enabled metric in one fused pass over a trace.
///
/// Ownership: the pipeline owns an internal arena (trace buffer, the
/// engine's last-seen table, Fenwick tree, cache sets and tallies) that
/// persists across run calls — that reuse is the point. Per-event
/// scratch (line ids, distances, segment partials) lives only for the
/// duration of one call. Returned PipelineResults own their
/// payload outright and never alias the arena; they stay valid after the
/// pipeline is destroyed.
///
/// Thread safety: a MetricPipeline is NOT thread-safe — run/run_delta
/// mutate the shared arena, so give each concurrent caller its
/// own instance (the session prefetcher keeps one per pool slot). Calls
/// are internally serial; results are bit-identical at any
/// dmv::par::num_threads() setting.
class MetricPipeline {
 public:
  explicit MetricPipeline(PipelineConfig config = {});
  ~MetricPipeline();
  MetricPipeline(MetricPipeline&&) noexcept;
  MetricPipeline& operator=(MetricPipeline&&) noexcept;
  MetricPipeline(const MetricPipeline&) = delete;
  MetricPipeline& operator=(const MetricPipeline&) = delete;

  const PipelineConfig& config() const { return config_; }

  /// One pass over an existing trace. Line bounds widen to the observed
  /// ids, so hand-built traces with out-of-buffer addresses are exact.
  PipelineResult run(const AccessTrace& trace);

  /// Simulates into the arena's reusable trace buffer, then runs the
  /// pass. One binding of a materialized sweep.
  PipelineResult run(const Sdfg& sdfg, const SymbolMap& symbols,
                     const SimulationOptions& options = {});

  /// Delta recomputation: bit-identical to run(sdfg, symbols, options)
  /// but reuses the previous call's checkpoint when only `symbols`
  /// changed. The engine plans the trace at fine fixed granularity,
  /// classifies each chunk clean/dirty against the binding delta
  /// (chunk_dependencies), splices clean event slices from the
  /// checkpointed trace, re-simulates only dirty chunks, and reruns the
  /// metric pass — resuming it in place for append-only steps.
  /// `program_version` is the caller's fingerprint of the Sdfg structure
  /// (the session layer passes its program hash); a mismatch, an options
  /// change, or a delta that dirties every chunk falls back to the cold
  /// path, which plans once, generates that plan and keeps it as the
  /// next checkpoint's plan. A binding the planner refuses throws before
  /// any event is generated (plan_trace). Interleaving run() calls
  /// invalidates the checkpoint. Outcome reporting via `outcome` is
  /// optional.
  PipelineResult run_delta(const Sdfg& sdfg, std::uint64_t program_version,
                           const SymbolMap& symbols,
                           const SimulationOptions& options = {},
                           DeltaOutcome* outcome = nullptr);

  /// Phase breakdown of the most recent run/run_delta call (see
  /// PhaseTimings).
  const PhaseTimings& last_timings() const { return timings_; }

 private:
  PipelineConfig config_;
  struct Arena;
  std::unique_ptr<Arena> arena_;
  PhaseTimings timings_;
};

}  // namespace dmv::sim
