#include "dmv/sim/pipeline.hpp"

#include <chrono>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "dmv/symbolic/expr.hpp"

#include "dmv/sim/trace_plan.hpp"
#include "dmv/util/fnv1a.hpp"
#include "generate.hpp"
#include "metric_detail.hpp"
#include "metric_merge.hpp"

namespace dmv::sim {

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

// All buffers that survive across run() calls. A slider sweep pays for
// the trace columns and the metric engine's tables once instead of once
// per binding.
struct ArenaState {
  AccessTrace trace;        ///< run(sdfg) materialization target.
  /// The metric engine's resumable state of the most recent pass.
  merge::Live live;

  // --- run_delta() checkpoint -------------------------------------------
  // `trace` doubles as the checkpoint's front event buffer; the fields
  // below remember which (program, options, binding) produced it and the
  // fine-grained chunk plan that indexes it, so an append-only step can
  // resume `live` where the previous one stopped. Any public run() call
  // clobbers `live` and therefore invalidates the checkpoint.
  bool ckpt_valid = false;
  std::uint64_t ckpt_program = 0;   ///< Caller's SDFG-structure version.
  std::uint64_t ckpt_options = 0;   ///< Output-relevant options fingerprint.
  SymbolMap ckpt_binding;
  TracePlan ckpt_plan;              ///< Delta-granularity plan of `trace`.
  TracePlan scratch_plan;           ///< New-binding plan (swapped on commit).
  EventList back_events;            ///< Patch target (swapped with trace).
  AccessTrace scratch_header;       ///< New-binding container placement.
  bool live_valid = false;          ///< `live` is a pass over `trace`.
};

}  // namespace

struct MetricPipeline::Arena : ArenaState {};

int PipelineResult::container_index(const std::string& name) const {
  for (std::size_t c = 0; c < containers.size(); ++c) {
    if (containers[c] == name) return static_cast<int>(c);
  }
  return -1;
}

std::uint64_t fingerprint(const PipelineConfig& config) {
  // FNV-1a over every output-relevant field.
  std::uint64_t hash = util::kFnvOffset;
  auto mix = [&hash](std::uint64_t value) { hash = util::fnv1a(hash, value); };
  mix(static_cast<std::uint64_t>(config.line_size));
  mix(config.counts ? 1 : 0);
  mix(static_cast<std::uint64_t>(config.miss_threshold_lines));
  mix(config.keep_distances ? 1 : 0);
  mix(config.element_stats ? 1 : 0);
  mix(config.cache.has_value() ? 1 : 0);
  if (config.cache) {
    mix(static_cast<std::uint64_t>(config.cache->line_size));
    mix(static_cast<std::uint64_t>(config.cache->total_size));
    mix(static_cast<std::uint64_t>(config.cache->ways));
  }
  mix(config.movement ? 1 : 0);
  return hash;
}

std::size_t approx_size_bytes(const PipelineResult& result) {
  std::size_t bytes = 0;
  for (const std::string& name : result.containers) {
    bytes += name.size() + sizeof(std::string);
  }
  auto nested = [&bytes](const std::vector<std::vector<std::int64_t>>& v) {
    bytes += v.size() * sizeof(std::vector<std::int64_t>);
    for (const auto& inner : v) bytes += inner.size() * sizeof(std::int64_t);
  };
  nested(result.counts.reads);
  nested(result.counts.writes);
  bytes += result.distances.distances.size() * sizeof(std::int64_t);
  bytes += result.misses.per_container.size() * sizeof(MissStats);
  nested(result.misses.element_misses);
  for (const ElementDistanceStats& stats : result.element_stats) {
    bytes += (stats.min.size() + stats.median.size() + stats.max.size() +
              stats.cold_count.size()) *
             sizeof(std::int64_t);
  }
  bytes += result.element_stats.size() * sizeof(ElementDistanceStats);
  bytes += result.cache.per_container.size() * sizeof(MissStats);
  bytes += result.movement.bytes_per_container.size() * sizeof(std::int64_t);
  return bytes;
}

MetricPipeline::MetricPipeline(PipelineConfig config)
    : config_(config), arena_(std::make_unique<Arena>()) {
  if (config_.movement && config_.miss_threshold_lines <= 0) {
    throw std::invalid_argument(
        "MetricPipeline: movement needs miss_threshold_lines > 0");
  }
  if (config_.line_size <= 0) {
    throw std::invalid_argument("MetricPipeline: bad line size");
  }
  if (config_.cache) detail::cache_geometry(*config_.cache);  // Validate early.
}

MetricPipeline::~MetricPipeline() = default;
MetricPipeline::MetricPipeline(MetricPipeline&&) noexcept = default;
MetricPipeline& MetricPipeline::operator=(MetricPipeline&&) noexcept =
    default;

namespace {

// Fresh pass of the metric engine over `trace`, then the caller-facing
// result. A pass that will be resumed keeps its tallies.
PipelineResult fresh_pass(const PipelineConfig& config,
                          const AccessTrace& trace, bool widen,
                          bool resumable, merge::Live& live,
                          PhaseTimings& timings) {
  const auto start = Clock::now();
  const int partitions = merge::consume_all(config, trace, widen, live);
  PipelineResult result =
      merge::finalize(config, trace, live.tallies, /*spend=*/!resumable);
  timings.metrics_ms = ms_since(start);
  timings.partitions = partitions;
  return result;
}

}  // namespace

PipelineResult MetricPipeline::run(const AccessTrace& trace) {
  // The pass below overwrites the engine state the delta checkpoint
  // resumes from, so any interleaved public run drops the checkpoint.
  arena_->ckpt_valid = false;
  arena_->live_valid = false;
  timings_ = {};
  return fresh_pass(config_, trace, /*widen=*/true, /*resumable=*/false,
                    arena_->live, timings_);
}

PipelineResult MetricPipeline::run(const Sdfg& sdfg, const SymbolMap& symbols,
                                   const SimulationOptions& options) {
  arena_->ckpt_valid = false;
  arena_->live_valid = false;
  const auto start = Clock::now();
  simulate_into(sdfg, symbols, options, arena_->trace);
  timings_ = {};
  timings_.simulate_ms = ms_since(start);
  // Simulator output never leaves its layouts: no bound widening.
  return fresh_pass(config_, arena_->trace, /*widen=*/false,
                    /*resumable=*/false, arena_->live, timings_);
}

namespace {

// Delta plans use a fixed fine granularity instead of the thread-derived
// default: with max_chunks_per_map this large, plan_trace clamps the
// per-chunk target to kMinChunkEvents, so chunk BOUNDARIES depend only
// on the program and the binding — never on the machine — and the same
// outer ordinal lands in the same chunk across steps, which is what
// makes prefix matching against the checkpointed plan meaningful.
constexpr int kDeltaMaxChunks = 1 << 20;

// Fingerprint of the SimulationOptions fields that can change the
// simulator's OUTPUT — today every field.
std::uint64_t delta_options_fingerprint(const SimulationOptions& options) {
  std::uint64_t hash = util::kFnvOffset;
  auto mix = [&hash](std::uint64_t value) { hash = util::fnv1a(hash, value); };
  mix(static_cast<std::uint64_t>(options.placement_alignment));
  mix(options.wcr_reads ? 1 : 0);
  return hash;
}

struct ChunkMatch {
  bool clean = false;
  std::int64_t old_event_offset = 0;
  std::int64_t old_execution_offset = 0;
};

// One warm step against a valid checkpoint. Returns true with `result`
// populated when the step was satisfied without a cold recompute
// (kNoChange or kChunkDelta); returns false — checkpoint left intact —
// when the engine must fall back (outcome.reason says why).
bool delta_step(const PipelineConfig& config, ArenaState& arena,
                const Sdfg& sdfg, const SymbolMap& symbols,
                const SimulationOptions& options, DeltaOutcome& outcome,
                PipelineResult& result, PhaseTimings& timings) {
  const auto start = Clock::now();
  const std::set<std::string> changed =
      symbolic::changed_symbols(arena.ckpt_binding, symbols);
  if (changed.empty()) {
    outcome.path = DeltaOutcome::Path::kNoChange;
    outcome.reason = "";
    outcome.chunks_total =
        static_cast<std::int64_t>(arena.ckpt_plan.chunks.size());
    outcome.chunks_clean = outcome.chunks_total;
    result = merge::finalize(config, arena.trace, arena.live.tallies,
                             /*spend=*/false);
    timings = {0.0, ms_since(start), 1};
    return true;
  }

  const std::int64_t n_old = arena.ckpt_plan.total_events;
  plan_trace_into(sdfg, symbols, options, kDeltaMaxChunks,
                  arena.scratch_plan);
  const TracePlan& plan_new = arena.scratch_plan;
  const TracePlan& plan_old = arena.ckpt_plan;

  const std::vector<std::set<std::string>> deps =
      chunk_dependencies(sdfg, plan_new);

  // Prefix-match new chunks against old ones of the same (state, node)
  // group: the k-th new chunk of a group reuses the k-th old one when
  // its ordinal range and event/execution counts agree AND its
  // dependency set is disjoint from the binding delta.
  std::map<std::pair<int, ir::NodeId>, std::pair<std::size_t, std::size_t>>
      old_groups;
  for (std::size_t i = 0; i < plan_old.chunks.size();) {
    std::size_t j = i + 1;
    while (j < plan_old.chunks.size() &&
           plan_old.chunks[j].state == plan_old.chunks[i].state &&
           plan_old.chunks[j].node == plan_old.chunks[i].node) {
      ++j;
    }
    old_groups.emplace(
        std::make_pair(plan_old.chunks[i].state, plan_old.chunks[i].node),
        std::make_pair(i, j));
    i = j;
  }

  std::vector<ChunkMatch> matches(plan_new.chunks.size());
  std::int64_t clean_chunks = 0;
  std::size_t old_reused_in_place = 0;
  for (std::size_t g = 0; g < plan_new.chunks.size();) {
    std::size_t h = g + 1;
    while (h < plan_new.chunks.size() &&
           plan_new.chunks[h].state == plan_new.chunks[g].state &&
           plan_new.chunks[h].node == plan_new.chunks[g].node) {
      ++h;
    }
    const auto group = old_groups.find(
        std::make_pair(plan_new.chunks[g].state, plan_new.chunks[g].node));
    const std::size_t old_size =
        group == old_groups.end() ? 0
                                  : group->second.second - group->second.first;
    for (std::size_t k = 0; g + k < h; ++k) {
      const std::size_t idx = g + k;
      if (k >= old_size) continue;
      const TraceChunk& oc = plan_old.chunks[group->second.first + k];
      const TraceChunk& nc = plan_new.chunks[idx];
      if (oc.outer_begin != nc.outer_begin ||
          oc.outer_count != nc.outer_count ||
          oc.event_count != nc.event_count ||
          oc.execution_count != nc.execution_count) {
        continue;
      }
      bool dirty = false;
      const std::set<std::string>& dep = deps[idx];
      for (const std::string& name : changed) {
        if (dep.count(name)) {
          dirty = true;
          break;
        }
      }
      if (dirty) continue;
      matches[idx].clean = true;
      matches[idx].old_event_offset = oc.event_offset;
      matches[idx].old_execution_offset = oc.execution_offset;
      ++clean_chunks;
      if (oc.event_offset == nc.event_offset &&
          oc.execution_offset == nc.execution_offset) {
        ++old_reused_in_place;
      }
    }
    g = h;
  }

  if (clean_chunks == 0) {
    outcome.reason = "binding delta dirties every chunk";
    return false;
  }

  // Layouts decide the flat -> line mapping of EVERY event (a container
  // growing shifts the placed base of all later ones), so the fused
  // state can only be resumed — and its line-derived tallies only stay
  // valid — when no changed symbol reaches any container's geometry.
  bool layout_clean = true;
  for (const auto& [name, descriptor] : sdfg.arrays()) {
    for (const auto& extent : descriptor.shape) {
      if (symbolic::depends_on_any(extent, changed)) layout_clean = false;
    }
    for (const auto& stride : descriptor.strides) {
      if (symbolic::depends_on_any(stride, changed)) layout_clean = false;
    }
    if (symbolic::depends_on_any(descriptor.start_offset, changed)) {
      layout_clean = false;
    }
    if (!layout_clean) break;
  }

  // Patch phase: place containers under the new binding, keep clean
  // chunks, re-simulate dirty chunks at their absolute slices. When
  // every clean chunk keeps its exact offsets — the common slider case:
  // appended, truncated, or overwritten-in-place chunks only — the
  // front buffer is patched IN PLACE and clean events are never even
  // copied. Only offset-shifting deltas (a chunk growing mid-trace) pay
  // for splicing into the back buffer.
  arena.scratch_header.containers.clear();
  arena.scratch_header.layouts.clear();
  arena.scratch_header.events.clear();
  arena.scratch_header.executions = 0;
  place_containers(sdfg, symbols, options, arena.scratch_header);

  const std::size_t n_new = static_cast<std::size_t>(plan_new.total_events);
  bool in_place = true;
  for (std::size_t idx = 0; idx < plan_new.chunks.size(); ++idx) {
    const TraceChunk& nc = plan_new.chunks[idx];
    if (matches[idx].clean &&
        (matches[idx].old_event_offset != nc.event_offset ||
         matches[idx].old_execution_offset != nc.execution_offset)) {
      in_place = false;
      break;
    }
  }
  // Dirty chunks are re-simulated at their absolute slices in one
  // generation call; chunk outputs are position-determined, keeping the
  // patched trace bit-identical at any thread count.
  std::vector<TraceChunk> dirty;
  for (std::size_t idx = 0; idx < plan_new.chunks.size(); ++idx) {
    if (!matches[idx].clean) dirty.push_back(plan_new.chunks[idx]);
  }
  if (in_place) {
    arena.trace.events.resize(n_new);  // Preserves the clean prefix.
    detail::generate_chunks(sdfg, symbols, options, arena.scratch_header,
                            dirty, arena.trace.events);
  } else {
    arena.back_events.resize(n_new);
    for (std::size_t idx = 0; idx < plan_new.chunks.size(); ++idx) {
      if (!matches[idx].clean) continue;
      const TraceChunk& nc = plan_new.chunks[idx];
      arena.back_events.assign_range(
          arena.trace.events,
          static_cast<std::size_t>(matches[idx].old_event_offset),
          static_cast<std::size_t>(nc.event_offset),
          static_cast<std::size_t>(nc.event_count),
          nc.execution_offset - matches[idx].old_execution_offset);
    }
    detail::generate_chunks(sdfg, symbols, options, arena.scratch_header,
                            dirty, arena.back_events);
    // The patched back buffer becomes the checkpoint trace (the old
    // front buffer is kept as a future patch target).
    std::swap(arena.trace.events, arena.back_events);
  }

  arena.trace.containers = std::move(arena.scratch_header.containers);
  arena.trace.layouts = std::move(arena.scratch_header.layouts);
  arena.trace.executions = plan_new.total_executions;
  // plan_new / plan_old alias scratch_plan / ckpt_plan, so capture every
  // count needed below BEFORE the swap promotes the new plan to
  // checkpoint.
  const std::size_t old_chunk_count = plan_old.chunks.size();
  const std::size_t new_chunk_count = plan_new.chunks.size();
  std::swap(arena.ckpt_plan, arena.scratch_plan);
  arena.ckpt_binding = symbols;
  const double patch_ms = ms_since(start);
  const auto metric_start = Clock::now();

  // Metric phase. Append-only steps — every old chunk reused at its old
  // offsets, trace only grew, layouts untouched — RESUME the live engine
  // state and consume just the new suffix; anything else runs a fresh
  // pass over the patched trace (still skipping the simulator for clean
  // chunks, which is where the bulk of a cold step goes).
  const bool resumed =
      layout_clean && old_reused_in_place == old_chunk_count &&
      static_cast<std::int64_t>(n_new) >= n_old;
  int partitions = 1;
  if (resumed) {
    merge::consume_suffix(config, arena.trace, arena.live);
  } else {
    partitions = merge::consume_all(config, arena.trace, /*widen=*/false,
                                    arena.live);
  }
  result = merge::finalize(config, arena.trace, arena.live.tallies,
                           /*spend=*/false);

  outcome.path = DeltaOutcome::Path::kChunkDelta;
  outcome.reason = "";
  outcome.resumed = resumed;
  outcome.chunks_total = static_cast<std::int64_t>(new_chunk_count);
  outcome.chunks_clean = clean_chunks;
  outcome.chunks_dirty = outcome.chunks_total - clean_chunks;
  timings = {patch_ms, ms_since(metric_start), partitions};
  return true;
}

}  // namespace

PipelineResult MetricPipeline::run_delta(const Sdfg& sdfg,
                                         std::uint64_t program_version,
                                         const SymbolMap& symbols,
                                         const SimulationOptions& options,
                                         DeltaOutcome* outcome_out) {
  ArenaState& arena = *arena_;
  DeltaOutcome outcome;
  outcome.reason = "no checkpoint";
  const std::uint64_t options_fp = delta_options_fingerprint(options);

  if (arena.ckpt_valid && arena.live_valid) {
    if (arena.ckpt_program != program_version) {
      outcome.reason = "program changed";
    } else if (arena.ckpt_options != options_fp) {
      outcome.reason = "options changed";
    } else {
      bool warm = false;
      PipelineResult result;
      try {
        warm = delta_step(config_, arena, sdfg, symbols, options, outcome,
                          result, timings_);
      } catch (...) {
        // A failed splice leaves the checkpoint inconsistent; drop it and
        // let the cold path below surface the canonical error behavior.
        arena.ckpt_valid = false;
        arena.live_valid = false;
        outcome.reason = "delta step failed";
      }
      if (warm) {
        if (outcome_out) *outcome_out = outcome;
        return result;
      }
    }
  }

  // Cold path: plan once at delta granularity, generate that plan,
  // run a fresh metric pass, then arm the checkpoint for the next step.
  outcome.path = DeltaOutcome::Path::kCold;
  arena.ckpt_valid = false;
  arena.live_valid = false;
  const auto cold_start = Clock::now();
  plan_trace_into(sdfg, symbols, options, kDeltaMaxChunks, arena.ckpt_plan);
  detail::simulate_plan_into(sdfg, symbols, options, arena.ckpt_plan,
                             arena.trace);
  timings_ = {};
  timings_.simulate_ms = ms_since(cold_start);
  PipelineResult result =
      fresh_pass(config_, arena.trace, /*widen=*/false, /*resumable=*/true,
                 arena.live, timings_);
  arena.live_valid = true;
  arena.ckpt_valid = true;
  arena.ckpt_program = program_version;
  arena.ckpt_options = options_fp;
  arena.ckpt_binding = symbols;
  if (outcome_out) *outcome_out = outcome;
  return result;
}

}  // namespace dmv::sim
