#include "dmv/sim/pipeline.hpp"

#include <algorithm>
#include <chrono>
#include <limits>
#include <list>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "dmv/symbolic/expr.hpp"

#include "dmv/par/par.hpp"
#include "dmv/sim/trace_plan.hpp"
#include "dmv/store/trace_store.hpp"
#include "metric_detail.hpp"
#include "metric_merge.hpp"

namespace dmv::sim {

namespace {

// Beyond this many dense slots, per-line state falls back to a hash map
// (hand-built traces can place containers at arbitrary addresses).
constexpr std::int64_t kMaxDenseSpan = std::int64_t{1} << 26;

// line -> most recent event position (-1 = never seen). Dense over the
// LineTable's id range when that range is sane, hash map otherwise.
class LastPositions {
 public:
  void reset_dense(std::int64_t lo, std::int64_t span) {
    dense_ = true;
    lo_ = lo;
    values_.assign(static_cast<std::size_t>(span), -1);
    hash_.clear();
  }
  void reset_hash(std::size_t expected) {
    dense_ = false;
    values_.clear();
    hash_.clear();
    hash_.reserve(expected);
  }
  std::int64_t& operator()(std::int64_t line) {
    if (dense_) return values_[static_cast<std::size_t>(line - lo_)];
    return hash_.try_emplace(line, -1).first->second;
  }

 private:
  bool dense_ = true;
  std::int64_t lo_ = 0;
  std::vector<std::int64_t> values_;
  std::unordered_map<std::int64_t, std::int64_t> hash_;
};

// Exact LRU state of one cache set (same structure and update rule as
// cache_model's per-set simulation).
struct LruSet {
  std::list<std::int64_t> lru;  ///< Front = most recently used.
  std::unordered_map<std::int64_t, std::list<std::int64_t>::iterator> where;
};

using detail::cache_geometry;
using detail::CacheGeometry;

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

// All buffers that survive across run() calls — the sweep-scoped
// memory-reuse half of the pipeline. A slider sweep pays for the trace
// columns, line table, Fenwick tree, per-line state, and per-element
// scratch once instead of once per binding.
struct ArenaState {
  AccessTrace trace;        ///< run(sdfg) materialization target.
  TraceArena trace_arena;   ///< Chunk plan + streaming ring buffers.
  LineTable table;          ///< Distance-granularity line ids.
  LineTable cache_table;    ///< Only if the cache uses another line size.
  detail::Fenwick fenwick;
  LastPositions last_position;
  /// Per-container (flat, distance) pairs for element stats.
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> finite;
  std::vector<std::int64_t> offsets;  ///< Counting-sort scratch.
  std::vector<std::int64_t> sorted;   ///< Counting-sort scratch.
  std::vector<LruSet> sets;
  std::vector<std::uint8_t> seen;     ///< Cache line ever resident.
  std::int64_t seen_lo = 0;
  merge::Scratch merge_scratch;       ///< Mergeable parallel engine state.

  // --- run_delta() checkpoint -------------------------------------------
  // `trace` doubles as the checkpoint's front event buffer; the fields
  // below remember which (program, options, binding) produced it, the
  // fine-grained chunk plan that indexes it, and the un-finalized fused
  // metric state so an append-only step can resume consuming where the
  // previous one stopped. Any public run()/run_streaming() call clobbers
  // the shared scratch above and therefore invalidates the checkpoint.
  bool ckpt_valid = false;
  std::uint64_t ckpt_program = 0;   ///< Caller's SDFG-structure version.
  std::uint64_t ckpt_options = 0;   ///< Output-relevant options fingerprint.
  SymbolMap ckpt_binding;
  TracePlan ckpt_plan;              ///< Delta-granularity plan of `trace`.
  TracePlan scratch_plan;           ///< New-binding plan (swapped on commit).
  EventList back_events;            ///< Patch target (swapped with trace).
  AccessTrace scratch_header;       ///< New-binding container placement.
  PipelineResult live;              ///< Raw fused state (never finalized).
  bool live_valid = false;
};

}  // namespace

struct MetricPipeline::Arena : ArenaState {};

namespace {

// The fused per-event consumer bundle. One consume() call advances
// every enabled metric; each derived quantity (cache line id, stack
// distance) is computed exactly once per event and shared.
class FusedPass {
 public:
  FusedPass(const PipelineConfig& config, ArenaState& arena)
      : config_(config), arena_(arena) {}

  /// `expected_events` is the trace length when known (materialized) or
  /// 0 in streaming mode (the Fenwick grows on demand).
  void begin(const AccessTrace& header, std::size_t expected_events,
             std::int64_t distance_lo, std::int64_t distance_span,
             std::int64_t cache_lo, std::int64_t cache_span) {
    const std::size_t num_containers = header.layouts.size();
    result_ = PipelineResult{};
    result_.containers = header.containers;

    if (config_.counts) {
      result_.counts.reads.clear();
      result_.counts.writes.clear();
      result_.counts.reads.reserve(num_containers);
      result_.counts.writes.reserve(num_containers);
      for (const ConcreteLayout& layout : header.layouts) {
        result_.counts.reads.emplace_back(layout.total_elements(), 0);
        result_.counts.writes.emplace_back(layout.total_elements(), 0);
      }
    }

    if (config_.needs_distances()) {
      arena_.fenwick.reset(expected_events);
      if (distance_span >= 0 && distance_span <= kMaxDenseSpan) {
        arena_.last_position.reset_dense(distance_lo, distance_span);
      } else {
        arena_.last_position.reset_hash(expected_events);
      }
      if (config_.keep_distances) {
        result_.distances.line_size = config_.line_size;
        result_.distances.distances.clear();
        result_.distances.distances.reserve(expected_events);
      }
    }

    if (config_.miss_threshold_lines > 0) {
      result_.misses.threshold_lines = config_.miss_threshold_lines;
      result_.misses.per_container.assign(num_containers, {});
      result_.misses.element_misses.clear();
      result_.misses.element_misses.reserve(num_containers);
      for (const ConcreteLayout& layout : header.layouts) {
        result_.misses.element_misses.emplace_back(layout.total_elements(),
                                                   0);
      }
    }

    if (config_.element_stats) {
      arena_.finite.resize(num_containers);
      for (auto& pairs : arena_.finite) pairs.clear();
      result_.element_stats.assign(num_containers, {});
      for (std::size_t c = 0; c < num_containers; ++c) {
        result_.element_stats[c].cold_count.assign(
            static_cast<std::size_t>(header.layouts[c].total_elements()), 0);
      }
    }

    if (config_.cache) {
      geometry_ = cache_geometry(*config_.cache);
      result_.cache.config = *config_.cache;
      result_.cache.per_container.assign(num_containers, {});
      arena_.sets.clear();
      arena_.sets.resize(static_cast<std::size_t>(geometry_.num_sets));
      if (cache_span < 0 || cache_span > kMaxDenseSpan) {
        throw std::invalid_argument(
            "MetricPipeline: cache line-id range too sparse for the fused "
            "cache consumer");
      }
      arena_.seen.assign(static_cast<std::size_t>(cache_span), 0);
      arena_.seen_lo = cache_lo;
    }
  }

  void consume(std::size_t i, std::int32_t container, std::int64_t flat,
               bool is_write, std::int64_t line, std::int64_t cache_line) {
    if (config_.counts) {
      auto& column =
          is_write ? result_.counts.writes : result_.counts.reads;
      ++column[static_cast<std::size_t>(container)]
              [static_cast<std::size_t>(flat)];
    }

    if (config_.needs_distances()) {
      std::int64_t distance;
      std::int64_t& previous = arena_.last_position(line);
      if (previous < 0) {
        distance = kInfiniteDistance;
      } else {
        const std::size_t p = static_cast<std::size_t>(previous);
        distance = arena_.fenwick.range(p + 1, i);
        arena_.fenwick.add(p, -1);
      }
      arena_.fenwick.add(i, +1);
      previous = static_cast<std::int64_t>(i);

      if (config_.keep_distances) {
        result_.distances.distances.push_back(distance);
      }
      if (config_.miss_threshold_lines > 0) {
        MissStats& stats =
            result_.misses.per_container[static_cast<std::size_t>(container)];
        if (distance == kInfiniteDistance) {
          ++stats.cold;
          ++result_.misses.element_misses[static_cast<std::size_t>(container)]
                                         [static_cast<std::size_t>(flat)];
        } else if (distance >= config_.miss_threshold_lines) {
          ++stats.capacity;
          ++result_.misses.element_misses[static_cast<std::size_t>(container)]
                                         [static_cast<std::size_t>(flat)];
        } else {
          ++stats.hits;
        }
      }
      if (config_.element_stats) {
        if (distance == kInfiniteDistance) {
          ++result_.element_stats[static_cast<std::size_t>(container)]
               .cold_count[static_cast<std::size_t>(flat)];
        } else {
          arena_.finite[static_cast<std::size_t>(container)].emplace_back(
              flat, distance);
        }
      }
    }

    if (config_.cache) {
      LruSet& set = arena_.sets[static_cast<std::size_t>(
          cache_line % geometry_.num_sets)];
      MissStats& stats =
          result_.cache.per_container[static_cast<std::size_t>(container)];
      auto it = set.where.find(cache_line);
      if (it != set.where.end()) {
        ++stats.hits;
        set.lru.splice(set.lru.begin(), set.lru, it->second);
      } else {
        std::uint8_t& seen =
            arena_.seen[static_cast<std::size_t>(cache_line -
                                                 arena_.seen_lo)];
        if (!seen) {
          seen = 1;
          ++stats.cold;
        } else {
          ++stats.capacity;
        }
        set.lru.push_front(cache_line);
        set.where[cache_line] = set.lru.begin();
        if (static_cast<std::int64_t>(set.lru.size()) > geometry_.ways) {
          set.where.erase(set.lru.back());
          set.lru.pop_back();
        }
      }
    }
  }

  PipelineResult finish(const AccessTrace& header, std::int64_t events,
                        std::int64_t executions) {
    result_.events = events;
    result_.executions = executions;
    finalize_into(header, result_);
    return std::move(result_);
  }

  /// Non-destructive counterpart of finish() for the delta engine: folds
  /// the arena's pending element-stat pairs and `result`'s per-container
  /// tallies into totals/element-stats/movement IN `result`, leaving the
  /// arena and the pass's own live state untouched. `result` must be an
  /// un-finalized raw copy (totals zero, movement empty) — the live
  /// checkpoint is never finalized, so every snapshot starts from that
  /// state and the two finalization paths stay bit-identical by
  /// construction (finish() delegates here).
  void finalize_into(const AccessTrace& header, PipelineResult& result) {
    if (config_.element_stats) {
      for (std::size_t c = 0; c < header.layouts.size(); ++c) {
        detail::finalize_element_stats(
            header.layouts[c].total_elements(), arena_.finite[c],
            arena_.offsets, arena_.sorted, result.element_stats[c]);
      }
    }
    if (config_.miss_threshold_lines > 0) {
      for (const MissStats& stats : result.misses.per_container) {
        result.misses.total.cold += stats.cold;
        result.misses.total.capacity += stats.capacity;
        result.misses.total.hits += stats.hits;
      }
    }
    if (config_.cache) {
      for (const MissStats& stats : result.cache.per_container) {
        result.cache.total.cold += stats.cold;
        result.cache.total.capacity += stats.capacity;
        result.cache.total.hits += stats.hits;
      }
    }
    if (config_.movement) {
      result.movement.line_size = config_.line_size;
      result.movement.bytes_per_container.reserve(header.layouts.size());
      for (const MissStats& stats : result.misses.per_container) {
        const std::int64_t bytes = stats.misses() * config_.line_size;
        result.movement.bytes_per_container.push_back(bytes);
        result.movement.total_bytes += bytes;
      }
    }
  }

  /// Moves the un-finalized live state out (the delta engine checkpoints
  /// it in the arena between run_delta calls).
  PipelineResult take_raw() { return std::move(result_); }

  /// Restores a live state previously moved out with take_raw() so
  /// consume() can continue where the producing pass stopped. The cache
  /// geometry is re-derived from the config (it is not part of the
  /// result); the arena must still hold the matching Fenwick /
  /// last-position / LRU / finite-pair state.
  void adopt(PipelineResult&& raw) {
    result_ = std::move(raw);
    if (config_.cache) geometry_ = cache_geometry(*config_.cache);
  }

  detail::Fenwick& fenwick() { return arena_.fenwick; }

 private:
  const PipelineConfig& config_;
  ArenaState& arena_;
  PipelineResult result_;
  CacheGeometry geometry_;
};

// Streaming adapter: the simulator pushes events straight into the
// fused pass; line ids are derived per event from the hoisted
// per-container addressing (once each — shared between the distance and
// cache consumers when their line sizes agree).
class StreamingSink final : public EventSink {
 public:
  StreamingSink(const PipelineConfig& config, FusedPass& pass)
      : config_(config), pass_(pass) {}

  void on_trace_header(const AccessTrace& header) override {
    addressing_ = detail::addressing_for(header.layouts);
    std::int64_t distance_lo = 0, distance_span = 0;
    detail::line_range_of(header.layouts, config_.line_size, distance_lo,
                          distance_span, nullptr);
    std::int64_t cache_lo = 0, cache_span = 0;
    if (config_.cache) {
      detail::line_range_of(header.layouts, config_.cache->line_size,
                            cache_lo, cache_span, nullptr);
    }
    shared_cache_line_ =
        !config_.cache || config_.cache->line_size == config_.line_size;
    pass_.begin(header, /*expected_events=*/0, distance_lo, distance_span,
                cache_lo, cache_span);
  }

  void on_event(const AccessEvent& event) override {
    const detail::ContainerAddressing& addressing =
        addressing_[static_cast<std::size_t>(event.container)];
    std::int64_t line = 0;
    std::int64_t cache_line = 0;
    const bool needs_line = config_.needs_distances();
    if (needs_line || (config_.cache && shared_cache_line_)) {
      line = addressing.line_of(event.flat, config_.line_size);
      cache_line = line;
    }
    if (config_.cache && !shared_cache_line_) {
      cache_line = addressing.line_of(event.flat, config_.cache->line_size);
    }
    if (needs_line) pass_.fenwick().ensure(index_);
    pass_.consume(index_, event.container, event.flat, event.is_write, line,
                  cache_line);
    ++index_;
  }

  void on_trace_end(std::int64_t executions) override {
    executions_ = executions;
  }

  std::size_t events() const { return index_; }
  std::int64_t executions() const { return executions_; }

 private:
  const PipelineConfig& config_;
  FusedPass& pass_;
  std::vector<detail::ContainerAddressing> addressing_;
  bool shared_cache_line_ = true;
  std::size_t index_ = 0;
  std::int64_t executions_ = 0;
};

}  // namespace

int PipelineResult::container_index(const std::string& name) const {
  for (std::size_t c = 0; c < containers.size(); ++c) {
    if (containers[c] == name) return static_cast<int>(c);
  }
  return -1;
}

std::uint64_t fingerprint(const PipelineConfig& config) {
  // FNV-1a over every output-relevant field.
  std::uint64_t hash = 1469598103934665603ull;
  auto mix = [&hash](std::uint64_t value) {
    hash ^= value;
    hash *= 1099511628211ull;
  };
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
  if (config_.cache) cache_geometry(*config_.cache);  // Validate early.
}

MetricPipeline::~MetricPipeline() = default;
MetricPipeline::MetricPipeline(MetricPipeline&&) noexcept = default;
MetricPipeline& MetricPipeline::operator=(MetricPipeline&&) noexcept =
    default;

// Mergeable-engine gate shared by run(trace) and the fused-generation
// path: the engine must be requested, the trace big enough, and the
// caller must not already be inside a pool task (where every parallel
// construct serializes and the serial fused pass is strictly cheaper).
namespace {

bool mergeable_requested(const PipelineConfig& config, std::int64_t events) {
  return config.parallel_metrics && events > 0 &&
         events >= config.parallel_metrics_min_events &&
         events <= std::numeric_limits<std::int32_t>::max() &&
         !par::in_parallel_region();
}

}  // namespace

// Materialized mergeable drive: derive line columns (vectorized),
// compute phase-A prev occurrences, then hand off to merge::finish_pass.
// Returns false — nothing observable done — when the engine cannot run
// (line span too sparse for the dense stitch/seen tables); the caller
// falls back to the serial fused pass, which handles those traces via
// its hash path (or throws the canonical cache-span error).
bool MetricPipeline::try_run_mergeable(const AccessTrace& trace,
                                       PipelineResult& result,
                                       int& partitions) {
  const std::size_t n = trace.events.size();
  merge::Scratch& scratch = arena_->merge_scratch;
  const std::span<const std::int32_t> containers =
      trace.events.container_column();
  const std::span<const std::int64_t> flats = trace.events.flat_column();
  const std::span<const std::uint8_t> writes = trace.events.write_column();

  std::int64_t distance_lo = 0, distance_span = 0;
  std::span<const std::int64_t> lines;
  if (config_.needs_distances() ||
      (config_.cache && config_.cache->line_size == config_.line_size)) {
    detail::line_range_of(trace.layouts, config_.line_size, distance_lo,
                          distance_span, nullptr);
    scratch.lines.resize(n);
    merge::LineDeriver deriver;
    deriver.reset(trace.layouts, config_.line_size);
    std::int64_t* out = scratch.lines.data();
    par::parallel_for(n, std::size_t{1} << 14,
                      [&](std::size_t begin, std::size_t end) {
                        deriver.derive(containers.data(), flats.data(),
                                       begin, end, out);
                      });
    lines = std::span<const std::int64_t>(scratch.lines.data(), n);
    // Same widening as the serial path (hand-built traces with
    // out-of-buffer addresses).
    std::int64_t hi = distance_lo + distance_span - 1;
    merge::widen_bounds(lines, distance_lo, hi);
    distance_span = hi - distance_lo + 1;
    if (distance_span > kMaxDenseSpan) return false;
  }

  std::int64_t cache_lo = 0, cache_span = 0;
  std::span<const std::int64_t> cache_lines = lines;
  if (config_.cache) {
    if (config_.cache->line_size != config_.line_size) {
      detail::line_range_of(trace.layouts, config_.cache->line_size,
                            cache_lo, cache_span, nullptr);
      scratch.cache_lines.resize(n);
      merge::LineDeriver deriver;
      deriver.reset(trace.layouts, config_.cache->line_size);
      std::int64_t* out = scratch.cache_lines.data();
      par::parallel_for(n, std::size_t{1} << 14,
                        [&](std::size_t begin, std::size_t end) {
                          deriver.derive(containers.data(), flats.data(),
                                         begin, end, out);
                        });
      cache_lines = std::span<const std::int64_t>(scratch.cache_lines.data(),
                                                  n);
      std::int64_t hi = cache_lo + cache_span - 1;
      merge::widen_bounds(cache_lines, cache_lo, hi);
      cache_span = hi - cache_lo + 1;
    } else {
      cache_lo = distance_lo;
      cache_span = distance_span;
    }
    // The serial pass throws the canonical sparse-cache error here; let
    // it do so instead of duplicating the message.
    if (cache_span < 0 || cache_span > kMaxDenseSpan) return false;
  }

  if (config_.needs_distances() && merge::needs_prev_pass(n)) {
    merge::compute_prev(scratch, lines, distance_lo, distance_span);
  }
  merge::finish_pass(config_, trace, containers, flats, writes, lines,
                     distance_lo, distance_span, cache_lines, cache_lo,
                     cache_span, trace.executions, scratch, result,
                     partitions);
  return true;
}

PipelineResult MetricPipeline::run(const AccessTrace& trace) {
  // The fused pass below clobbers the arena scratch the delta engine's
  // live state depends on (and run(sdfg) overwrote the checkpoint
  // trace), so any interleaved public run drops the checkpoint.
  arena_->ckpt_valid = false;
  arena_->live_valid = false;
  // Fault a spilled trace back in on this thread, exactly once, before
  // any pass hands column spans to parallel metric workers (EventList
  // fault-in is not thread-safe).
  trace.events.ensure_resident();
  const auto start = Clock::now();
  const std::size_t n = trace.events.size();

  if (mergeable_requested(config_, static_cast<std::int64_t>(n))) {
    PipelineResult result;
    int partitions = 1;
    if (try_run_mergeable(trace, result, partitions)) {
      timings_ = {0.0, ms_since(start), partitions};
      return result;
    }
  }
  const bool needs_lines = config_.needs_distances() || config_.cache;

  std::int64_t distance_lo = 0, distance_span = 0;
  std::span<const std::int64_t> lines;
  if (config_.needs_distances() ||
      (config_.cache && config_.cache->line_size == config_.line_size)) {
    build_line_table(trace, config_.line_size, arena_->table);
    lines = arena_->table.lines;
    // Widen the dense bounds to the observed ids so hand-built traces
    // with out-of-buffer addresses stay correct (hash fallback kicks in
    // if the widened span is unreasonable).
    distance_lo = arena_->table.first_line;
    std::int64_t hi = arena_->table.first_line + arena_->table.line_span - 1;
    for (const std::int64_t line : lines) {
      distance_lo = std::min(distance_lo, line);
      hi = std::max(hi, line);
    }
    distance_span = n == 0 ? 0 : hi - distance_lo + 1;
  }

  std::int64_t cache_lo = 0, cache_span = 0;
  std::span<const std::int64_t> cache_lines = lines;
  if (config_.cache) {
    if (config_.cache->line_size != config_.line_size) {
      build_line_table(trace, config_.cache->line_size, arena_->cache_table);
      cache_lines = arena_->cache_table.lines;
      cache_lo = arena_->cache_table.first_line;
      std::int64_t hi =
          arena_->cache_table.first_line + arena_->cache_table.line_span - 1;
      for (const std::int64_t line : cache_lines) {
        cache_lo = std::min(cache_lo, line);
        hi = std::max(hi, line);
      }
      cache_span = n == 0 ? 0 : hi - cache_lo + 1;
    } else {
      cache_lo = distance_lo;
      cache_span = distance_span;
    }
  }

  FusedPass pass(config_, *arena_);
  pass.begin(trace, n, distance_lo, distance_span, cache_lo, cache_span);

  const std::span<const std::int32_t> containers =
      trace.events.container_column();
  const std::span<const std::int64_t> flats = trace.events.flat_column();
  const std::span<const std::uint8_t> writes = trace.events.write_column();
  for (std::size_t i = 0; i < n; ++i) {
    pass.consume(i, containers[i], flats[i], writes[i] != 0,
                 needs_lines && !lines.empty() ? lines[i] : 0,
                 config_.cache ? cache_lines[i] : 0);
  }
  PipelineResult result =
      pass.finish(trace, static_cast<std::int64_t>(n), trace.executions);
  timings_ = {0.0, ms_since(start), 1};
  return result;
}

// Chunk-fused generation + metrics: the simulator, the line-id
// derivation, and phase A of the stack distances run per trace-plan
// chunk inside ordered_pipeline — metric work starts on a chunk's slice
// as soon as the simulator finishes it, and the stitch (consume side)
// runs on the caller in chunk order. Everything after phase A barriers
// on the full trace anyway (phase B needs prev complete) and runs via
// merge::finish_pass. Returns false when parallel generation or the
// mergeable engine cannot run; the caller takes the unfused path.
bool MetricPipeline::try_run_fused_generation(const Sdfg& sdfg,
                                              const SymbolMap& symbols,
                                              const SimulationOptions& options,
                                              PipelineResult& result) {
  if (par::num_threads() <= 1 || par::in_parallel_region()) {
    return false;
  }
  ArenaState& arena = *arena_;
  plan_trace_into(sdfg, symbols, options, 0, arena.trace_arena.plan);
  const TracePlan& plan = arena.trace_arena.plan;
  // Same worthwhileness gate as simulate_into's parallel path.
  if (!plan.parallelizable || plan.chunks.size() <= 1 ||
      plan.total_events < 8192) {
    return false;
  }
  if (!mergeable_requested(config_, plan.total_events)) return false;

  const std::size_t n = static_cast<std::size_t>(plan.total_events);
  arena.trace.containers.clear();
  arena.trace.layouts.clear();
  arena.trace.executions = 0;
  place_containers(sdfg, symbols, options, arena.trace);

  // Layout-derived bounds, no widening: simulator-produced events are
  // always inside their placed layouts, so these equal the serial
  // path's widened bounds bit for bit.
  const bool needs_lines =
      config_.needs_distances() ||
      (config_.cache && config_.cache->line_size == config_.line_size);
  std::int64_t distance_lo = 0, distance_span = 0;
  if (needs_lines) {
    detail::line_range_of(arena.trace.layouts, config_.line_size,
                          distance_lo, distance_span, nullptr);
    if (distance_span > kMaxDenseSpan) return false;
  }
  std::int64_t cache_lo = 0, cache_span = 0;
  const bool separate_cache_lines =
      config_.cache && config_.cache->line_size != config_.line_size;
  if (config_.cache) {
    if (separate_cache_lines) {
      detail::line_range_of(arena.trace.layouts, config_.cache->line_size,
                            cache_lo, cache_span, nullptr);
    } else {
      cache_lo = distance_lo;
      cache_span = distance_span;
    }
    if (cache_span < 0 || cache_span > kMaxDenseSpan) return false;
  }

  const auto start = Clock::now();
  // A spilled previous trace is dropped, not decoded, before resizing.
  arena.trace.events.clear();
  arena.trace.events.resize(n);
  merge::Scratch& scratch = arena.merge_scratch;
  merge::LineDeriver deriver;
  merge::LineDeriver cache_deriver;
  if (needs_lines) {
    scratch.lines.resize(n);
    deriver.reset(arena.trace.layouts, config_.line_size);
  }
  if (separate_cache_lines) {
    scratch.cache_lines.resize(n);
    cache_deriver.reset(arena.trace.layouts, config_.cache->line_size);
  }
  const std::size_t window = static_cast<std::size_t>(par::num_threads()) + 1;
  merge::PrevBuilder prev_builder;
  if (config_.needs_distances()) {
    prev_builder.begin(scratch, n, distance_lo, distance_span, window);
  }
  const std::span<const std::int32_t> containers =
      arena.trace.events.container_column();
  const std::span<const std::int64_t> flats = arena.trace.events.flat_column();
  const bool needs_prev = config_.needs_distances();
  par::ordered_pipeline(
      plan.chunks.size(), window,
      [&](std::size_t c) {
        const TraceChunk& chunk = plan.chunks[c];
        simulate_chunk(sdfg, symbols, options, arena.trace, chunk,
                       arena.trace.events, /*absolute=*/true);
        const std::size_t begin =
            static_cast<std::size_t>(chunk.event_offset);
        const std::size_t end =
            begin + static_cast<std::size_t>(chunk.event_count);
        if (needs_lines) {
          deriver.derive(containers.data(), flats.data(), begin, end,
                         scratch.lines.data());
        }
        if (separate_cache_lines) {
          cache_deriver.derive(containers.data(), flats.data(), begin, end,
                               scratch.cache_lines.data());
        }
        if (needs_prev) {
          prev_builder.local_slice(scratch, scratch.lines.data(), begin, end,
                                   c % window);
        }
      },
      [&](std::size_t c) {
        if (needs_prev) prev_builder.stitch_slice(scratch, c % window);
      });
  arena.trace.executions = plan.total_executions;
  const double simulate_ms = ms_since(start);

  const auto metrics_start = Clock::now();
  std::span<const std::int64_t> lines;
  if (needs_lines) {
    lines = std::span<const std::int64_t>(scratch.lines.data(), n);
  }
  std::span<const std::int64_t> cache_lines = lines;
  if (separate_cache_lines) {
    cache_lines = std::span<const std::int64_t>(scratch.cache_lines.data(), n);
  }
  int partitions = 1;
  merge::finish_pass(config_, arena.trace,
                     arena.trace.events.container_column(),
                     arena.trace.events.flat_column(),
                     arena.trace.events.write_column(), lines, distance_lo,
                     distance_span, cache_lines, cache_lo, cache_span,
                     arena.trace.executions, scratch, result, partitions);
  timings_ = {simulate_ms, ms_since(metrics_start), partitions};
  return true;
}

PipelineResult MetricPipeline::run(const Sdfg& sdfg, const SymbolMap& symbols,
                                   const SimulationOptions& options) {
  arena_->ckpt_valid = false;
  arena_->live_valid = false;
  {
    PipelineResult result;
    if (try_run_fused_generation(sdfg, symbols, options, result)) {
      maybe_spill();
      return result;
    }
  }
  // A spilled previous trace is simply dropped here — simulate_into
  // clears the buffer, and clear() releases the backing without the
  // cost of decoding it.
  const auto start = Clock::now();
  simulate_into(sdfg, symbols, options, arena_->trace, &arena_->trace_arena);
  const double simulate_ms = ms_since(start);
  PipelineResult result = run(arena_->trace);
  timings_.simulate_ms = simulate_ms;
  maybe_spill();
  return result;
}

PipelineResult MetricPipeline::run_streaming(const Sdfg& sdfg,
                                             const SymbolMap& symbols,
                                             const SimulationOptions& options) {
  arena_->ckpt_valid = false;
  arena_->live_valid = false;
  const auto start = Clock::now();
  FusedPass pass(config_, *arena_);
  StreamingSink sink(config_, pass);
  AccessTrace header =
      simulate_stream(sdfg, symbols, sink, options, &arena_->trace_arena);
  PipelineResult result = pass.finish(
      header, static_cast<std::int64_t>(sink.events()), sink.executions());
  // Streaming interleaves generation and consumption; the breakdown
  // collapses into simulate_ms (see PhaseTimings).
  timings_ = {ms_since(start), 0.0, 1};
  return result;
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
// simulator's OUTPUT. lane_width is excluded on purpose: it is a
// bit-identical execution strategy, so changing it must not invalidate
// a checkpoint.
std::uint64_t delta_options_fingerprint(const SimulationOptions& options) {
  std::uint64_t hash = 1469598103934665603ull;
  auto mix = [&hash](std::uint64_t value) {
    hash ^= value;
    hash *= 1099511628211ull;
  };
  mix(static_cast<std::uint64_t>(options.placement_alignment));
  mix(options.wcr_reads ? 1 : 0);
  return hash;
}

// Streaming-style line-id bounds: derived from the header layouts alone
// (detail::line_range_of), with no widening to observed lines. For
// simulator-produced traces every event is in bounds, so this matches
// both run(trace) and run_streaming() bit for bit — the delta engine
// always replays simulator output, never hand-built traces.
void delta_line_bounds(const PipelineConfig& config, const AccessTrace& header,
                       std::int64_t& distance_lo, std::int64_t& distance_span,
                       std::int64_t& cache_lo, std::int64_t& cache_span) {
  distance_lo = distance_span = cache_lo = cache_span = 0;
  detail::line_range_of(header.layouts, config.line_size, distance_lo,
                        distance_span, nullptr);
  if (config.cache) {
    detail::line_range_of(header.layouts, config.cache->line_size, cache_lo,
                          cache_span, nullptr);
  }
}

// Feeds trace events [from, n) into the fused pass, deriving line ids
// per event from the header's addressing exactly like StreamingSink.
// With from > 0 the pass must have adopted the checkpointed live state.
void delta_replay(const PipelineConfig& config, FusedPass& pass,
                  const AccessTrace& trace, std::size_t from, std::size_t n) {
  const std::vector<detail::ContainerAddressing> addressing =
      detail::addressing_for(trace.layouts);
  const bool shared_cache_line =
      !config.cache || config.cache->line_size == config.line_size;
  const bool needs_line = config.needs_distances();
  const std::span<const std::int32_t> containers =
      trace.events.container_column();
  const std::span<const std::int64_t> flats = trace.events.flat_column();
  const std::span<const std::uint8_t> writes = trace.events.write_column();
  for (std::size_t i = from; i < n; ++i) {
    const detail::ContainerAddressing& addr =
        addressing[static_cast<std::size_t>(containers[i])];
    std::int64_t line = 0;
    std::int64_t cache_line = 0;
    if (needs_line || (config.cache && shared_cache_line)) {
      line = addr.line_of(flats[i], config.line_size);
      cache_line = line;
    }
    if (config.cache && !shared_cache_line) {
      cache_line = addr.line_of(flats[i], config.cache->line_size);
    }
    if (needs_line) pass.fenwick().ensure(i);
    pass.consume(i, containers[i], flats[i], writes[i] != 0, line,
                 cache_line);
  }
}

// Checkpoints the pass's raw state in the arena and returns a finalized
// deep copy — the caller-facing result. The raw live state is what the
// next delta step resumes from; it is never finalized itself.
PipelineResult delta_snapshot(FusedPass& pass, ArenaState& arena,
                              const AccessTrace& header, std::int64_t events,
                              std::int64_t executions) {
  PipelineResult raw = pass.take_raw();
  raw.events = events;
  raw.executions = executions;
  PipelineResult snapshot = raw;
  pass.finalize_into(header, snapshot);
  arena.live = std::move(raw);
  arena.live_valid = true;
  return snapshot;
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
    FusedPass pass(config, arena);
    result = arena.live;
    pass.finalize_into(arena.trace, result);
    timings = {0.0, ms_since(start), 1};
    return true;
  }

  const std::int64_t n_old = arena.ckpt_plan.total_events;
  if (n_old != static_cast<std::int64_t>(arena.trace.events.size())) {
    outcome.reason = "checkpoint trace out of sync";
    return false;
  }

  plan_trace_into(sdfg, symbols, options, kDeltaMaxChunks,
                  arena.scratch_plan);
  const TracePlan& plan_new = arena.scratch_plan;
  const TracePlan& plan_old = arena.ckpt_plan;
  if (!plan_new.parallelizable) {
    outcome.reason = "new binding not exactly plannable";
    return false;
  }

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
  // Both patch shapes write disjoint absolute slices (and the splice
  // reads the already-resident checkpoint columns), so the per-chunk
  // work fans out over the pool; chunk outputs are position-determined,
  // keeping the patched trace bit-identical at any thread count.
  if (in_place) {
    arena.trace.events.resize(n_new);  // Preserves the clean prefix.
    par::parallel_for(
        plan_new.chunks.size(), 1, [&](std::size_t begin, std::size_t end) {
          for (std::size_t idx = begin; idx < end; ++idx) {
            if (matches[idx].clean) continue;
            simulate_chunk(sdfg, symbols, options, arena.scratch_header,
                           plan_new.chunks[idx], arena.trace.events,
                           /*absolute=*/true);
          }
        });
  } else {
    arena.back_events.resize(n_new);
    par::parallel_for(
        plan_new.chunks.size(), 1, [&](std::size_t begin, std::size_t end) {
          for (std::size_t idx = begin; idx < end; ++idx) {
            const TraceChunk& nc = plan_new.chunks[idx];
            if (matches[idx].clean) {
              arena.back_events.assign_range(
                  arena.trace.events,
                  static_cast<std::size_t>(matches[idx].old_event_offset),
                  static_cast<std::size_t>(nc.event_offset),
                  static_cast<std::size_t>(nc.event_count),
                  nc.event_offset - matches[idx].old_event_offset,
                  nc.execution_offset - matches[idx].old_execution_offset);
            } else {
              simulate_chunk(sdfg, symbols, options, arena.scratch_header, nc,
                             arena.back_events, /*absolute=*/true);
            }
          }
        });
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
  // offsets, trace only grew, layouts untouched — RESUME the live fused
  // state and consume just the new suffix; anything else replays the
  // patched trace from event 0 (still skipping the simulator for clean
  // chunks, which is where the bulk of a cold step goes).
  const bool resumed =
      layout_clean && old_reused_in_place == old_chunk_count &&
      static_cast<std::int64_t>(n_new) >= n_old;
  FusedPass pass(config, arena);
  if (resumed) {
    pass.adopt(std::move(arena.live));
    arena.live_valid = false;
    delta_replay(config, pass, arena.trace,
                 static_cast<std::size_t>(n_old), n_new);
  } else {
    std::int64_t distance_lo = 0, distance_span = 0;
    std::int64_t cache_lo = 0, cache_span = 0;
    delta_line_bounds(config, arena.trace, distance_lo, distance_span,
                      cache_lo, cache_span);
    pass.begin(arena.trace, n_new, distance_lo, distance_span, cache_lo,
               cache_span);
    delta_replay(config, pass, arena.trace, 0, n_new);
  }
  result = delta_snapshot(pass, arena, arena.trace,
                          static_cast<std::int64_t>(n_new),
                          arena.trace.executions);

  outcome.path = DeltaOutcome::Path::kChunkDelta;
  outcome.reason = "";
  outcome.resumed = resumed;
  outcome.chunks_total = static_cast<std::int64_t>(new_chunk_count);
  outcome.chunks_clean = clean_chunks;
  outcome.chunks_dirty = outcome.chunks_total - clean_chunks;
  timings = {patch_ms, ms_since(metric_start), 1};
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
        // The splice below reads the checkpoint columns from parallel
        // workers; a spilled checkpoint must fault in on this thread
        // first.
        arena.trace.events.ensure_resident();
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
        maybe_spill();
        if (outcome_out) *outcome_out = outcome;
        return result;
      }
    }
  }

  // Cold path: full simulation + full fused replay, then arm the
  // checkpoint for the next step.
  outcome.path = DeltaOutcome::Path::kCold;
  arena.ckpt_valid = false;
  arena.live_valid = false;
  const auto cold_start = Clock::now();
  simulate_into(sdfg, symbols, options, arena.trace, &arena.trace_arena);
  const double cold_simulate_ms = ms_since(cold_start);
  const auto cold_metric_start = Clock::now();
  const std::size_t n = arena.trace.events.size();
  std::int64_t distance_lo = 0, distance_span = 0;
  std::int64_t cache_lo = 0, cache_span = 0;
  delta_line_bounds(config_, arena.trace, distance_lo, distance_span,
                    cache_lo, cache_span);
  FusedPass pass(config_, arena);
  pass.begin(arena.trace, n, distance_lo, distance_span, cache_lo,
             cache_span);
  delta_replay(config_, pass, arena.trace, 0, n);
  PipelineResult result =
      delta_snapshot(pass, arena, arena.trace, static_cast<std::int64_t>(n),
                     arena.trace.executions);
  timings_ = {cold_simulate_ms, ms_since(cold_metric_start), 1};

  plan_trace_into(sdfg, symbols, options, kDeltaMaxChunks, arena.ckpt_plan);
  if (arena.ckpt_plan.parallelizable &&
      arena.ckpt_plan.total_events == static_cast<std::int64_t>(n) &&
      arena.ckpt_plan.total_executions == arena.trace.executions) {
    arena.ckpt_valid = true;
    arena.ckpt_program = program_version;
    arena.ckpt_options = options_fp;
    arena.ckpt_binding = symbols;
  }
  maybe_spill();
  if (outcome_out) *outcome_out = outcome;
  return result;
}

std::size_t MetricPipeline::event_storage_bytes() const {
  return arena_->trace.events.capacity_bytes();
}

void MetricPipeline::set_spill(std::size_t budget_bytes, std::string dir) {
  spill_budget_bytes_ = budget_bytes;
  spill_dir_ = std::move(dir);
}

void MetricPipeline::maybe_spill() {
  if (spill_budget_bytes_ == 0) return;
  EventList& events = arena_->trace.events;
  if (events.spilled() || events.capacity_bytes() <= spill_budget_bytes_) {
    return;
  }
  store::spill_event_list(events, spill_dir_);
}

}  // namespace dmv::sim
