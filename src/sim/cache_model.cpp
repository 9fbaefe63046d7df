#include <stdexcept>
#include <unordered_set>

#include "dmv/par/par.hpp"
#include "dmv/sim/sim.hpp"
#include "metric_detail.hpp"

namespace dmv::sim {

MissReport classify_misses(const AccessTrace& trace,
                           const StackDistanceResult& distances,
                           std::int64_t threshold_lines) {
  if (threshold_lines <= 0) {
    throw std::invalid_argument(
        "classify_misses: threshold must be positive");
  }
  MissReport report;
  report.threshold_lines = threshold_lines;
  report.per_container.resize(trace.layouts.size());
  report.element_misses.reserve(trace.layouts.size());
  for (const ConcreteLayout& layout : trace.layouts) {
    report.element_misses.emplace_back(layout.total_elements(), 0);
  }

  // Sharded over event blocks with one accumulator per block (block
  // count capped by the thread knob; integer sums commute, so any
  // partition reproduces the serial tallies bit for bit).
  struct Partial {
    std::vector<MissStats> per_container;
    std::vector<std::vector<std::int64_t>> element_misses;
  };
  auto zero = [&] {
    Partial partial;
    partial.per_container.resize(trace.layouts.size());
    partial.element_misses.reserve(trace.layouts.size());
    for (const ConcreteLayout& layout : trace.layouts) {
      partial.element_misses.emplace_back(layout.total_elements(), 0);
    }
    return partial;
  };
  const std::size_t n = trace.events.size();
  const std::size_t grain =
      par::grain_for(n, static_cast<std::size_t>(par::num_threads()),
                     std::size_t{1} << 15);
  const std::span<const std::int32_t> containers =
      trace.events.container_column();
  const std::span<const std::int64_t> flats = trace.events.flat_column();
  Partial merged = par::parallel_reduce(
      n, grain, zero(),
      [&](std::size_t begin, std::size_t end) {
        Partial local = zero();
        for (std::size_t i = begin; i < end; ++i) {
          const std::int32_t container = containers[i];
          MissStats& stats = local.per_container[container];
          const std::int64_t distance = distances.distances[i];
          if (distance == kInfiniteDistance) {
            ++stats.cold;
            ++local.element_misses[container][flats[i]];
          } else if (distance >= threshold_lines) {
            // LRU with `threshold_lines` resident lines would have
            // evicted this line before the re-reference: capacity miss
            // (paper §V-F b).
            ++stats.capacity;
            ++local.element_misses[container][flats[i]];
          } else {
            ++stats.hits;
          }
        }
        return local;
      },
      [](Partial& acc, Partial&& block) {
        for (std::size_t c = 0; c < acc.per_container.size(); ++c) {
          acc.per_container[c].cold += block.per_container[c].cold;
          acc.per_container[c].capacity += block.per_container[c].capacity;
          acc.per_container[c].hits += block.per_container[c].hits;
          for (std::size_t e = 0; e < acc.element_misses[c].size(); ++e) {
            acc.element_misses[c][e] += block.element_misses[c][e];
          }
        }
      });
  report.per_container = std::move(merged.per_container);
  report.element_misses = std::move(merged.element_misses);
  for (const MissStats& stats : report.per_container) {
    report.total.cold += stats.cold;
    report.total.capacity += stats.capacity;
    report.total.hits += stats.hits;
  }
  return report;
}

namespace {

// One set's LRU simulation over its own (time-ordered) event slice.
// A line maps to exactly one set, so cold/capacity classification and
// residency are fully independent per set — this is what makes the
// per-set parallel pass below exact, not an approximation.
void simulate_set(std::span<const std::int32_t> containers,
                  const std::vector<std::size_t>& event_indices,
                  std::span<const std::int64_t> lines, std::int64_t ways,
                  std::vector<MissStats>& per_container) {
  detail::CacheSet set;
  std::unordered_set<std::int64_t> ever_seen;
  for (std::size_t index : event_indices) {
    const std::int64_t line = lines[index];
    MissStats& stats = per_container[containers[index]];
    if (set.access(line, ways)) {
      ++stats.hits;
      continue;
    }
    // Miss: cold if this line was never resident before.
    if (ever_seen.insert(line).second) {
      ++stats.cold;
    } else {
      ++stats.capacity;  // Includes conflict misses when num_sets > 1.
    }
  }
}

CacheSimResult simulate_cache_lines(const AccessTrace& trace,
                                    const CacheConfig& config,
                                    std::span<const std::int64_t> lines) {
  const detail::CacheGeometry geometry = detail::cache_geometry(config);
  const std::int64_t num_sets = geometry.num_sets;

  CacheSimResult result;
  result.config = config;
  result.per_container.resize(trace.layouts.size());

  // Bucket events by cache set (serial; time order preserved per set).
  const std::size_t n = trace.events.size();
  const std::span<const std::int32_t> containers =
      trace.events.container_column();
  std::vector<std::vector<std::size_t>> set_events(num_sets);
  for (std::size_t i = 0; i < n; ++i) {
    set_events[lines[i] % num_sets].push_back(i);
  }

  // Per-set LRU simulation, parallel over sets. Stats reduce by addition
  // in set order; sums commute, so the result matches the interleaved
  // serial simulation exactly.
  std::vector<std::vector<MissStats>> per_set(num_sets);
  par::parallel_for(
      static_cast<std::size_t>(num_sets), 1,
      [&](std::size_t begin, std::size_t end) {
        for (std::size_t s = begin; s < end; ++s) {
          per_set[s].resize(trace.layouts.size());
          simulate_set(containers, set_events[s], lines, geometry.ways,
                       per_set[s]);
        }
      });
  for (const std::vector<MissStats>& stats : per_set) {
    for (std::size_t c = 0; c < stats.size(); ++c) {
      result.per_container[c].cold += stats[c].cold;
      result.per_container[c].capacity += stats[c].capacity;
      result.per_container[c].hits += stats[c].hits;
    }
  }

  for (const MissStats& stats : result.per_container) {
    result.total.cold += stats.cold;
    result.total.capacity += stats.capacity;
    result.total.hits += stats.hits;
  }
  return result;
}

}  // namespace

CacheSimResult simulate_cache(const AccessTrace& trace,
                              const CacheConfig& config) {
  detail::cache_geometry(config);  // Geometry errors before any line work.
  // Line resolution happens once in the shared LineTable materializer
  // (parallel over events), then the per-set simulation consumes it.
  const LineTable table = build_line_table(trace, config.line_size);
  return simulate_cache_lines(trace, config, table.lines);
}

CacheSimResult simulate_cache(const AccessTrace& trace,
                              const CacheConfig& config,
                              const LineTable& table) {
  if (table.line_size != config.line_size) {
    throw std::invalid_argument(
        "simulate_cache: LineTable line size does not match cache config");
  }
  return simulate_cache_lines(trace, config, table.lines);
}

}  // namespace dmv::sim
