#include <stdexcept>

#include "dmv/sim/hierarchy.hpp"
#include "metric_detail.hpp"

namespace dmv::sim {

namespace {

// One set-associative LRU cache, line-granular.
class Cache {
 public:
  Cache(std::int64_t total_lines, int ways) {
    if (ways == 0) {
      ways_ = total_lines;
      sets_.resize(1);
    } else {
      ways_ = ways;
      const std::int64_t num_sets = total_lines / ways;
      if (num_sets <= 0) {
        throw std::invalid_argument(
            "hierarchy: associativity exceeds level size");
      }
      sets_.resize(num_sets);
    }
  }

  /// Returns true on hit; on miss the line is installed (with LRU
  /// eviction).
  bool access(std::int64_t line) {
    return sets_[static_cast<std::size_t>(
                     line % static_cast<std::int64_t>(sets_.size()))]
        .access(line, ways_);
  }

 private:
  std::int64_t ways_ = 0;
  std::vector<detail::CacheSet> sets_;
};

}  // namespace

HierarchyConfig HierarchyConfig::typical(std::int64_t divisor) {
  if (divisor <= 0) {
    throw std::invalid_argument("HierarchyConfig: divisor must be positive");
  }
  HierarchyConfig config;
  config.line_size = 64;
  // Floors keep every level at least one full set (ways * line bytes).
  config.levels = {
      CacheLevel{"L1", std::max<std::int64_t>(8 * 64, 32 * 1024 / divisor),
                 8},
      CacheLevel{"L2",
                 std::max<std::int64_t>(8 * 64, 512 * 1024 / divisor), 8},
      CacheLevel{"L3",
                 std::max<std::int64_t>(16 * 64, 8 * 1024 * 1024 / divisor),
                 16},
  };
  return config;
}

std::int64_t HierarchyResult::total_hits(int level) const {
  std::int64_t total = 0;
  for (std::int64_t value : hits.at(level)) total += value;
  return total;
}

std::int64_t HierarchyResult::total_memory_accesses() const {
  std::int64_t total = 0;
  for (std::int64_t value : memory_accesses) total += value;
  return total;
}

std::int64_t HierarchyResult::bytes_into_level(int level) const {
  // Misses at `level` = everything that reached it minus its hits =
  // hits of deeper levels + memory accesses.
  std::int64_t misses = total_memory_accesses();
  for (std::size_t deeper = level + 1; deeper < hits.size(); ++deeper) {
    misses += total_hits(static_cast<int>(deeper));
  }
  return misses * config.line_size;
}

HierarchyResult simulate_hierarchy(const AccessTrace& trace,
                                   const HierarchyConfig& config) {
  if (config.levels.empty()) {
    throw std::invalid_argument("simulate_hierarchy: no cache levels");
  }
  if (config.line_size <= 0) {
    throw std::invalid_argument("simulate_hierarchy: bad line size");
  }
  for (std::size_t l = 1; l < config.levels.size(); ++l) {
    if (config.levels[l].total_size < config.levels[l - 1].total_size) {
      throw std::invalid_argument(
          "simulate_hierarchy: level sizes must be non-decreasing");
    }
  }

  std::vector<Cache> caches;
  caches.reserve(config.levels.size());
  for (const CacheLevel& level : config.levels) {
    const std::int64_t lines = level.total_size / config.line_size;
    if (lines <= 0) {
      throw std::invalid_argument("simulate_hierarchy: level '" +
                                  level.name + "' smaller than a line");
    }
    caches.emplace_back(lines, level.ways);
  }

  HierarchyResult result;
  result.config = config;
  result.containers = trace.containers;
  result.hits.assign(config.levels.size(),
                     std::vector<std::int64_t>(trace.layouts.size(), 0));
  result.memory_accesses.assign(trace.layouts.size(), 0);

  for (const AccessEvent& event : trace.events) {
    const ConcreteLayout& layout = trace.layouts[event.container];
    const std::int64_t line =
        layout.byte_address(layout.unflatten(event.flat)) /
        config.line_size;
    bool satisfied = false;
    // Inclusive hierarchy: a miss installs the line at EVERY level it
    // passed through, so lower levels stay supersets of upper ones.
    for (std::size_t l = 0; l < caches.size(); ++l) {
      if (caches[l].access(line)) {
        ++result.hits[l][event.container];
        // Refresh recency in the upper levels only (already done for
        // levels 0..l via their own access calls above).
        satisfied = true;
        break;
      }
    }
    if (!satisfied) ++result.memory_accesses[event.container];
  }
  return result;
}

}  // namespace dmv::sim
