#include "metric_merge.hpp"

#include <algorithm>
#include <limits>
#include <span>
#include <stdexcept>
#include <type_traits>

#include "dmv/par/par.hpp"

namespace dmv::sim::merge {

namespace {

// Beyond this many dense slots, the last-seen table is a hash map
// (hand-built traces can place containers at arbitrary addresses) and
// the pass runs as one segment.
constexpr std::int64_t kMaxDenseSpan = std::int64_t{1} << 26;
// Worker-partition cap for every phase. It bounds setup and merge
// overhead, never results (every phase is exact at any count):
//   * distance segments pay ~n * (P + 1) / 2 total Fenwick build work,
//   * cache partitions each scan the whole line column once,
//   * consumer segments each hold per-element partial arrays.
constexpr std::size_t kMaxSegments = 8;
// Below this many events per segment, more segments only add overhead.
constexpr std::size_t kMinSegmentEvents = 4096;
// Per-consumer-segment partial arrays are capped at this many bytes in
// total (fewer segments for element-heavy traces).
constexpr std::size_t kPartialBudgetBytes = std::size_t{128} << 20;
// Dense slice-local last-seen tables are capped at this many total
// entries across all slices (hash fallback above).
constexpr std::int64_t kLocalDenseEntries = std::int64_t{1} << 25;
// Flat MRU-first array LRU up to this associativity; list + hash above.
constexpr std::int64_t kSmallWays = 64;
// Events per block of the single-segment driver.
constexpr std::size_t kBlockEvents = 4096;

// Workers the calling thread can use. Parallel constructs inside a pool
// task, or while another caller's job holds the pool, run inline, so a
// pass started there runs as one segment: the segmented pass does more
// total work and only pays off when its segments run concurrently.
std::size_t workers() {
  if (par::in_parallel_region() || par::pool_busy()) return 1;
  return static_cast<std::size_t>(std::max(1, par::num_threads()));
}

/// Balanced contiguous split of [0, n): at most max_parts parts, none
/// smaller than min_grain (fewer parts for small n, never 0 for n > 0).
std::size_t segment_count(std::size_t n, std::size_t max_parts,
                          std::size_t min_grain) {
  if (n == 0) return 0;
  if (min_grain == 0) min_grain = 1;
  const std::size_t cap = (n + min_grain - 1) / min_grain;
  return std::max<std::size_t>(1, std::min(max_parts, cap));
}

/// k-th boundary of the balanced split of [0, n) into `parts` parts:
/// segment k is [segment_begin(n, parts, k), segment_begin(n, parts,
/// k + 1)). Depends only on (n, parts).
std::size_t segment_begin(std::size_t n, std::size_t parts,
                          std::size_t k) {
  return n / parts * k + std::min(k, n % parts);
}

// Per-event line-id derivation with a vectorization-friendly fast path:
// when every layout is contiguous at a non-negative base and the line
// size is a power of two, line = (base[c] + flat * esize[c]) >> shift —
// a branchless affine gather loop the compiler can unroll and
// vectorize, with no hardware division. Other layouts take the general
// ContainerAddressing path per event.
class LineDeriver {
 public:
  void reset(const std::vector<layout::ConcreteLayout>& layouts,
             int line_size) {
    addressing_ = detail::addressing_for(layouts);
    line_size_ = line_size;
    base_.resize(layouts.size());
    esize_.resize(layouts.size());
    bool fast = line_size > 0 && (line_size & (line_size - 1)) == 0;
    for (std::size_t c = 0; c < addressing_.size(); ++c) {
      base_[c] = addressing_[c].base;
      esize_[c] = addressing_[c].element_size;
      fast = fast && addressing_[c].contiguous && addressing_[c].base >= 0;
    }
    shift_ = -1;
    if (fast) {
      int shift = 0;
      while ((1 << shift) != line_size) ++shift;
      shift_ = shift;
    }
  }

  /// out[k] = line of event k, for k in [0, count).
  void derive(const std::int32_t* containers, const std::int64_t* flats,
              std::size_t count, std::int64_t* out) const {
    if (shift_ >= 0) {
      const std::int64_t* base = base_.data();
      const std::int64_t* esize = esize_.data();
      const int shift = shift_;
      for (std::size_t i = 0; i < count; ++i) {
        const std::size_t c = static_cast<std::size_t>(containers[i]);
        out[i] = (base[c] + flats[i] * esize[c]) >> shift;
      }
      return;
    }
    for (std::size_t i = 0; i < count; ++i) {
      out[i] = addressing_[static_cast<std::size_t>(containers[i])].line_of(
          flats[i], line_size_);
    }
  }

 private:
  std::vector<detail::ContainerAddressing> addressing_;
  std::vector<std::int64_t> base_;
  std::vector<std::int64_t> esize_;
  int line_size_ = 64;
  int shift_ = -1;  ///< >= 0 selects the affine fast path.
};

// The line columns a config reads: distance-granularity ids whenever
// distances are needed or the cache shares their line size, and a
// second column only for a cache with its own line size.
struct LineNeeds {
  bool distances = false;
  bool lines = false;
  bool cache_lines = false;

  explicit LineNeeds(const PipelineConfig& config)
      : distances(config.needs_distances()),
        cache_lines(config.cache && config.cache->line_size !=
                                        config.line_size) {
    lines = distances || (config.cache && !cache_lines);
  }
};

void sized(std::vector<std::vector<std::int64_t>>& arrays, bool enabled,
           const std::vector<layout::ConcreteLayout>& layouts) {
  if (!enabled) {
    arrays.clear();
    return;
  }
  arrays.resize(layouts.size());
  for (std::size_t c = 0; c < layouts.size(); ++c) {
    arrays[c].assign(static_cast<std::size_t>(layouts[c].total_elements()),
                     0);
  }
}

}  // namespace

void Tallies::reset(const PipelineConfig& config,
                    const std::vector<layout::ConcreteLayout>& layouts) {
  const std::size_t containers = layouts.size();
  const bool misses_on = config.miss_threshold_lines > 0;
  events = 0;
  executions = 0;
  sized(reads, config.counts, layouts);
  sized(writes, config.counts, layouts);
  sized(element_misses, misses_on, layouts);
  misses.assign(misses_on ? containers : 0, {});
  sized(cold, config.element_stats, layouts);
  finite.resize(config.element_stats ? containers : 0);
  for (auto& pairs : finite) pairs.clear();
  cache.assign(config.cache ? containers : 0, {});
  distances.clear();
}

namespace {

// Widens layout-derived bounds [lo, hi] to the line ids events [0, n)
// actually map to (parallel min/max over blocks derived on the fly).
void widen_bounds(const LineDeriver& deriver,
                  std::span<const std::int32_t> containers,
                  std::span<const std::int64_t> flats, std::int64_t& lo,
                  std::int64_t& hi) {
  struct MinMax {
    std::int64_t lo;
    std::int64_t hi;
  };
  const MinMax folded = par::parallel_reduce(
      containers.size(), std::size_t{1} << 16, MinMax{lo, hi},
      [&](std::size_t begin, std::size_t end) {
        MinMax local{std::numeric_limits<std::int64_t>::max(),
                     std::numeric_limits<std::int64_t>::min()};
        std::int64_t block[kBlockEvents];
        for (std::size_t s = begin; s < end; s += kBlockEvents) {
          const std::size_t count = std::min(kBlockEvents, end - s);
          deriver.derive(containers.data() + s, flats.data() + s, count,
                         block);
          for (std::size_t k = 0; k < count; ++k) {
            local.lo = std::min(local.lo, block[k]);
            local.hi = std::max(local.hi, block[k]);
          }
        }
        return local;
      },
      [](MinMax& acc, MinMax&& block) {
        acc.lo = std::min(acc.lo, block.lo);
        acc.hi = std::max(acc.hi, block.hi);
      });
  lo = folded.lo;
  hi = folded.hi;
}

// Line bounds [lo, lo + span) of one line size: layout-derived, and
// widened to the observed ids when asked. An empty widened trace has an
// empty span.
void line_bounds(const AccessTrace& trace, int line_size, bool widen,
                 std::int64_t& lo, std::int64_t& span) {
  detail::line_range_of(trace.layouts, line_size, lo, span, nullptr);
  if (!widen) return;
  if (trace.events.size() == 0) {
    span = 0;
    return;
  }
  LineDeriver deriver;
  deriver.reset(trace.layouts, line_size);
  std::int64_t hi = lo + span - 1;
  widen_bounds(deriver, trace.events.container_column(),
               trace.events.flat_column(), lo, hi);
  span = hi - lo + 1;
}

// One distinct line's first and last occurrence inside a slice — the
// only state the left-to-right stitch needs from a slice.
struct Boundary {
  std::int64_t line = 0;
  std::int64_t first = 0;
  std::int64_t last = 0;
};

// Phase A of the N-segment distances: prev[i] = position of the previous
// access to event i's line, or -1, and next[] its inverse (INT32_MAX for
// a line's last access; the segmented pass only runs below 2^31 events). Slices build local last-seen tables in
// parallel; the stitch then walks the slices left to right and resolves
// each slice's first occurrences against `last_seen` (fresh, dense over
// [lo, lo + span)), which ends up holding every line's last position —
// the resumable table.
void compute_prev(std::span<const std::int64_t> lines, std::int64_t lo,
                  std::int64_t span, std::size_t parts, LocalSeen& last_seen,
                  std::int32_t* prev, std::int32_t* next) {
  const std::size_t n = lines.size();
  const bool dense_local =
      span <= kLocalDenseEntries / static_cast<std::int64_t>(parts);
  std::vector<std::vector<Boundary>> boundaries(parts);
  par::parallel_tasks(parts, [&](std::size_t k) {
    const std::size_t begin = segment_begin(n, parts, k);
    const std::size_t end = segment_begin(n, parts, k + 1);
    LocalSeen seen;
    if (dense_local) {
      seen.reset_dense(lo, span);
    } else {
      seen.reset_hash(end - begin);
    }
    std::vector<Boundary>& boundary = boundaries[k];
    std::fill(next + begin, next + end,
              std::numeric_limits<std::int32_t>::max());
    for (std::size_t i = begin; i < end; ++i) {
      const std::int64_t line = lines[i];
      const std::int64_t prior =
          seen.exchange(line, static_cast<std::int64_t>(i));
      if (prior >= 0) {
        prev[i] = static_cast<std::int32_t>(prior);
        next[prior] = static_cast<std::int32_t>(i);
      } else {
        boundary.push_back({line, static_cast<std::int64_t>(i), 0});
      }
    }
    for (Boundary& b : boundary) b.last = seen.get(b.line);
  });
  for (const std::vector<Boundary>& boundary : boundaries) {
    for (const Boundary& b : boundary) {
      const std::int64_t p = last_seen.exchange(b.line, b.last);
      prev[b.first] = static_cast<std::int32_t>(p);
      if (p >= 0) next[p] = static_cast<std::int32_t>(b.first);
    }
  }
}

// Phase B over one segment [s, e): rebuild the serial Fenwick state at
// event s from the next-occurrence array in `fen` (capacity >= e), then
// run the exact serial Olken update loop. Every mark sits at a position
// < i (each line's most recent occurrence), so range(p + 1, i) ==
// distinct - prefix(p): one tree descent per event instead of two.
// Returns the distinct-line count at e.
std::int64_t count_segment(const std::int32_t* prev,
                           const std::int32_t* next, std::size_t s,
                           std::size_t e, std::size_t capacity,
                           Fenwick32& fen, std::int64_t* distances) {
  std::int64_t distinct =
      fen.reset_marked(capacity, next, s, static_cast<std::int64_t>(s));
  for (std::size_t i = s; i < e; ++i) {
    const std::int64_t p = prev[i];
    std::int64_t distance;
    if (p < 0) {
      distance = kInfiniteDistance;
      ++distinct;
    } else {
      const std::size_t position = static_cast<std::size_t>(p);
      distance = distinct - fen.prefix(position);
      fen.add(position, -1);
    }
    fen.add(i, +1);
    distances[i] = distance;
  }
  return distinct;
}

// Simulates the cache sets in [set_begin, set_end) over `count` events
// (relative pointers) and skips every event of another set. A line maps
// to exactly one set, so partitions touch disjoint LRU state and
// disjoint `seen` bytes, and each per-set access subsequence equals the
// serial one.
void cache_range(CacheState& state, const std::int32_t* containers,
                 const std::int64_t* cache_lines, std::size_t count,
                 std::int64_t set_begin, std::int64_t set_end,
                 MissStats* per_container) {
  const std::int64_t ways = state.geometry.ways;
  const std::int64_t num_sets = state.geometry.num_sets;
  const bool small = ways <= kSmallWays;
  const bool pow2 = (num_sets & (num_sets - 1)) == 0;
  const std::int64_t mask = num_sets - 1;
  const std::uint64_t set_count =
      static_cast<std::uint64_t>(set_end - set_begin);
  std::uint8_t* seen = state.seen.data();
  const std::int64_t seen_lo = state.seen_lo;
  auto miss = [&](std::int64_t line, MissStats& stats) {
    std::uint8_t& was_seen = seen[static_cast<std::size_t>(line - seen_lo)];
    if (!was_seen) {
      was_seen = 1;
      ++stats.cold;
    } else {
      ++stats.capacity;
    }
  };
  for (std::size_t i = 0; i < count; ++i) {
    const std::int64_t line = cache_lines[i];
    const std::int64_t set = pow2 ? (line & mask) : (line % num_sets);
    if (static_cast<std::uint64_t>(set - set_begin) >= set_count) continue;
    MissStats& stats = per_container[static_cast<std::size_t>(containers[i])];
    if (small) {
      std::int64_t* entry = state.small.data() +
                            static_cast<std::size_t>(set) *
                                static_cast<std::size_t>(ways);
      std::int64_t found = -1;
      for (std::int64_t w = 0; w < ways; ++w) {
        const std::int64_t resident = entry[w];
        if (resident == line) {
          found = w;
          break;
        }
        if (resident < 0) break;  // Empty tail — not resident.
      }
      if (found >= 0) {
        ++stats.hits;
      } else {
        miss(line, stats);
        found = ways - 1;
      }
      for (std::int64_t w = found; w > 0; --w) entry[w] = entry[w - 1];
      entry[0] = line;
    } else {
      WideSet& set_state = state.wide[static_cast<std::size_t>(set)];
      auto it = set_state.where.find(line);
      if (it != set_state.where.end()) {
        ++stats.hits;
        set_state.lru.splice(set_state.lru.begin(), set_state.lru,
                             it->second);
      } else {
        miss(line, stats);
        set_state.lru.push_front(line);
        set_state.where[line] = set_state.lru.begin();
        if (static_cast<std::int64_t>(set_state.lru.size()) > ways) {
          set_state.where.erase(set_state.lru.back());
          set_state.lru.pop_back();
        }
      }
    }
  }
}

// The order-insensitive consumers over `count` events (relative
// pointers; `distances` may be null when no consumer reads it),
// accumulated into `into`.
void consume_range(const PipelineConfig& config,
                   const std::int32_t* containers, const std::int64_t* flats,
                   const std::uint8_t* writes, const std::int64_t* distances,
                   std::size_t count, Tallies& into) {
  if (config.counts) {
    // Branch-free column select: rw[0..C) = per-container read arrays,
    // rw[C..2C) = write arrays.
    const std::size_t num_containers = into.reads.size();
    std::vector<std::int64_t*> rw(2 * num_containers);
    for (std::size_t c = 0; c < num_containers; ++c) {
      rw[c] = into.reads[c].data();
      rw[num_containers + c] = into.writes[c].data();
    }
    for (std::size_t i = 0; i < count; ++i) {
      const std::size_t c = static_cast<std::size_t>(containers[i]);
      ++rw[(writes[i] ? num_containers : 0) + c]
          [static_cast<std::size_t>(flats[i])];
    }
  }
  if (config.miss_threshold_lines > 0) {
    const std::int64_t threshold = config.miss_threshold_lines;
    for (std::size_t i = 0; i < count; ++i) {
      const std::size_t c = static_cast<std::size_t>(containers[i]);
      const std::int64_t distance = distances[i];
      MissStats& stats = into.misses[c];
      if (distance == kInfiniteDistance) {
        ++stats.cold;
        ++into.element_misses[c][static_cast<std::size_t>(flats[i])];
      } else if (distance >= threshold) {
        ++stats.capacity;
        ++into.element_misses[c][static_cast<std::size_t>(flats[i])];
      } else {
        ++stats.hits;
      }
    }
  }
  if (config.element_stats) {
    for (std::size_t i = 0; i < count; ++i) {
      const std::size_t c = static_cast<std::size_t>(containers[i]);
      const std::int64_t distance = distances[i];
      if (distance == kInfiniteDistance) {
        ++into.cold[c][static_cast<std::size_t>(flats[i])];
      } else {
        into.finite[c].emplace_back(flats[i], distance);
      }
    }
  }
}

void add_stats(MissStats& into, const MissStats& from) {
  into.cold += from.cold;
  into.capacity += from.capacity;
  into.hits += from.hits;
}

// Merges segment partials 1..P-1 into segment 0's tallies: per-element
// arrays by integer addition (one pool task per array and container),
// the rest serially. Pairs concatenate in ascending segment order, which
// reproduces the serial event order exactly.
void merge_partials(const PipelineConfig& config, Tallies& into,
                    const std::vector<Tallies>& partials) {
  if (partials.empty()) return;
  using Arrays = std::vector<std::vector<std::int64_t>> Tallies::*;
  std::vector<Arrays> members;
  if (config.counts) {
    members.push_back(&Tallies::reads);
    members.push_back(&Tallies::writes);
  }
  if (config.miss_threshold_lines > 0) {
    members.push_back(&Tallies::element_misses);
  }
  if (config.element_stats) members.push_back(&Tallies::cold);
  // Consumer segments only run with one of these enabled; the first
  // one's outer size is the container count.
  const std::size_t containers = (into.*members.front()).size();
  par::parallel_tasks(members.size() * containers, [&](std::size_t t) {
    const Arrays member = members[t / containers];
    const std::size_t c = t % containers;
    std::vector<std::int64_t>& out = (into.*member)[c];
    for (const Tallies& partial : partials) {
      const std::vector<std::int64_t>& add = (partial.*member)[c];
      for (std::size_t i = 0; i < out.size(); ++i) out[i] += add[i];
    }
  });
  if (config.miss_threshold_lines > 0) {
    for (const Tallies& partial : partials) {
      for (std::size_t c = 0; c < into.misses.size(); ++c) {
        add_stats(into.misses[c], partial.misses[c]);
      }
    }
  }
  if (config.element_stats) {
    for (std::size_t c = 0; c < into.finite.size(); ++c) {
      std::size_t total = into.finite[c].size();
      for (const Tallies& partial : partials) {
        total += partial.finite[c].size();
      }
      into.finite[c].reserve(total);
      for (const Tallies& partial : partials) {
        into.finite[c].insert(into.finite[c].end(), partial.finite[c].begin(),
                              partial.finite[c].end());
      }
    }
  }
}

void reset_cache(const PipelineConfig& config, std::int64_t lo,
                 std::int64_t span, CacheState& state) {
  if (!config.cache) {
    state = CacheState{};
    return;
  }
  if (span < 0 || span > kMaxDenseSpan) {
    throw std::invalid_argument(
        "MetricPipeline: cache line-id range too sparse for the fused "
        "cache consumer");
  }
  if (lo < 0) {
    throw std::invalid_argument("MetricPipeline: negative cache line id");
  }
  state.geometry = detail::cache_geometry(*config.cache);
  const std::size_t sets = static_cast<std::size_t>(state.geometry.num_sets);
  if (state.geometry.ways <= kSmallWays) {
    state.small.assign(sets * static_cast<std::size_t>(state.geometry.ways),
                       -1);
    state.wide.clear();
  } else {
    state.small.clear();
    state.wide.clear();
    state.wide.resize(sets);
  }
  state.seen.assign(static_cast<std::size_t>(span), 0);
  state.seen_lo = lo;
}

// Single-segment driver: consumes events [from, to) in fixed-size
// blocks, advancing `live` exactly like the serial Olken loop. The
// tables must be sized for the trace and, when distances are needed,
// live.fenwick must have capacity >= to.
void consume_blocks(const PipelineConfig& config, const AccessTrace& trace,
                    std::size_t from, std::size_t to, Live& live) {
  const LineNeeds needs(config);
  LineDeriver deriver;
  LineDeriver cache_deriver;
  if (needs.lines) deriver.reset(trace.layouts, config.line_size);
  if (needs.cache_lines) {
    cache_deriver.reset(trace.layouts, config.cache->line_size);
  }
  std::vector<std::int64_t> lines(needs.lines ? kBlockEvents : 0);
  std::vector<std::int64_t> cache_lines(needs.cache_lines ? kBlockEvents : 0);
  std::vector<std::int64_t> block_distances(
      needs.distances && !config.keep_distances ? kBlockEvents : 0);
  Tallies& tallies = live.tallies;
  if (config.keep_distances) tallies.distances.resize(to);
  const std::int64_t num_sets =
      config.cache ? live.cache.geometry.num_sets : 0;

  const std::int32_t* containers = trace.events.container_column().data();
  const std::int64_t* flats = trace.events.flat_column().data();
  const std::uint8_t* writes = trace.events.write_column().data();
  for (std::size_t s = from; s < to; s += kBlockEvents) {
    const std::size_t count = std::min(kBlockEvents, to - s);
    if (needs.lines) {
      deriver.derive(containers + s, flats + s, count, lines.data());
    }
    if (needs.cache_lines) {
      cache_deriver.derive(containers + s, flats + s, count,
                           cache_lines.data());
    }
    std::int64_t* distances = nullptr;
    if (needs.distances) {
      distances = config.keep_distances ? tallies.distances.data() + s
                                        : block_distances.data();
      // Every mark sits at a position < i (each line's most recent
      // occurrence), so range(p + 1, i) == distinct - prefix(p): one
      // tree descent per event instead of two.
      for (std::size_t k = 0; k < count; ++k) {
        const std::size_t i = s + k;
        const std::int64_t p =
            live.last_seen.exchange(lines[k], static_cast<std::int64_t>(i));
        std::int64_t distance;
        if (p < 0) {
          distance = kInfiniteDistance;
          if (++live.distinct > std::numeric_limits<std::int32_t>::max()) {
            throw std::length_error(
                "MetricPipeline: more distinct lines than the Fenwick "
                "node type holds");
          }
        } else {
          const std::size_t position = static_cast<std::size_t>(p);
          distance = live.distinct - live.fenwick.prefix(position);
          live.fenwick.add(position, -1);
        }
        live.fenwick.add(i, +1);
        distances[k] = distance;
      }
    }
    consume_range(config, containers + s, flats + s, writes + s, distances,
                  count, tallies);
    if (config.cache) {
      cache_range(live.cache, containers + s,
                  needs.cache_lines ? cache_lines.data() : lines.data(),
                  count, 0, num_sets, tallies.cache.data());
    }
  }
  tallies.events = static_cast<std::int64_t>(to);
}

}  // namespace

int consume_all(const PipelineConfig& config, const AccessTrace& trace,
                bool widen, Live& live) {
  const std::size_t n = trace.events.size();
  const LineNeeds needs(config);
  Tallies& tallies = live.tallies;
  tallies.reset(config, trace.layouts);
  tallies.executions = trace.executions;

  std::int64_t lo = 0, span = 0;
  if (needs.lines) line_bounds(trace, config.line_size, widen, lo, span);
  std::int64_t cache_lo = lo, cache_span = span;
  if (needs.cache_lines) {
    line_bounds(trace, config.cache->line_size, widen, cache_lo, cache_span);
  }
  reset_cache(config, cache_lo, cache_span, live.cache);
  const bool dense = span <= kMaxDenseSpan;
  if (needs.distances) {
    if (dense) {
      live.last_seen.reset_dense(lo, span);
    } else {
      live.last_seen.reset_hash(n);
    }
  }

  const std::size_t parts =
      segment_count(n, std::min(workers(), kMaxSegments), kMinSegmentEvents);
  const bool segmentable =
      !needs.distances ||
      (dense && n <= static_cast<std::size_t>(
                         std::numeric_limits<std::int32_t>::max()));
  // The live Fenwick keeps its capacity across passes, so a slider that
  // moves back and forth resumes without regrowing it.
  const std::size_t live_capacity = std::max(n, live.fenwick.capacity());
  if (parts <= 1 || !segmentable) {
    if (needs.distances) {
      live.fenwick.reset_marked(live_capacity, nullptr, 0, 0);
      live.distinct = 0;
    }
    consume_blocks(config, trace, 0, n, live);
    return 1;
  }

  const std::span<const std::int32_t> containers =
      trace.events.container_column();
  const std::span<const std::int64_t> flats = trace.events.flat_column();
  const std::span<const std::uint8_t> writes = trace.events.write_column();
  auto derive_column = [&](int line_size, std::vector<std::int64_t>& out) {
    LineDeriver deriver;
    deriver.reset(trace.layouts, line_size);
    out.resize(n);
    par::parallel_for(n, std::size_t{1} << 14,
                      [&](std::size_t begin, std::size_t end) {
                        deriver.derive(containers.data() + begin,
                                       flats.data() + begin, end - begin,
                                       out.data() + begin);
                      });
  };
  std::vector<std::int64_t> lines;
  std::vector<std::int64_t> cache_lines;
  if (needs.lines) derive_column(config.line_size, lines);
  if (needs.cache_lines) derive_column(config.cache->line_size, cache_lines);

  // --- Distances (phase A, then phase B per segment) and the
  // set-partitioned cache, in one task batch. ------------------------
  std::vector<std::int32_t> prev;
  std::vector<std::int32_t> next;
  std::vector<std::int64_t> distance_column;
  std::int64_t* distances = nullptr;
  std::size_t distance_parts = 0;
  if (needs.distances) {
    distance_parts = parts;
    prev.resize(n);
    next.resize(n);
    compute_prev(lines, lo, span, parts, live.last_seen, prev.data(),
                 next.data());
    // Past phase A only a cache sharing the line size reads them.
    if (!config.cache || needs.cache_lines) lines = {};
    std::vector<std::int64_t>& column =
        config.keep_distances ? tallies.distances : distance_column;
    column.resize(n);
    distances = column.data();
  }
  std::size_t cache_parts = 0;
  std::vector<std::vector<MissStats>> cache_stats;
  if (config.cache) {
    const std::size_t sets =
        static_cast<std::size_t>(live.cache.geometry.num_sets);
    cache_parts = std::min({workers(), kMaxSegments, sets});
    cache_stats.assign(cache_parts,
                       std::vector<MissStats>(trace.layouts.size()));
  }
  const std::int64_t* cache_column =
      needs.cache_lines ? cache_lines.data() : lines.data();
  par::parallel_tasks(distance_parts + cache_parts, [&](std::size_t t) {
    if (t + 1 == distance_parts) {
      // The last segment ends in the state a resume continues from, so
      // it counts on the live Fenwick.
      live.distinct =
          count_segment(prev.data(), next.data(), segment_begin(n, parts, t),
                        n, live_capacity, live.fenwick, distances);
      return;
    }
    if (t < distance_parts) {
      const std::size_t e = segment_begin(n, parts, t + 1);
      Fenwick32 fen;
      count_segment(prev.data(), next.data(), segment_begin(n, parts, t), e,
                    e, fen, distances);
      return;
    }
    const std::size_t p = t - distance_parts;
    const std::size_t sets =
        static_cast<std::size_t>(live.cache.geometry.num_sets);
    cache_range(live.cache, containers.data(), cache_column, n,
                static_cast<std::int64_t>(segment_begin(sets, cache_parts, p)),
                static_cast<std::int64_t>(
                    segment_begin(sets, cache_parts, p + 1)),
                cache_stats[p].data());
  });
  for (const std::vector<MissStats>& part : cache_stats) {
    for (std::size_t c = 0; c < part.size(); ++c) {
      add_stats(tallies.cache[c], part[c]);
    }
  }
  // Free the per-event columns before the consumer partials allocate.
  lines = {};
  cache_lines = {};
  prev = {};
  next = {};

  // --- Order-insensitive consumer segments: segment 0 accumulates
  // straight into the tallies, the rest into partials merged after. ---
  std::size_t consumer_parts = 0;
  if (config.counts || config.miss_threshold_lines > 0 ||
      config.element_stats) {
    std::size_t arrays = 0;
    if (config.counts) arrays += 2;
    if (config.miss_threshold_lines > 0) arrays += 1;
    if (config.element_stats) arrays += 1;
    std::size_t partial_bytes = 0;
    for (const layout::ConcreteLayout& layout : trace.layouts) {
      partial_bytes += static_cast<std::size_t>(layout.total_elements()) *
                       arrays * sizeof(std::int64_t);
    }
    consumer_parts = parts;
    if (partial_bytes > 0) {
      consumer_parts = std::min<std::size_t>(
          consumer_parts,
          std::max<std::size_t>(1, kPartialBudgetBytes / partial_bytes));
    }
    std::vector<Tallies> partials(consumer_parts - 1);
    par::parallel_tasks(consumer_parts, [&](std::size_t w) {
      Tallies* into = &tallies;
      if (w > 0) {
        into = &partials[w - 1];
        into->reset(config, trace.layouts);
      }
      const std::size_t s = segment_begin(n, consumer_parts, w);
      const std::size_t e = segment_begin(n, consumer_parts, w + 1);
      consume_range(config, containers.data() + s, flats.data() + s,
                    writes.data() + s, distances ? distances + s : nullptr,
                    e - s, *into);
    });
    merge_partials(config, tallies, partials);
  }
  tallies.events = static_cast<std::int64_t>(n);
  return static_cast<int>(std::max({parts, cache_parts, consumer_parts}));
}

void consume_suffix(const PipelineConfig& config, const AccessTrace& trace,
                    Live& live) {
  const std::size_t from = static_cast<std::size_t>(live.tallies.events);
  const std::size_t to = trace.events.size();
  if (config.needs_distances() && live.fenwick.capacity() < to) {
    // Doubling keeps regrowth amortized O(1) per event; the marks come
    // back from the last-seen table.
    live.distinct = live.fenwick.reset_from(
        std::max(to, 2 * live.fenwick.capacity()), live.last_seen);
  }
  live.tallies.executions = trace.executions;
  consume_blocks(config, trace, from, to, live);
}

PipelineResult finalize(const PipelineConfig& config,
                        const AccessTrace& header, Tallies& tallies,
                        bool spend) {
  auto take = [spend](auto& value) {
    using Value = std::decay_t<decltype(value)>;
    return spend ? Value(std::move(value)) : Value(value);
  };
  PipelineResult result;
  result.events = tallies.events;
  result.executions = tallies.executions;
  result.containers = header.containers;
  const std::size_t num_containers = header.layouts.size();
  if (config.counts) {
    result.counts.reads = take(tallies.reads);
    result.counts.writes = take(tallies.writes);
  }
  if (config.keep_distances) {
    result.distances.line_size = config.line_size;
    result.distances.distances = take(tallies.distances);
  }
  if (config.miss_threshold_lines > 0) {
    result.misses.threshold_lines = config.miss_threshold_lines;
    result.misses.per_container = tallies.misses;
    result.misses.element_misses = take(tallies.element_misses);
    for (const MissStats& stats : result.misses.per_container) {
      add_stats(result.misses.total, stats);
    }
  }
  if (config.element_stats) {
    result.element_stats.assign(num_containers, {});
    std::vector<std::int64_t> offsets;
    std::vector<std::int64_t> sorted;
    for (std::size_t c = 0; c < num_containers; ++c) {
      result.element_stats[c].cold_count = take(tallies.cold[c]);
      detail::finalize_element_stats(header.layouts[c].total_elements(),
                                     tallies.finite[c], offsets, sorted,
                                     result.element_stats[c]);
    }
  }
  if (config.cache) {
    result.cache.config = *config.cache;
    result.cache.per_container = tallies.cache;
    for (const MissStats& stats : result.cache.per_container) {
      add_stats(result.cache.total, stats);
    }
  }
  if (config.movement) {
    result.movement.line_size = config.line_size;
    result.movement.bytes_per_container.reserve(num_containers);
    for (const MissStats& stats : result.misses.per_container) {
      const std::int64_t bytes = stats.misses() * config.line_size;
      result.movement.bytes_per_container.push_back(bytes);
      result.movement.total_bytes += bytes;
    }
  }
  return result;
}

}  // namespace dmv::sim::merge
