#pragma once

// The metric engine (internal; include only from src/sim).
//
// Every MetricPipeline driver consumes events through the kernels in
// this module; the standalone passes (stack_distance.cpp,
// cache_model.cpp, related.cpp, movement.cpp) stay separate as the
// independent oracles the tests compare against. The kernels:
//
//   * line-id derivation — a vectorization-friendly affine kernel over
//     the SoA columns (per-container base/element-size tables, shift
//     instead of hardware division for power-of-two line sizes);
//   * stack distances — Olken's last-seen table plus a Fenwick tree of
//     most-recent positions. One segment runs the loop directly; N
//     segments first build prev[] (per-slice local last-seen tables
//     stitched left to right), then count each segment on a Fenwick
//     bulk-rebuilt at its start from the next-occurrence array;
//   * exact LRU cache — partitioned by cache set: a line maps to
//     exactly one set, so each worker scans the whole line column but
//     touches only its sets and per-set LRU order is preserved exactly;
//   * order-insensitive consumers (counts, miss classification,
//     element-stat pairs) — per-segment tallies reduced in ascending
//     segment order by integer addition and concatenation.
//
// Two drivers share the kernels. consume_all() runs a fresh pass over a
// whole trace, in N segments when the trace is large enough and one
// otherwise; consume_suffix() resumes a previous pass and consumes only
// the appended events, one segment in fixed-size blocks. Every result
// is the same integers at any (thread, segment, partition) count.
//
// State: `Live` is everything that survives a call — the resumable
// state of one pass. Per-event scratch (line ids, prev/next, distances,
// segment tallies) is local to one call; the single-segment driver
// needs none beyond its fixed-size block buffers.

#include <cstddef>
#include <cstdint>
#include <list>
#include <unordered_map>
#include <utility>
#include <vector>

#include "dmv/sim/pipeline.hpp"
#include "dmv/sim/sim.hpp"
#include "metric_detail.hpp"

namespace dmv::sim::merge {

// line -> most recent event position (-1 = not seen). Dense over the
// line span when that is reasonable, hash otherwise.
class LocalSeen {
 public:
  void reset_dense(std::int64_t lo, std::int64_t span) {
    dense_ = true;
    lo_ = lo;
    values_.assign(static_cast<std::size_t>(span), -1);
    hash_ = {};
  }
  void reset_hash(std::size_t expected) {
    dense_ = false;
    values_ = {};
    hash_.clear();
    hash_.reserve(expected);
  }
  /// Stores `value` for `line`, returning the previous value (-1 when
  /// the line was not seen yet).
  std::int64_t exchange(std::int64_t line, std::int64_t value) {
    std::int64_t& slot =
        dense_ ? values_[static_cast<std::size_t>(line - lo_)]
               : hash_.try_emplace(line, -1).first->second;
    const std::int64_t previous = slot;
    slot = value;
    return previous;
  }
  std::int64_t get(std::int64_t line) const {
    if (dense_) return values_[static_cast<std::size_t>(line - lo_)];
    const auto it = hash_.find(line);
    return it == hash_.end() ? -1 : it->second;
  }
  /// Calls fn(position) for every line seen so far.
  template <typename Fn>
  void for_each_position(Fn&& fn) const {
    if (dense_) {
      for (const std::int64_t position : values_) {
        if (position >= 0) fn(position);
      }
    } else {
      for (const auto& [line, position] : hash_) fn(position);
    }
  }

 private:
  bool dense_ = true;
  std::int64_t lo_ = 0;
  std::vector<std::int64_t> values_;
  std::unordered_map<std::int64_t, std::int64_t> hash_;
};

// Fenwick tree over event positions; a mark at p means "some line's
// most recent access is at p". Nodes are int32: a node sums a subset of
// the marks, and there is one mark per distinct line seen, so a node
// never exceeds the distinct-line count. Dense line spans are capped at
// 2^26 lines; the hash path checks the count against INT32_MAX (see
// metric_merge.cpp). Both bulk builds are O(capacity): leaf values,
// then one parent-propagation sweep.
class Fenwick32 {
 public:
  /// Zeroes positions [0, n), then marks every j < marked_prefix with
  /// next[j] >= threshold — the serial state "j carries a mark iff j is
  /// the most recent occurrence of its line among the first `threshold`
  /// events". `next` may be null when marked_prefix == 0. Returns the
  /// number of marks.
  std::int64_t reset_marked(std::size_t n, const std::int32_t* next,
                            std::size_t marked_prefix,
                            std::int64_t threshold) {
    tree_.assign(n + 1, 0);
    std::int64_t marks = 0;
    for (std::size_t j = 0; j < marked_prefix; ++j) {
      if (next[j] >= threshold) {
        tree_[j + 1] = 1;
        ++marks;
      }
    }
    build();
    return marks;
  }

  /// Zeroes positions [0, n) and marks every position `last_seen`
  /// holds. Returns the number of marks (distinct lines).
  std::int64_t reset_from(std::size_t n, const LocalSeen& last_seen) {
    tree_.assign(n + 1, 0);
    std::int64_t marks = 0;
    last_seen.for_each_position([&](std::int64_t position) {
      tree_[static_cast<std::size_t>(position) + 1] = 1;
      ++marks;
    });
    build();
    return marks;
  }

  std::size_t capacity() const { return tree_.empty() ? 0 : tree_.size() - 1; }

  void add(std::size_t position, int delta) {
    for (std::size_t i = position + 1; i < tree_.size(); i += i & (~i + 1)) {
      tree_[i] += delta;
    }
  }

  /// Sum of marks in [0, position].
  std::int64_t prefix(std::size_t position) const {
    std::int64_t sum = 0;
    for (std::size_t i = position + 1; i > 0; i -= i & (~i + 1)) {
      sum += tree_[i];
    }
    return sum;
  }

 private:
  void build() {
    const std::size_t size = tree_.size();
    for (std::size_t i = 1; i < size; ++i) {
      const std::size_t parent = i + (i & (~i + 1));
      if (parent < size) tree_[parent] += tree_[i];
    }
  }

  std::vector<std::int32_t> tree_;  ///< 1-based; size capacity + 1.
};

// Per-event consumer outputs before finalization: the resumable tallies
// of a pass, and the shape of each segment's partial tallies. Only the
// vectors of enabled consumers are sized.
struct Tallies {
  std::int64_t events = 0;
  std::int64_t executions = 0;
  std::vector<std::vector<std::int64_t>> reads;           // [container][elem]
  std::vector<std::vector<std::int64_t>> writes;          // [container][elem]
  std::vector<std::vector<std::int64_t>> element_misses;  // [container][elem]
  std::vector<std::vector<std::int64_t>> cold;            // [container][elem]
  std::vector<MissStats> misses;                          // [container]
  /// (flat, distance) pairs of finite-distance events, in event order.
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>>
      finite;                                             // [container]
  std::vector<MissStats> cache;                           // [container]
  std::vector<std::int64_t> distances;  ///< keep_distances only.

  /// Zeroes the tallies and sizes those of the consumers `config`
  /// enables; the others are emptied.
  void reset(const PipelineConfig& config,
             const std::vector<layout::ConcreteLayout>& layouts);
};

// Exact LRU state of every cache set. Small associativities use a flat
// MRU-first array per set (line ids are non-negative, -1 marks an empty
// way); larger ones use a list + hash per set. Set partitions work on
// disjoint set ranges of the same arrays.
struct WideSet {
  std::list<std::int64_t> lru;
  std::unordered_map<std::int64_t, std::list<std::int64_t>::iterator> where;
};
struct CacheState {
  detail::CacheGeometry geometry;
  std::vector<std::int64_t> small;  ///< [set * ways + way].
  std::vector<WideSet> wide;        ///< [set].
  std::vector<std::uint8_t> seen;   ///< Cache line ever resident.
  std::int64_t seen_lo = 0;
};

// The resumable state of one pass: what consume_suffix() needs to go on
// exactly where the producing pass stopped.
struct Live {
  Tallies tallies;
  LocalSeen last_seen;      ///< Distance-granularity line -> last position.
  Fenwick32 fenwick;        ///< Marks at every line's last position.
  std::int64_t distinct = 0;  ///< Marks in `fenwick`.
  CacheState cache;
};

/// Fresh pass over every event of `trace`: resets `live` and consumes
/// events [0, n). N segments when the trace is large enough, the caller
/// is not inside a pool task and the distance line span is dense; one
/// segment otherwise. `widen` widens the layout-derived line bounds to
/// the observed ids (hand-built traces with out-of-buffer addresses);
/// simulator output never needs it. Throws std::invalid_argument for a
/// cache line span too sparse for the dense `seen` table. Returns the
/// largest worker-partition count used (1 = one segment).
int consume_all(const PipelineConfig& config, const AccessTrace& trace,
                bool widen, Live& live);

/// Append-only resume: consumes events [live.tallies.events, n) of
/// `trace` into `live`, which must hold the state of a pass over the
/// first live.tallies.events events of the same trace under the same
/// layouts. Single segment, fixed-size blocks.
void consume_suffix(const PipelineConfig& config, const AccessTrace& trace,
                    Live& live);

/// The caller-facing result of a pass: the tallies plus the folded
/// totals, element statistics and movement. Per-element tallies are
/// moved out when `spend` is set (the pass will not be resumed) and
/// copied otherwise. `header` supplies the container names and layouts.
PipelineResult finalize(const PipelineConfig& config,
                        const AccessTrace& header, Tallies& tallies,
                        bool spend);

}  // namespace dmv::sim::merge
