#pragma once

// The one byte-budgeted LRU of immutable artifacts (not installed;
// include only from src/session). Both cache tiers are built on it: the
// session's private tier (session.cpp) is one instance, and the
// process-global tier (artifact_cache.cpp) is a fixed set of
// separately locked instances. Its rules:
//
//   - first writer wins: inserting a key that is present changes
//     nothing (racing producers computed identical bytes anyway);
//   - eviction drops least-recently-used entries until the byte budget
//     holds, but never the entry just inserted, so one artifact larger
//     than the budget still caches (a cache that cannot hold one result
//     would just thrash, and recomputing is deterministic anyway);
//   - contains() touches neither LRU order nor any counter.
//
// Hit and miss counters belong to the callers. Not thread-safe.

#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <unordered_map>
#include <utility>

#include "dmv/session/artifact_cache.hpp"

namespace dmv::session::detail {

class ArtifactLru {
 public:
  struct Entry {
    ArtifactKey key;
    std::shared_ptr<const void> value;
    std::size_t bytes = 0;    ///< The caller's approximate payload size.
    bool prefetched = false;  ///< Session tier: speculative, not yet hit.
  };

  explicit ArtifactLru(std::size_t budget_bytes) : budget_(budget_bytes) {}

  /// The entry under `key`, refreshed to most recently used, or null.
  Entry* lookup(const ArtifactKey& key) {
    auto it = index_.find(key);
    if (it == index_.end()) return nullptr;
    entries_.splice(entries_.begin(), entries_, it->second);
    return &*it->second;
  }

  bool contains(const ArtifactKey& key) const { return index_.contains(key); }

  /// Adds `entry` unless its key is present (then returns false), and
  /// evicts down to the budget, adding each eviction to `evictions`.
  bool insert(Entry entry, std::int64_t& evictions) {
    if (index_.contains(entry.key)) return false;
    bytes_ += entry.bytes;
    entries_.push_front(std::move(entry));
    index_.emplace(entries_.front().key, entries_.begin());
    while (bytes_ > budget_ && entries_.size() > 1) {
      const Entry& victim = entries_.back();
      bytes_ -= victim.bytes;
      index_.erase(victim.key);
      entries_.pop_back();
      ++evictions;
    }
    return true;
  }

  std::size_t bytes() const { return bytes_; }
  std::size_t size() const { return entries_.size(); }

  void clear() {
    entries_.clear();
    index_.clear();
    bytes_ = 0;
  }

 private:
  std::size_t budget_;
  std::size_t bytes_ = 0;
  std::list<Entry> entries_;  ///< Front = most recently used.
  std::unordered_map<ArtifactKey, std::list<Entry>::iterator, ArtifactKeyHash>
      index_;
};

}  // namespace dmv::session::detail
