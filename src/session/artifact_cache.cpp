#include "dmv/session/artifact_cache.hpp"

#include <mutex>

#include "artifact_lru.hpp"
#include "dmv/store/artifact_store.hpp"
#include "dmv/util/fnv1a.hpp"

namespace dmv::session {

std::size_t ArtifactKeyHash::operator()(const ArtifactKey& key) const {
  std::uint64_t hash = util::fnv1a(util::kFnvOffset, key.kind);
  hash = util::fnv1a(
      hash, static_cast<std::uint64_t>(static_cast<std::int64_t>(key.aux)));
  hash = util::fnv1a(hash, key.program_hash);
  hash = util::fnv1a(hash, key.config_hash);
  for (const auto& [name, value] : key.binding) {
    hash = util::fnv1a(hash, util::fnv1a_string(name));
    hash = util::fnv1a(hash, static_cast<std::uint64_t>(value));
  }
  return static_cast<std::size_t>(hash);
}

struct SharedArtifactCache::Shard {
  explicit Shard(std::size_t budget) : lru(budget) {}

  mutable std::mutex mutex;
  detail::ArtifactLru lru;
  std::int64_t hits = 0;
  std::int64_t misses = 0;
  std::int64_t insertions = 0;
  std::int64_t evictions = 0;
};

SharedArtifactCache::SharedArtifactCache() : SharedArtifactCache(Config{}) {}

SharedArtifactCache::SharedArtifactCache(Config config)
    : config_(std::move(config)) {
  shards_.reserve(kShards);
  for (std::size_t s = 0; s < kShards; ++s) {
    shards_.push_back(std::make_unique<Shard>(config_.budget_bytes / kShards));
  }
  if (!config_.disk_dir.empty()) {
    store::DiskArtifactCache::Config disk_config;
    disk_config.dir = config_.disk_dir;
    disk_config.budget_bytes = config_.disk_budget_bytes;
    disk_ = std::make_unique<store::DiskArtifactCache>(std::move(disk_config));
  }
}

SharedArtifactCache::~SharedArtifactCache() = default;

SharedArtifactCache::Shard& SharedArtifactCache::shard_for(
    const ArtifactKey& key) const {
  return *shards_[ArtifactKeyHash{}(key) % kShards];
}

bool SharedArtifactCache::persists(const ArtifactKey& key) const {
  return disk_ != nullptr && key.kind == kMetricsArtifactKind;
}

std::shared_ptr<const void> SharedArtifactCache::lookup(
    const ArtifactKey& key, std::size_t* bytes_out) {
  {
    Shard& shard = shard_for(key);
    std::lock_guard<std::mutex> lock(shard.mutex);
    if (const detail::ArtifactLru::Entry* entry = shard.lru.lookup(key)) {
      ++shard.hits;
      if (bytes_out) *bytes_out = entry->bytes;
      return entry->value;
    }
    ++shard.misses;
  }
  // RAM miss: probe the persistent tier (outside the shard lock — disk
  // I/O must not serialize unrelated keys). A decode failure is a miss;
  // a hit is promoted into the RAM shard WITHOUT writing back to disk.
  if (!persists(key)) return nullptr;
  std::string payload;
  if (!disk_->load(key, payload)) return nullptr;
  std::shared_ptr<const void> value = store::decode_pipeline_result(payload);
  if (value == nullptr) return nullptr;
  insert_ram(key, value, payload.size());
  if (bytes_out) *bytes_out = payload.size();
  return value;
}

bool SharedArtifactCache::contains(const ArtifactKey& key) const {
  {
    Shard& shard = shard_for(key);
    std::lock_guard<std::mutex> lock(shard.mutex);
    if (shard.lru.contains(key)) return true;
  }
  return persists(key) && disk_->contains(key);
}

bool SharedArtifactCache::insert_ram(const ArtifactKey& key,
                                     std::shared_ptr<const void> value,
                                     std::size_t bytes) {
  Shard& shard = shard_for(key);
  std::lock_guard<std::mutex> lock(shard.mutex);
  if (!shard.lru.insert({key, std::move(value), bytes}, shard.evictions)) {
    return false;
  }
  ++shard.insertions;
  return true;
}

void SharedArtifactCache::insert(const ArtifactKey& key,
                                 std::shared_ptr<const void> value,
                                 std::size_t bytes) {
  // Write-through on fresh inserts only (a racing loser's artifact is
  // bit-identical by the determinism contract, so one write suffices).
  if (!insert_ram(key, value, bytes) || !persists(key)) return;
  disk_->store(key, store::encode_pipeline_result(
                        *static_cast<const sim::PipelineResult*>(value.get())));
}

SharedCacheStats SharedArtifactCache::stats() const {
  SharedCacheStats stats;
  for (const std::unique_ptr<Shard>& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    stats.hits += shard->hits;
    stats.misses += shard->misses;
    stats.insertions += shard->insertions;
    stats.evictions += shard->evictions;
    stats.bytes += shard->lru.bytes();
    stats.entries += shard->lru.size();
  }
  if (disk_) {
    const store::DiskArtifactCache::Stats disk = disk_->stats();
    stats.disk_hits = disk.hits;
    stats.disk_misses = disk.misses;
    stats.disk_writes = disk.writes;
    stats.disk_bytes = disk.bytes;
    stats.disk_entries = disk.files;
  }
  return stats;
}

void SharedArtifactCache::clear() {
  for (const std::unique_ptr<Shard>& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    shard->lru.clear();
  }
}

}  // namespace dmv::session
