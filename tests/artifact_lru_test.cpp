// The one artifact LRU, driven through both tiers built on it: a
// Session's private tier and the sharded SharedArtifactCache. Covers
// eviction order under a byte budget, the newest-entry exemption, first
// writer wins, side-effect-free contains(), disk persistence of the
// metrics kind with no registration step, and concurrent insert/lookup
// on the shared tier. The suite is in the ASan/UBSan and TSan CI
// filters.

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "dmv/serve/server.hpp"
#include "dmv/session/artifact_cache.hpp"
#include "dmv/session/session.hpp"
#include "dmv/sim/pipeline.hpp"
#include "dmv/workloads/workloads.hpp"

namespace dmv::session {
namespace {

namespace fs = std::filesystem;

using symbolic::SymbolMap;

constexpr std::size_t kShards = SharedArtifactCache::kShards;
constexpr std::uint8_t kOtherKind = kMetricsArtifactKind + 1;

ArtifactKey key_for(std::uint8_t kind, std::uint64_t id) {
  ArtifactKey key;
  key.kind = kind;
  key.program_hash = id;
  key.binding = {{"K", static_cast<std::int64_t>(id)}};
  return key;
}

/// `n` distinct keys that hash to one shard, so a test can reason about
/// that shard's LRU order and budget.
std::vector<ArtifactKey> keys_in_one_shard(std::size_t n) {
  std::vector<ArtifactKey> keys;
  std::size_t shard = 0;
  for (std::uint64_t id = 0; keys.size() < n; ++id) {
    ArtifactKey key = key_for(kOtherKind, id);
    const std::size_t s = ArtifactKeyHash{}(key) % kShards;
    if (keys.empty()) shard = s;
    if (s == shard) keys.push_back(std::move(key));
  }
  return keys;
}

std::shared_ptr<const void> payload(std::int64_t value) {
  return std::make_shared<const std::int64_t>(value);
}

/// Shared tier whose every shard holds `per_shard` bytes.
SharedArtifactCache::Config per_shard_budget(std::size_t per_shard) {
  SharedArtifactCache::Config config;
  config.budget_bytes = per_shard * kShards;
  return config;
}

fs::path scratch_dir(const std::string& name) {
  const fs::path dir = fs::temp_directory_path() / ("dmv_lru_" + name);
  fs::remove_all(dir);
  return dir;
}

SessionConfig session_config(std::size_t budget_bytes) {
  SessionConfig config;
  config.prefetch = false;
  config.cache_budget_bytes = budget_bytes;
  return config;
}

ir::Sdfg small_hdiff() {
  return workloads::hdiff(workloads::HdiffVariant::Baseline);
}

SymbolMap at_k(std::int64_t k) { return {{"I", 4}, {"J", 4}, {"K", k}}; }

/// approx_size_bytes of the metrics artifact at each K — what the
/// session LRU charges for it.
std::size_t metrics_bytes(std::int64_t k) {
  Session session(small_hdiff(), session_config(std::size_t{1} << 30));
  session.set_binding(at_k(k));
  return sim::approx_size_bytes(*session.metrics());
}

// --- Shared tier -------------------------------------------------------

TEST(ArtifactLruTest, SharedTierEvictsLeastRecentlyUsedFirst) {
  const std::vector<ArtifactKey> keys = keys_in_one_shard(5);
  SharedArtifactCache cache(per_shard_budget(300));
  for (int i = 0; i < 3; ++i) cache.insert(keys[i], payload(i), 100);
  EXPECT_EQ(cache.stats().evictions, 0);

  ASSERT_NE(cache.lookup(keys[0]), nullptr);  // Order: 0, 2, 1.
  cache.insert(keys[3], payload(3), 100);     // Evicts 1.
  EXPECT_TRUE(cache.contains(keys[0]));
  EXPECT_FALSE(cache.contains(keys[1]));
  EXPECT_TRUE(cache.contains(keys[2]));
  EXPECT_TRUE(cache.contains(keys[3]));

  cache.insert(keys[4], payload(4), 100);  // Order was 3, 0, 2: evicts 2.
  EXPECT_FALSE(cache.contains(keys[2]));
  EXPECT_TRUE(cache.contains(keys[0]));
  const SharedCacheStats stats = cache.stats();
  EXPECT_EQ(stats.evictions, 2);
  EXPECT_EQ(stats.entries, 3u);
  EXPECT_EQ(stats.bytes, 300u);
}

TEST(ArtifactLruTest, SharedTierKeepsTheNewestEntryOverBudget) {
  const std::vector<ArtifactKey> keys = keys_in_one_shard(3);
  SharedArtifactCache cache(per_shard_budget(100));
  cache.insert(keys[0], payload(0), 50);
  cache.insert(keys[1], payload(1), 500);  // Alone over budget: kept.
  EXPECT_FALSE(cache.contains(keys[0]));
  ASSERT_NE(cache.lookup(keys[1]), nullptr);
  EXPECT_EQ(cache.stats().bytes, 500u);
  EXPECT_EQ(cache.stats().entries, 1u);

  cache.insert(keys[2], payload(2), 10);  // The oversized one goes now.
  EXPECT_FALSE(cache.contains(keys[1]));
  EXPECT_TRUE(cache.contains(keys[2]));
  EXPECT_EQ(cache.stats().bytes, 10u);
  EXPECT_EQ(cache.stats().evictions, 2);
}

TEST(ArtifactLruTest, SharedTierFirstWriterWins) {
  SharedArtifactCache cache;
  const ArtifactKey key = key_for(kOtherKind, 7);
  const std::shared_ptr<const void> first = payload(1);
  cache.insert(key, first, 10);
  cache.insert(key, payload(2), 20);
  std::size_t bytes = 0;
  EXPECT_EQ(cache.lookup(key, &bytes), first);
  EXPECT_EQ(bytes, 10u);
  const SharedCacheStats stats = cache.stats();
  EXPECT_EQ(stats.insertions, 1);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.bytes, 10u);
}

TEST(ArtifactLruTest, ContainsTouchesNeitherOrderNorCounters) {
  const std::vector<ArtifactKey> keys = keys_in_one_shard(4);
  SharedArtifactCache cache(per_shard_budget(200));
  cache.insert(keys[0], payload(0), 100);
  cache.insert(keys[1], payload(1), 100);
  EXPECT_TRUE(cache.contains(keys[0]));  // Would refresh 0 if it touched.
  EXPECT_FALSE(cache.contains(keys[3]));
  SharedCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 0);
  EXPECT_EQ(stats.misses, 0);

  cache.insert(keys[2], payload(2), 100);  // 0 is still the LRU victim.
  EXPECT_FALSE(cache.contains(keys[0]));
  EXPECT_TRUE(cache.contains(keys[1]));
  stats = cache.stats();
  EXPECT_EQ(stats.hits, 0);
  EXPECT_EQ(stats.misses, 0);
}

TEST(ArtifactLruTest, ConcurrentInsertAndLookupOnTheSharedTier) {
  constexpr int kThreads = 8;
  constexpr int kOps = 4000;
  constexpr std::uint64_t kKeys = 96;
  constexpr std::size_t kBytes = 100;
  SharedArtifactCache cache(per_shard_budget(4 * kBytes));
  std::atomic<std::int64_t> lookups{0};
  std::atomic<bool> wrong_value{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int op = 0; op < kOps; ++op) {
        const std::uint64_t id = (static_cast<std::uint64_t>(op) * 7 + t) %
                                 kKeys;
        const ArtifactKey key = key_for(kOtherKind, id);
        if (op % 5 == 0) {
          cache.contains(key);
          continue;
        }
        ++lookups;
        if (std::shared_ptr<const void> hit = cache.lookup(key)) {
          if (*static_cast<const std::int64_t*>(hit.get()) !=
              static_cast<std::int64_t>(id)) {
            wrong_value = true;
          }
        } else {
          cache.insert(key, payload(static_cast<std::int64_t>(id)), kBytes);
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  EXPECT_FALSE(wrong_value);
  const SharedCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits + stats.misses, lookups.load());
  EXPECT_EQ(stats.insertions - stats.evictions,
            static_cast<std::int64_t>(stats.entries));
  EXPECT_EQ(stats.bytes, stats.entries * kBytes);
  EXPECT_LE(stats.bytes, kShards * 4 * kBytes);
  EXPECT_GT(stats.evictions, 0);  // 96 keys do not fit 64 slots.
}

// --- Session tier ------------------------------------------------------

TEST(ArtifactLruTest, SessionEvictsLeastRecentlyUsedFirst) {
  const std::size_t k2 = metrics_bytes(2);
  const std::size_t k3 = metrics_bytes(3);
  const std::size_t k4 = metrics_bytes(4);
  // Room for all but one of the three artifacts.
  Session session(small_hdiff(), session_config(k2 + k3 + k4 - 1));
  for (std::int64_t k : {2, 3, 2, 4}) {  // The repeat of 2 refreshes it.
    session.set_binding(at_k(k));
    session.metrics();
  }
  SessionStats stats = session.stats();
  EXPECT_EQ(stats.misses, 3);
  EXPECT_EQ(stats.hits, 1);
  EXPECT_EQ(stats.evictions, 1);
  EXPECT_EQ(stats.cache_entries, 2u);
  EXPECT_EQ(stats.cache_bytes, k2 + k4);

  for (std::int64_t k : {2, 4}) {  // Survivors hit ...
    session.set_binding(at_k(k));
    session.metrics();
  }
  EXPECT_EQ(session.stats().hits, 3);
  session.set_binding(at_k(3));  // ... and the victim was K=3.
  session.metrics();
  EXPECT_EQ(session.stats().misses, 4);
}

TEST(ArtifactLruTest, SessionKeepsTheNewestEntryOverBudget) {
  Session session(small_hdiff(), session_config(1));
  session.set_binding(at_k(2));
  session.metrics();
  SessionStats stats = session.stats();
  EXPECT_EQ(stats.cache_entries, 1u);
  EXPECT_EQ(stats.evictions, 0);
  EXPECT_EQ(stats.cache_bytes, metrics_bytes(2));

  session.set_binding(at_k(3));
  session.metrics();
  stats = session.stats();
  EXPECT_EQ(stats.cache_entries, 1u);
  EXPECT_EQ(stats.evictions, 1);
  EXPECT_EQ(stats.cache_bytes, metrics_bytes(3));
}

TEST(ArtifactLruTest, SessionsShareTheFirstWritersArtifact) {
  auto shared = std::make_shared<SharedArtifactCache>();
  SessionConfig config = session_config(std::size_t{64} << 20);
  config.shared_cache = shared;
  Session first(small_hdiff(), config);
  Session second(small_hdiff(), config);
  first.set_binding(at_k(3));
  second.set_binding(at_k(3));

  const std::shared_ptr<const sim::PipelineResult> computed = first.metrics();
  EXPECT_EQ(second.metrics(), computed);  // The same object, not a copy.
  EXPECT_EQ(second.stats().shared_hits, 1);
  EXPECT_EQ(second.stats().misses, 0);
  EXPECT_EQ(shared->stats().insertions, 1);
  // The promotion charged the second session's own tier.
  EXPECT_EQ(second.stats().cache_bytes, first.stats().cache_bytes);
}

// --- Disk persistence --------------------------------------------------

TEST(ArtifactLruTest, MetricsPersistToDiskWithoutRegistration) {
  const fs::path dir = scratch_dir("persist");
  SharedArtifactCache::Config config;
  config.disk_dir = dir.string();
  sim::MetricPipeline pipeline(sim::PipelineConfig{});
  const auto metrics = std::make_shared<const sim::PipelineResult>(
      pipeline.run(workloads::matmul(), workloads::matmul_fig5()));
  const ArtifactKey metrics_key = key_for(kMetricsArtifactKind, 1);
  const ArtifactKey other_key = key_for(kOtherKind, 1);
  {
    SharedArtifactCache cache(config);
    cache.insert(metrics_key, metrics, 1024);
    cache.insert(other_key, payload(5), 8);  // RAM only.
    const SharedCacheStats stats = cache.stats();
    EXPECT_EQ(stats.disk_writes, 1);
    EXPECT_EQ(stats.disk_entries, 1u);
  }

  SharedArtifactCache restarted(config);
  EXPECT_TRUE(restarted.contains(metrics_key));
  EXPECT_FALSE(restarted.contains(other_key));
  const std::shared_ptr<const void> hit = restarted.lookup(metrics_key);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(serve::result_checksum(
                *static_cast<const sim::PipelineResult*>(hit.get())),
            serve::result_checksum(*metrics));
  EXPECT_EQ(restarted.lookup(other_key), nullptr);
  EXPECT_EQ(restarted.stats().disk_hits, 1);
  fs::remove_all(dir);
}

TEST(ArtifactLruTest, SessionMetricsSurviveARestartThroughDisk) {
  const fs::path dir = scratch_dir("session_restart");
  SharedArtifactCache::Config shared_config;
  shared_config.disk_dir = dir.string();
  std::int64_t cold_checksum = 0;
  {
    SessionConfig config = session_config(std::size_t{64} << 20);
    config.shared_cache = std::make_shared<SharedArtifactCache>(shared_config);
    Session session(small_hdiff(), config);
    session.set_binding(at_k(3));
    cold_checksum = serve::result_checksum(*session.metrics());
    EXPECT_EQ(config.shared_cache->stats().disk_writes, 1);
  }

  SessionConfig config = session_config(std::size_t{64} << 20);
  config.shared_cache = std::make_shared<SharedArtifactCache>(shared_config);
  Session session(small_hdiff(), config);
  session.set_binding(at_k(3));
  EXPECT_EQ(serve::result_checksum(*session.metrics()), cold_checksum);
  EXPECT_EQ(session.stats().misses, 0);
  EXPECT_EQ(session.stats().shared_hits, 1);
  EXPECT_EQ(config.shared_cache->stats().disk_hits, 1);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace dmv::session
