// Pinned content hashes and cache keys.
//
// Artifact keys name files in the persistent cache directory and must
// hash identically across processes, hosts and releases. These tests
// pin them to golden values, so a change to the hashing code that
// moved a key (and with it every on-disk artifact name) fails here
// rather than showing up as a silently cold cache.

#include <cstdint>
#include <string>

#include <gtest/gtest.h>

#include "dmv/serve/server.hpp"
#include "dmv/session/artifact_cache.hpp"
#include "dmv/session/session.hpp"
#include "dmv/sim/pipeline.hpp"
#include "dmv/sim/sim.hpp"
#include "dmv/store/artifact_store.hpp"
#include "dmv/util/json.hpp"
#include "dmv/workloads/workloads.hpp"

namespace dmv {
namespace {

// The golden values were recorded before the cache code was
// consolidated; they must never change without a format bump.
session::ArtifactKey pinned_key() {
  session::ArtifactKey key;
  key.kind = 0;
  key.aux = -1;
  key.program_hash = 0x0123456789abcdefull;
  key.config_hash = 0xfedcba9876543210ull;
  key.binding = {{"I", 8}, {"K", -5}};
  return key;
}

TEST(ArtifactKeyTest, PipelineFingerprintsArePinned) {
  EXPECT_EQ(sim::fingerprint(sim::PipelineConfig{}), 5091732037374535576ull);

  sim::PipelineConfig all;
  all.counts = true;
  all.miss_threshold_lines = 8;
  all.keep_distances = true;
  all.element_stats = true;
  all.cache = sim::CacheConfig{};
  all.movement = true;
  EXPECT_EQ(sim::fingerprint(all), 16316771627092128202ull);
}

TEST(ArtifactKeyTest, KeyHashesArePinned) {
  const session::ArtifactKey key = pinned_key();
  EXPECT_EQ(static_cast<std::uint64_t>(session::ArtifactKeyHash{}(key)),
            18383766131213737926ull);
  EXPECT_EQ(store::artifact_key_hash64(key), 16732231599022066083ull);
}

TEST(ArtifactKeyTest, SessionKeyOfHdiffIsPinned) {
  serve::Server server;
  const json::Value opened = json::parse(server.handle(
      "{\"id\":1,\"method\":\"open_program\",\"params\":{\"session\":\"a\","
      "\"workload\":\"hdiff\",\"binding\":{\"I\":8,\"J\":8,\"K\":5}}}"));
  ASSERT_TRUE(opened.has("result")) << json::dump(opened);
  EXPECT_EQ(opened.at("result").at("program_hash").as_string(),
            "0x1be4c241cea8753a");

  session::Session session(
      workloads::hdiff(workloads::HdiffVariant::Baseline));
  session.set_binding({{"I", 8}, {"J", 8}, {"K", 5}});
  const session::ArtifactKey key = session.metrics_cache_key();
  EXPECT_EQ(key.program_hash, 0x1be4c241cea8753aull);
  EXPECT_EQ(key.config_hash, 11490619578394618264ull);
  EXPECT_EQ(store::artifact_key_hash64(key), 8508143954462937616ull);
}

}  // namespace
}  // namespace dmv
