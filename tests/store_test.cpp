// Columnar trace store + persistent artifact cache tests.
//
// All suites are named Store* so the CI determinism / sanitizer / TSan
// gates (-R '...|Store') pick them up: the store's contract is exact —
// pack bytes and decoded events are bit-identical at any thread count
// and lane width, and the disk artifact tier re-serves prior results
// byte for byte across process "restarts" (new cache/server objects
// over the same directory).

#include "dmv/store/trace_store.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "dmv/par/par.hpp"
#include "dmv/serve/server.hpp"
#include "dmv/session/session.hpp"
#include "dmv/sim/pipeline.hpp"
#include "dmv/sim/trace_plan.hpp"
#include "dmv/store/artifact_store.hpp"
#include "dmv/util/json.hpp"
#include "dmv/workloads/workloads.hpp"

namespace dmv {
namespace {

namespace fs = std::filesystem;

/// Fresh empty scratch directory, removed and recreated per call.
fs::path scratch_dir(const std::string& name) {
  const fs::path dir = fs::temp_directory_path() / ("dmv_store_" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

void expect_events_equal(const sim::EventList& actual,
                         const sim::EventList& expected) {
  ASSERT_EQ(actual.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    const sim::AccessEvent a = actual[i];
    const sim::AccessEvent e = expected[i];
    ASSERT_EQ(a.container, e.container) << "event " << i;
    ASSERT_EQ(a.flat, e.flat) << "event " << i;
    ASSERT_EQ(a.is_write, e.is_write) << "event " << i;
    ASSERT_EQ(a.timestep, e.timestep) << "event " << i;
    ASSERT_EQ(a.execution, e.execution) << "event " << i;
  }
}

void expect_traces_equal(const sim::AccessTrace& actual,
                         const sim::AccessTrace& expected) {
  EXPECT_EQ(actual.containers, expected.containers);
  EXPECT_EQ(actual.executions, expected.executions);
  ASSERT_EQ(actual.layouts.size(), expected.layouts.size());
  for (std::size_t c = 0; c < expected.layouts.size(); ++c) {
    EXPECT_EQ(actual.layouts[c].name, expected.layouts[c].name);
    EXPECT_EQ(actual.layouts[c].element_size,
              expected.layouts[c].element_size);
    EXPECT_EQ(actual.layouts[c].base_address,
              expected.layouts[c].base_address);
    EXPECT_EQ(actual.layouts[c].start_offset,
              expected.layouts[c].start_offset);
    EXPECT_EQ(actual.layouts[c].shape, expected.layouts[c].shape);
    EXPECT_EQ(actual.layouts[c].strides, expected.layouts[c].strides);
  }
  expect_events_equal(actual.events, expected.events);
}

// ---------------------------------------------------------------------
// Round trip and determinism.

TEST(StoreRoundTripTest, PackUnpackExact) {
  ir::Sdfg sdfg = workloads::matmul();
  sim::AccessTrace original = sim::simulate(sdfg, workloads::matmul_fig5());
  const std::string bytes = store::pack_trace(original);
  store::TraceStoreReader reader =
      store::TraceStoreReader::from_bytes(bytes);
  EXPECT_EQ(reader.total_events(),
            static_cast<std::int64_t>(original.events.size()));
  EXPECT_EQ(reader.executions(), original.executions);
  expect_traces_equal(reader.read_trace(), original);
  reader.verify();
}

TEST(StoreRoundTripTest, BytesIdenticalAcrossThreadsAndLanes) {
  ir::Sdfg sdfg = workloads::hdiff(workloads::HdiffVariant::Baseline);
  const symbolic::SymbolMap binding = workloads::hdiff_local();

  std::vector<std::string> packed;
  sim::AccessTrace reference;
  for (const int threads : {1, 8}) {
    par::ThreadScope scope(threads);
    sim::AccessTrace trace = sim::simulate(sdfg, binding);
    packed.push_back(store::pack_trace(trace));
    if (reference.events.empty()) reference = std::move(trace);
  }
  EXPECT_EQ(packed[1], packed[0]);

  // Decoding is just as deterministic: both thread counts reproduce the
  // source events exactly.
  for (const int threads : {1, 8}) {
    par::ThreadScope scope(threads);
    store::TraceStoreReader reader =
        store::TraceStoreReader::from_bytes(packed[0]);
    sim::EventList events;
    reader.read_events(events);
    expect_events_equal(events, reference.events);
  }
}

TEST(StoreRoundTripTest, PlanAlignedChunksTileTheTrace) {
  ir::Sdfg sdfg = workloads::hdiff(workloads::HdiffVariant::Baseline);
  const symbolic::SymbolMap binding = workloads::hdiff_local();
  sim::SimulationOptions options;
  sim::AccessTrace trace = sim::simulate(sdfg, binding, options);
  sim::TracePlan plan = sim::plan_trace(sdfg, binding, options);

  store::StoreOptions store_options;
  store_options.chunk_events = 1 << 12;
  const std::string bytes =
      store::pack_trace(trace, store_options, &plan);
  store::TraceStoreReader reader =
      store::TraceStoreReader::from_bytes(bytes);
  ASSERT_GT(reader.chunk_count(), 1u);
  std::int64_t next_event = 0;
  std::int64_t next_execution = 0;
  for (std::size_t c = 0; c < reader.chunk_count(); ++c) {
    const store::ChunkInfo& chunk = reader.chunk(c);
    EXPECT_EQ(chunk.event_offset, next_event);
    EXPECT_EQ(chunk.execution_offset, next_execution);
    next_event += chunk.event_count;
    next_execution += chunk.execution_count;
  }
  EXPECT_EQ(next_event, reader.total_events());
  expect_traces_equal(reader.read_trace(), trace);
}

TEST(StoreRoundTripTest, SingleChunkRandomRead) {
  ir::Sdfg sdfg = workloads::matmul();
  sim::AccessTrace trace = sim::simulate(sdfg, workloads::matmul_fig5());
  store::StoreOptions options;
  options.chunk_events = 256;
  const std::string bytes = store::pack_trace(trace, options);
  store::TraceStoreReader reader =
      store::TraceStoreReader::from_bytes(bytes);
  ASSERT_GT(reader.chunk_count(), 2u);

  // Decode ONE interior chunk into a full-size buffer and check only
  // its slice — the random-re-read path of the out-of-core mode.
  const std::size_t target = reader.chunk_count() / 2;
  const store::ChunkInfo& chunk = reader.chunk(target);
  sim::EventList events;
  events.resize(static_cast<std::size_t>(reader.total_events()));
  reader.read_chunk_into(target, events);
  for (std::int64_t i = 0; i < chunk.event_count; ++i) {
    const std::size_t at =
        static_cast<std::size_t>(chunk.event_offset + i);
    const sim::AccessEvent a = events[at];
    const sim::AccessEvent e = trace.events[at];
    ASSERT_EQ(a.container, e.container);
    ASSERT_EQ(a.flat, e.flat);
    ASSERT_EQ(a.timestep, e.timestep);
  }
}

TEST(StoreRoundTripTest, EmptyTraceRoundTrips) {
  sim::AccessTrace trace;
  sim::ConcreteLayout layout;
  layout.name = "only";
  layout.element_size = 8;
  layout.shape = {4, 4};
  layout.strides = {4, 1};
  trace.containers.push_back(layout.name);
  trace.layouts.push_back(std::move(layout));
  trace.executions = 0;

  const std::string bytes = store::pack_trace(trace);
  store::TraceStoreReader reader =
      store::TraceStoreReader::from_bytes(bytes);
  EXPECT_EQ(reader.total_events(), 0);
  EXPECT_EQ(reader.chunk_count(), 0u);
  expect_traces_equal(reader.read_trace(), trace);
}

TEST(StoreRoundTripTest, CompressesAtLeastTwoToOne) {
  ir::Sdfg sdfg = workloads::hdiff(workloads::HdiffVariant::Baseline);
  sim::AccessTrace trace = sim::simulate(sdfg, workloads::hdiff_local());
  const std::string bytes = store::pack_trace(trace);
  EXPECT_GE(trace.events.used_bytes(), 2 * bytes.size())
      << "raw " << trace.events.used_bytes() << " vs packed "
      << bytes.size();
}

TEST(StoreRoundTripTest, FileWriteAndMmapRead) {
  const fs::path dir = scratch_dir("file_roundtrip");
  ir::Sdfg sdfg = workloads::matmul();
  sim::AccessTrace trace = sim::simulate(sdfg, workloads::matmul_fig5());
  const std::string path = (dir / "trace.dmvt").string();
  store::write_trace_file(trace, path);
  store::TraceStoreReader reader(path);
  expect_traces_equal(reader.read_trace(), trace);
  fs::remove_all(dir);
}

// ---------------------------------------------------------------------
// Reader robustness: every malformed input is a clean runtime_error.

std::string small_store_bytes() {
  ir::Sdfg sdfg = workloads::matmul();
  sim::AccessTrace trace = sim::simulate(sdfg, workloads::matmul_fig5());
  return store::pack_trace(trace);
}

TEST(StoreReaderTest, TruncatedFileThrows) {
  const std::string bytes = small_store_bytes();
  for (const std::size_t keep :
       {std::size_t{3}, std::size_t{17}, bytes.size() / 2,
        bytes.size() - 1}) {
    EXPECT_THROW(store::TraceStoreReader::from_bytes(bytes.substr(0, keep)),
                 std::runtime_error)
        << "kept " << keep << " bytes";
  }
}

TEST(StoreReaderTest, BadMagicThrows) {
  std::string bytes = small_store_bytes();
  bytes[0] = 'X';
  EXPECT_THROW(store::TraceStoreReader::from_bytes(bytes),
               std::runtime_error);
}

TEST(StoreReaderTest, VersionMismatchThrows) {
  std::string bytes = small_store_bytes();
  bytes[4] = 0x7f;  // u32 version field, little-endian low byte.
  EXPECT_THROW(store::TraceStoreReader::from_bytes(bytes),
               std::runtime_error);
}

// Version 2 dropped the timestep and tasklet sections; a version 1 file
// is refused by name rather than misparsed as four sections.
TEST(StoreReaderTest, RefusesVersionOneFiles) {
  std::string bytes = small_store_bytes();
  bytes[4] = 0x01;
  try {
    store::TraceStoreReader::from_bytes(bytes);
    FAIL() << "a version 1 file was accepted";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find("unsupported format version 1"),
              std::string::npos)
        << error.what();
  }
}

TEST(StoreReaderTest, CorruptedChunkPayloadThrows) {
  std::string bytes = small_store_bytes();
  store::TraceStoreReader clean = store::TraceStoreReader::from_bytes(bytes);
  ASSERT_GT(clean.chunk_count(), 0u);
  // Flip one byte in the middle of the first chunk's payload: either a
  // section decode fails or the per-chunk checksum catches it.
  const store::ChunkInfo& chunk = clean.chunk(0);
  bytes[chunk.payload_offset + chunk.payload_size / 2] ^= 0x40;
  store::TraceStoreReader corrupt =
      store::TraceStoreReader::from_bytes(bytes);
  EXPECT_THROW(corrupt.verify(), std::runtime_error);
  sim::EventList events;
  EXPECT_THROW(corrupt.read_events(events), std::runtime_error);
}

TEST(StoreReaderTest, EmptyFileThrows) {
  const fs::path dir = scratch_dir("empty_file");
  const fs::path path = dir / "empty.dmvt";
  std::ofstream(path).close();
  EXPECT_THROW(store::TraceStoreReader(path.string()), std::runtime_error);
  EXPECT_THROW(store::TraceStoreReader((dir / "missing.dmvt").string()),
               std::runtime_error);
  EXPECT_THROW(store::TraceStoreReader::from_bytes(std::string()),
               std::runtime_error);
  fs::remove_all(dir);
}

// ---------------------------------------------------------------------
// Persistent artifact tier.

session::ArtifactKey test_key(std::uint8_t kind, std::int64_t k) {
  session::ArtifactKey key;
  key.kind = kind;
  key.program_hash = 0x1234abcdu;
  key.config_hash = 0x9876u;
  key.binding = {{"I", 8}, {"K", k}};
  return key;
}

TEST(StoreDiskCacheTest, ArtifactSurvivesCacheRestart) {
  const fs::path dir = scratch_dir("disk_restart");
  const std::string payload = "payload bytes \x01\x02\x03";
  {
    store::DiskArtifactCache cache({dir.string()});
    cache.store(test_key(9, 5), payload);
    EXPECT_EQ(cache.stats().writes, 1);
  }
  store::DiskArtifactCache reopened({dir.string()});
  EXPECT_EQ(reopened.stats().files, 1u);
  std::string loaded;
  ASSERT_TRUE(reopened.load(test_key(9, 5), loaded));
  EXPECT_EQ(loaded, payload);
  EXPECT_FALSE(reopened.load(test_key(9, 6), loaded));
  EXPECT_EQ(reopened.stats().hits, 1);
  EXPECT_EQ(reopened.stats().misses, 1);
  fs::remove_all(dir);
}

TEST(StoreDiskCacheTest, CorruptArtifactDroppedCleanly) {
  const fs::path dir = scratch_dir("disk_corrupt");
  store::DiskArtifactCache cache({dir.string()});
  cache.store(test_key(9, 5), "precious artifact bytes");
  fs::path file;
  for (const auto& entry : fs::directory_iterator(dir)) {
    file = entry.path();
  }
  ASSERT_FALSE(file.empty());
  {
    std::fstream patch(file,
                       std::ios::in | std::ios::out | std::ios::binary);
    patch.seekp(-3, std::ios::end);
    patch.put('\x5a');
  }
  std::string loaded;
  EXPECT_FALSE(cache.load(test_key(9, 5), loaded));
  EXPECT_EQ(cache.stats().dropped_corrupt, 1);
  EXPECT_FALSE(fs::exists(file)) << "corrupt file must be removed";
  fs::remove_all(dir);
}

TEST(StoreDiskCacheTest, PipelineResultCodecIsExact) {
  ir::Sdfg sdfg = workloads::matmul();
  sim::PipelineConfig config;
  config.miss_threshold_lines = 8;
  config.element_stats = true;
  config.movement = true;
  config.keep_distances = true;
  sim::CacheConfig cache_config;
  config.cache = cache_config;
  sim::MetricPipeline pipeline(config);
  sim::PipelineResult original =
      pipeline.run(sdfg, workloads::matmul_fig5());

  const std::string bytes = store::encode_pipeline_result(original);
  const std::shared_ptr<const sim::PipelineResult> decoded =
      store::decode_pipeline_result(bytes);
  ASSERT_NE(decoded, nullptr);
  const sim::PipelineResult& restored = *decoded;
  EXPECT_EQ(restored.events, original.events);
  EXPECT_EQ(restored.executions, original.executions);
  EXPECT_EQ(restored.containers, original.containers);
  EXPECT_EQ(restored.counts.reads, original.counts.reads);
  EXPECT_EQ(restored.counts.writes, original.counts.writes);
  EXPECT_EQ(restored.distances.distances, original.distances.distances);
  EXPECT_EQ(serve::result_checksum(restored),
            serve::result_checksum(original));

  // Any bit flip makes decode() report malformation, not garbage.
  for (const std::size_t at : {std::size_t{6}, bytes.size() / 2}) {
    std::string damaged = bytes;
    damaged[at] ^= 0x10;
    EXPECT_EQ(store::decode_pipeline_result(damaged), nullptr)
        << "flip at " << at;
  }
  EXPECT_EQ(store::decode_pipeline_result(std::string("DMVR")), nullptr);
}

TEST(StoreDiskCacheTest, SharedTierWarmStartsFromDisk) {
  const fs::path dir = scratch_dir("shared_warm");
  ir::Sdfg sdfg = workloads::matmul();
  sim::MetricPipeline pipeline(sim::PipelineConfig{});
  auto artifact = std::make_shared<sim::PipelineResult>(
      pipeline.run(sdfg, workloads::matmul_fig5()));
  const std::uint8_t kind = session::kMetricsArtifactKind;

  session::SharedArtifactCache::Config config;
  config.disk_dir = dir.string();
  {
    session::SharedArtifactCache first(config);
    first.insert(test_key(kind, 5), artifact, 1024);
    EXPECT_EQ(first.stats().disk_writes, 1);
  }

  // A new cache over the same directory — a restarted process — serves
  // the artifact from disk and promotes it into RAM.
  session::SharedArtifactCache second(config);
  std::shared_ptr<const void> hit = second.lookup(test_key(kind, 5));
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(serve::result_checksum(
                *static_cast<const sim::PipelineResult*>(hit.get())),
            serve::result_checksum(*artifact));
  EXPECT_EQ(second.stats().disk_hits, 1);
  // Promoted: the next lookup is a RAM hit, no second disk probe.
  EXPECT_NE(second.lookup(test_key(kind, 5)), nullptr);
  EXPECT_EQ(second.stats().disk_hits, 1);
  // clear() keeps the disk tier (that persistence is its purpose).
  second.clear();
  EXPECT_NE(second.lookup(test_key(kind, 5)), nullptr);
  EXPECT_EQ(second.stats().disk_hits, 2);
  fs::remove_all(dir);
}

// ---------------------------------------------------------------------
// Server warm restart: the end-to-end acceptance path.

TEST(StoreServeTest, RestartedServerServesFromDiskWithoutSimulating) {
  const fs::path dir = scratch_dir("serve_restart");
  serve::ServerConfig config;
  config.shared_cache.disk_dir = dir.string();

  const std::string open_line =
      "{\"id\":1,\"method\":\"open_program\",\"params\":{\"session\":\"a\","
      "\"workload\":\"hdiff\",\"binding\":{\"I\":8,\"J\":8,\"K\":5}}}";
  const std::string step_line =
      "{\"id\":2,\"method\":\"step\",\"params\":{\"session\":\"a\","
      "\"symbol\":\"K\",\"value\":6}}";

  std::string cold_checksum;
  {
    serve::Server server(config);
    server.handle(open_line);
    const json::Value stepped = json::parse(server.handle(step_line));
    ASSERT_TRUE(stepped.has("result")) << json::dump(stepped);
    cold_checksum = stepped.at("result").at("checksum").as_string();
    EXPECT_EQ(stepped.at("result").at("served_by").as_string(), "compute");
  }

  serve::Server restarted(config);
  restarted.handle(open_line);
  const json::Value warm = json::parse(restarted.handle(step_line));
  ASSERT_TRUE(warm.has("result")) << json::dump(warm);
  EXPECT_EQ(warm.at("result").at("checksum").as_string(), cold_checksum);
  EXPECT_EQ(warm.at("result").at("served_by").as_string(), "shared_cache");
  const session::SharedCacheStats stats = restarted.shared_cache_stats();
  EXPECT_GT(stats.disk_hits, 0);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace dmv
