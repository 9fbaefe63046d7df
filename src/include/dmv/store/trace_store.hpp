#pragma once

// Out-of-core columnar trace store: a compressed, memory-mappable,
// versioned on-disk format for `EventList` columns ("DMVS" v2).
//
// Layout (all integers little-endian):
//
//   magic "DMVS" | u32 version | u64 file_bytes | i64 total_events |
//   i64 executions | u32 container_count | u32 chunk_count |
//   container table | chunk directory | chunk payloads
//
// The container table carries the full `ConcreteLayout` of every
// container (name, rank, shape, strides, element size, start offset,
// base address) so a packed file is self-describing. The chunk
// directory holds one fixed 56-byte record per chunk — event offset /
// count and execution offset / count (the exact offsets `sim::trace_plan`
// computes when a plan is supplied), plus the absolute payload offset,
// payload size, and an FNV-1a checksum over the chunk's *decoded*
// values. Random re-reads seek the directory and decode only the
// chunks they touch; nothing before a payload needs to be scanned.
//
// Per-column chunk encoding (four sections per chunk, fixed order:
// container, flat, is_write, execution — the four resident EventList
// columns; an event's timestep is its index and is not stored):
//   kConst  — arithmetic sequence, stored as (base, delta).
//   kPacked — first value + zigzag-encoded wrapping deltas, bit-packed
//             at the minimal width for the chunk.
//   kDict   — sorted dictionary + bit-packed indices (container ids
//             draw from a tiny alphabet).
//   kBitset — one bit per event (is_write).
//
// Version 1 files (six sections: the two above plus a timestep and a
// tasklet column) are refused by the version check. Trace files are
// not cache keys, so nothing derived from them is invalidated.
//
// Determinism contract: chunks are encoded in parallel over `dmv::par`
// into private buffers and assembled serially, so the packed bytes are
// identical at any thread count; decoding writes disjoint absolute
// slices, so a decoded trace is byte-identical to the in-RAM original
// at any thread count. docs/storage.md specifies the
// format; tests/store_test.cpp holds the identity and robustness
// matrix.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "dmv/sim/sim.hpp"
#include "dmv/sim/trace_plan.hpp"

namespace dmv::store {

inline constexpr std::uint32_t kTraceFormatVersion = 2;

struct StoreOptions {
  /// Target events per chunk when no trace plan is supplied (and the
  /// split threshold for oversized plan chunks). Smaller chunks decode
  /// with finer granularity; larger chunks compress slightly better.
  std::int64_t chunk_events = std::int64_t{1} << 16;
};

/// One chunk directory entry. `event_offset`/`execution_offset` are
/// absolute positions in the original trace — the same offsets
/// `sim::TraceChunk` carries — so consumers can address events and
/// executions without decoding preceding chunks.
struct ChunkInfo {
  std::int64_t event_offset = 0;
  std::int64_t event_count = 0;
  std::int64_t execution_offset = 0;
  std::int64_t execution_count = 0;
  std::uint64_t payload_offset = 0;  ///< absolute file offset
  std::uint64_t payload_size = 0;
  std::uint64_t checksum = 0;  ///< FNV-1a over the decoded values
};

/// Packs a trace into the in-memory image of a store file. When `plan`
/// is supplied (with a matching event count), chunk boundaries
/// follow the plan's chunks so the directory carries trace_plan's exact
/// event/execution offsets; oversized plan chunks are split. Encoding
/// parallelizes over `dmv::par`; the output bytes are identical at any
/// thread count.
std::string pack_trace(const sim::AccessTrace& trace,
                       const StoreOptions& options = {},
                       const sim::TracePlan* plan = nullptr);

/// pack_trace + atomic write (temp file + rename) to `path`.
void write_trace_file(const sim::AccessTrace& trace, const std::string& path,
                      const StoreOptions& options = {},
                      const sim::TracePlan* plan = nullptr);

/// Random-access reader over a store file or byte buffer. Opening a
/// path memory-maps it read-only (falling back to a buffered read where
/// mmap is unavailable); headers are validated eagerly, payloads lazily
/// per chunk. Every malformed input — truncation, bad magic, version
/// mismatch, implausible counts, out-of-range directory entries,
/// checksum mismatch — raises std::runtime_error with a
/// "trace_store:" prefix; no input reaches undefined behavior.
class TraceStoreReader {
 public:
  explicit TraceStoreReader(const std::string& path);
  ~TraceStoreReader();
  TraceStoreReader(TraceStoreReader&& other) noexcept;
  TraceStoreReader& operator=(TraceStoreReader&& other) noexcept;
  TraceStoreReader(const TraceStoreReader&) = delete;
  TraceStoreReader& operator=(const TraceStoreReader&) = delete;

  /// Validates and adopts an in-memory file image.
  static TraceStoreReader from_bytes(std::string bytes);

  std::int64_t total_events() const;
  std::int64_t executions() const;
  const std::vector<std::string>& containers() const;
  const std::vector<layout::ConcreteLayout>& layouts() const;
  std::size_t chunk_count() const;
  const ChunkInfo& chunk(std::size_t index) const;
  /// Total file size and the payload portion of it (compressed event
  /// bytes, excluding headers/directory).
  std::size_t file_bytes() const;
  std::size_t payload_bytes() const;

  /// Decodes chunk `index` into its absolute slice of `out`, which must
  /// already be sized to cover [event_offset, event_offset+event_count).
  /// Verifies the chunk checksum; throws on any mismatch.
  void read_chunk_into(std::size_t index, sim::EventList& out) const;

  /// Decodes every chunk into `out` (resized to total_events), chunks
  /// in parallel over disjoint slices.
  void read_events(sim::EventList& out) const;

  /// Reconstructs the full trace (containers, layouts, events,
  /// executions).
  sim::AccessTrace read_trace() const;

  /// Decodes and checksum-verifies every chunk, discarding the events.
  void verify() const;

 private:
  TraceStoreReader();
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace dmv::store
