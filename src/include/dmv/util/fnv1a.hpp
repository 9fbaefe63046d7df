#pragma once

// FNV-1a 64, the one hash behind every content hash, cache key and
// on-disk checksum: program hashes, pipeline-config fingerprints,
// ArtifactKeyHash, artifact file names, and the store checksums
// (store/byte_io.hpp builds its word-mixed buffer checksum on fnv1a()).
// These values name files in persistent cache directories, so they must
// never change; tests/artifact_key_test.cpp pins them.
//
// The symbolic interner (symbolic/intern.cpp) keeps its own variant,
// which feeds each word in byte by byte — a different function.

#include <cstdint>
#include <string_view>

namespace dmv::util {

inline constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
inline constexpr std::uint64_t kFnvPrime = 1099511628211ull;

/// One FNV-1a step that mixes a whole 64-bit value at once.
constexpr std::uint64_t fnv1a(std::uint64_t hash, std::uint64_t value) {
  return (hash ^ value) * kFnvPrime;
}

/// Byte-wise FNV-1a of `text`, starting from the offset basis.
constexpr std::uint64_t fnv1a_string(std::string_view text) {
  std::uint64_t hash = kFnvOffset;
  for (const char c : text) hash = fnv1a(hash, static_cast<unsigned char>(c));
  return hash;
}

}  // namespace dmv::util
