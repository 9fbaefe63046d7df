#pragma once

// Little-endian byte encoding helpers shared by the store writers and
// readers (trace_store.cpp, artifact_store.cpp). Every multi-byte
// integer in the on-disk formats is little-endian regardless of host
// order — values are assembled bytewise, never memcpy'd, so the files
// are portable across hosts.
//
// ByteReader is the single funnel every decode path goes through:
// need() bounds-checks before touching memory, so a truncated or
// corrupt file surfaces as std::runtime_error, never as an
// out-of-bounds read (the reader-robustness suite and the ASan job
// depend on this).

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>

#include "dmv/util/fnv1a.hpp"

namespace dmv::store::detail {

/// memcpy + compile-time byteswap compiles to a single load/store on
/// little-endian hosts, where the bytewise shift loops defeat the
/// optimizer (~10ns/word measured) — these two carry all bulk paths.
inline std::uint64_t load_le64(const char* p) {
  std::uint64_t value;
  std::memcpy(&value, p, 8);
  if constexpr (std::endian::native == std::endian::big) {
    value = __builtin_bswap64(value);
  }
  return value;
}

inline void store_le64(char* p, std::uint64_t value) {
  if constexpr (std::endian::native == std::endian::big) {
    value = __builtin_bswap64(value);
  }
  std::memcpy(p, &value, 8);
}

inline void put_u8(std::string& out, std::uint8_t value) {
  out.push_back(static_cast<char>(value));
}

inline void put_u32(std::string& out, std::uint32_t value) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<char>((value >> (8 * i)) & 0xff));
  }
}

inline void put_u64(std::string& out, std::uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<char>((value >> (8 * i)) & 0xff));
  }
}

inline void put_i64(std::string& out, std::int64_t value) {
  put_u64(out, static_cast<std::uint64_t>(value));
}

/// Bulk append of `count` little-endian i64 values. One resize + a
/// tight shift loop instead of 8 push_backs per value — the artifact
/// codec serializes multi-megabyte per-element vectors through this.
inline void put_i64_array(std::string& out, const std::int64_t* values,
                          std::size_t count) {
  const std::size_t old_size = out.size();
  out.resize(old_size + count * 8);
  char* p = &out[old_size];
  for (std::size_t i = 0; i < count; ++i) {
    store_le64(p + i * 8, static_cast<std::uint64_t>(values[i]));
  }
}

/// Overwrites the 8 bytes at `offset` with `value` — for patching a
/// placeholder (e.g. the declared file size) after the payload is built.
inline void patch_u64(std::string& out, std::size_t offset,
                      std::uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    out[offset + i] = static_cast<char>((value >> (8 * i)) & 0xff);
  }
}

class ByteReader {
 public:
  ByteReader(const char* data, std::size_t size, const char* what)
      : data_(data), size_(size), what_(what) {}

  std::size_t position() const { return pos_; }
  std::size_t remaining() const { return size_ - pos_; }

  const char* need(std::size_t n) {
    if (n > size_ - pos_) fail("truncated input");
    const char* p = data_ + pos_;
    pos_ += n;
    return p;
  }

  std::uint8_t u8() { return static_cast<std::uint8_t>(*need(1)); }

  std::uint32_t u32() {
    const char* p = need(4);
    std::uint32_t value = 0;
    for (int i = 0; i < 4; ++i) {
      value |= static_cast<std::uint32_t>(static_cast<unsigned char>(p[i]))
               << (8 * i);
    }
    return value;
  }

  std::uint64_t u64() { return load_le64(need(8)); }

  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }

  /// Bulk decode of `count` little-endian i64 values — the read-side
  /// counterpart of put_i64_array. Bounds-checked up front (including
  /// the count * 8 overflow case) before any memory is touched.
  void i64_array(std::int64_t* dest, std::size_t count) {
    if (count > (size_ - pos_) / 8) fail("truncated input");
    const char* p = need(count * 8);
    for (std::size_t i = 0; i < count; ++i) {
      dest[i] = static_cast<std::int64_t>(load_le64(p + i * 8));
    }
  }

  std::string str(std::size_t n) {
    const char* p = need(n);
    return std::string(p, n);
  }

  [[noreturn]] void fail(const std::string& message) const {
    throw std::runtime_error(std::string(what_) + ": " + message);
  }

 private:
  const char* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
  const char* what_;
};

/// Byte-buffer checksum: util::fnv1a mixed per 64-bit little-endian
/// word (the tail is zero-padded and the byte length folded in last, so
/// buffers that differ only in trailing zero bytes still hash
/// differently). Word granularity keeps whole-file checksums cheap on
/// multi-megabyte artifacts.
inline std::uint64_t fnv1a_bytes(std::uint64_t hash, const char* data,
                                 std::size_t size) {
  std::size_t i = 0;
  for (; i + 8 <= size; i += 8) {
    hash = util::fnv1a(hash, load_le64(data + i));
  }
  std::uint64_t tail = 0;
  for (int b = 0; i < size; ++i, ++b) {
    tail |= static_cast<std::uint64_t>(static_cast<unsigned char>(data[i]))
            << (8 * b);
  }
  return util::fnv1a(util::fnv1a(hash, tail),
                     static_cast<std::uint64_t>(size));
}

}  // namespace dmv::store::detail
