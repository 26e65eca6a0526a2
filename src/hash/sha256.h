#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>

#include "util/bytes.h"

namespace mmlib {

/// A 256-bit digest. Used to checksum model parameters, layer tensors, and
/// persisted files (paper Section 3.1: "To generate checksums we hash the
/// tensor objects").
struct Digest {
  std::array<uint8_t, 32> bytes{};

  bool operator==(const Digest& other) const { return bytes == other.bytes; }
  bool operator!=(const Digest& other) const { return !(*this == other); }
  bool operator<(const Digest& other) const { return bytes < other.bytes; }

  /// Lowercase hex representation (64 characters).
  std::string ToHex() const;

  /// Parses a 64-character hex string.
  static Result<Digest> FromHex(std::string_view hex);
};

/// Incremental SHA-256 (FIPS 180-4), implemented from scratch; deterministic
/// across platforms. Whole blocks run on the x86 SHA extensions when the CPU
/// has them and on portable scalar code otherwise; both give the same digest.
class Sha256 {
 public:
  Sha256();

  /// Absorbs `size` bytes.
  void Update(const uint8_t* data, size_t size);
  void Update(const Bytes& data) { Update(data.data(), data.size()); }
  void Update(std::string_view s) {
    Update(reinterpret_cast<const uint8_t*>(s.data()), s.size());
  }

  /// Finalizes and returns the digest. The object must not be reused.
  Digest Finish();

  /// One-shot helpers.
  static Digest Hash(const uint8_t* data, size_t size);
  static Digest Hash(const Bytes& data) { return Hash(data.data(), data.size()); }
  static Digest Hash(std::string_view s) {
    return Hash(reinterpret_cast<const uint8_t*>(s.data()), s.size());
  }

  /// Hashes the concatenation of two digests; used by the Merkle tree.
  static Digest HashPair(const Digest& left, const Digest& right);

 private:
  uint32_t state_[8];
  uint64_t total_bytes_ = 0;
  uint8_t buffer_[64];
  size_t buffer_size_ = 0;
};

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320). Used for cheap
/// frame checksums in the compression codec and file store. `seed` is a
/// previous result, so Crc32(b, Crc32(a)) is the CRC of a followed by b.
/// Runs on PCLMULQDQ when the CPU has it and on slicing-by-8 otherwise
/// (hash/crc32.cc); both give the same CRC.
uint32_t Crc32(const uint8_t* data, size_t size, uint32_t seed = 0);
uint32_t Crc32(const Bytes& data);

}  // namespace mmlib

