#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "util/result.h"
#include "util/status.h"

namespace mmlib {

/// A growable byte buffer used as the serialization target across mmlib.
using Bytes = std::vector<uint8_t>;

/// Appends primitive values to a byte buffer in little-endian order.
/// BytesWriter never fails; the buffer grows as needed.
class BytesWriter {
 public:
  BytesWriter() = default;

  void WriteU8(uint8_t v) { buffer_.push_back(v); }
  void WriteU32(uint32_t v);
  void WriteU64(uint64_t v);
  void WriteI64(int64_t v) { WriteU64(static_cast<uint64_t>(v)); }
  void WriteF32(float v);
  /// Writes a length-prefixed (u64) string.
  void WriteString(std::string_view s);
  /// Writes a length-prefixed (u64) blob.
  void WriteBlob(const uint8_t* data, size_t size);
  void WriteBlob(const Bytes& data) { WriteBlob(data.data(), data.size()); }
  /// Writes raw bytes without a length prefix.
  void WriteRaw(const uint8_t* data, size_t size);
  /// Makes room for `size` more bytes at once, so writes up to that total
  /// neither reallocate nor copy what is already written. The first call
  /// in a process also pins glibc's malloc thresholds (bytes.cc).
  void Reserve(size_t size);

  const Bytes& bytes() const { return buffer_; }
  Bytes TakeBytes() { return std::move(buffer_); }
  size_t size() const { return buffer_.size(); }

 private:
  Bytes buffer_;
};

/// Reads primitive values back from a byte buffer. All reads are
/// bounds-checked and return Corruption on truncated input.
class BytesReader {
 public:
  explicit BytesReader(const Bytes& buffer)
      : data_(buffer.data()), size_(buffer.size()) {}
  BytesReader(const uint8_t* data, size_t size) : data_(data), size_(size) {}

  Result<uint8_t> ReadU8();
  Result<uint32_t> ReadU32();
  Result<uint64_t> ReadU64();
  Result<int64_t> ReadI64();
  Result<float> ReadF32();
  Result<std::string> ReadString();
  Result<Bytes> ReadBlob();
  /// Like ReadBlob, but returns a view into the buffer instead of a copy;
  /// the view is valid as long as the buffer is.
  Result<std::span<const uint8_t>> ReadBlobView();
  /// Copies `size` raw bytes into `out`.
  Status ReadRaw(uint8_t* out, size_t size);

  size_t remaining() const { return size_ - offset_; }
  size_t offset() const { return offset_; }
  bool AtEnd() const { return offset_ == size_; }

 private:
  Status CheckAvailable(size_t n) const;

  const uint8_t* data_;
  size_t size_;
  size_t offset_ = 0;
};

/// Converts bytes to a lowercase hex string.
std::string ToHex(const uint8_t* data, size_t size);
std::string ToHex(const Bytes& data);

/// Parses a hex string back into bytes; fails on odd length or non-hex chars.
Result<Bytes> FromHex(std::string_view hex);

}  // namespace mmlib

