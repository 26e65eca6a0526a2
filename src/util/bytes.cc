#include "util/bytes.h"

#include <cstring>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

namespace mmlib {

namespace {

/// Snapshot payloads and their frames are buffers of several MiB that every
/// save and recover allocates and frees. glibc's adaptive malloc sets its
/// trim threshold to twice the largest block it has unmapped, and two
/// snapshot-sized blocks freed next to each other land right at that edge:
/// now and then the heap top goes back to the OS, and the next save faults
/// its buffers in again (about 1000 page faults per 4 MB, a third of a BA
/// save). Pinning the thresholds at the ceiling the adaptive rule moves
/// towards (a 32 MiB mmap threshold, twice that for trimming) keeps such
/// buffers recycled through the heap.
bool PinMallocThresholds() {
#if defined(__GLIBC__)
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 64 << 20);
#endif
  return true;
}

}  // namespace

void BytesWriter::Reserve(size_t size) {
  [[maybe_unused]] static const bool pinned = PinMallocThresholds();
  buffer_.reserve(buffer_.size() + size);
}

void BytesWriter::WriteU32(uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    buffer_.push_back(static_cast<uint8_t>(v >> (8 * i)));
  }
}

void BytesWriter::WriteU64(uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    buffer_.push_back(static_cast<uint8_t>(v >> (8 * i)));
  }
}

void BytesWriter::WriteF32(float v) {
  uint32_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  WriteU32(bits);
}

void BytesWriter::WriteString(std::string_view s) {
  WriteU64(s.size());
  WriteRaw(reinterpret_cast<const uint8_t*>(s.data()), s.size());
}

void BytesWriter::WriteBlob(const uint8_t* data, size_t size) {
  WriteU64(size);
  WriteRaw(data, size);
}

void BytesWriter::WriteRaw(const uint8_t* data, size_t size) {
  if (size == 0) {
    return;  // `data` may be null for empty payloads
  }
  buffer_.insert(buffer_.end(), data, data + size);
}

Status BytesReader::CheckAvailable(size_t n) const {
  // Phrased as a subtraction: `offset_ + n` could wrap for a corrupt
  // length prefix and slip past the check.
  if (n > size_ - offset_) {
    return Status::Corruption("truncated input: need " + std::to_string(n) +
                              " bytes, have " +
                              std::to_string(size_ - offset_));
  }
  return Status::OK();
}

Result<uint8_t> BytesReader::ReadU8() {
  MMLIB_RETURN_IF_ERROR(CheckAvailable(1));
  return data_[offset_++];
}

Result<uint32_t> BytesReader::ReadU32() {
  MMLIB_RETURN_IF_ERROR(CheckAvailable(4));
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(data_[offset_ + i]) << (8 * i);
  }
  offset_ += 4;
  return v;
}

Result<uint64_t> BytesReader::ReadU64() {
  MMLIB_RETURN_IF_ERROR(CheckAvailable(8));
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(data_[offset_ + i]) << (8 * i);
  }
  offset_ += 8;
  return v;
}

Result<int64_t> BytesReader::ReadI64() {
  MMLIB_ASSIGN_OR_RETURN(uint64_t v, ReadU64());
  return static_cast<int64_t>(v);
}

Result<float> BytesReader::ReadF32() {
  MMLIB_ASSIGN_OR_RETURN(uint32_t bits, ReadU32());
  float v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

Result<std::string> BytesReader::ReadString() {
  MMLIB_ASSIGN_OR_RETURN(uint64_t size, ReadU64());
  MMLIB_RETURN_IF_ERROR(CheckAvailable(size));
  std::string s(reinterpret_cast<const char*>(data_ + offset_), size);
  offset_ += size;
  return s;
}

Result<Bytes> BytesReader::ReadBlob() {
  MMLIB_ASSIGN_OR_RETURN(std::span<const uint8_t> view, ReadBlobView());
  return Bytes(view.begin(), view.end());
}

Result<std::span<const uint8_t>> BytesReader::ReadBlobView() {
  MMLIB_ASSIGN_OR_RETURN(uint64_t size, ReadU64());
  MMLIB_RETURN_IF_ERROR(CheckAvailable(size));
  const std::span<const uint8_t> view(data_ + offset_, size);
  offset_ += size;
  return view;
}

Status BytesReader::ReadRaw(uint8_t* out, size_t size) {
  MMLIB_RETURN_IF_ERROR(CheckAvailable(size));
  if (size != 0) {  // `out` may be null for empty payloads
    std::memcpy(out, data_ + offset_, size);
  }
  offset_ += size;
  return Status::OK();
}

namespace {
constexpr char kHexDigits[] = "0123456789abcdef";

int HexValue(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}
}  // namespace

std::string ToHex(const uint8_t* data, size_t size) {
  std::string out;
  out.reserve(size * 2);
  for (size_t i = 0; i < size; ++i) {
    out.push_back(kHexDigits[data[i] >> 4]);
    out.push_back(kHexDigits[data[i] & 0x0f]);
  }
  return out;
}

std::string ToHex(const Bytes& data) { return ToHex(data.data(), data.size()); }

Result<Bytes> FromHex(std::string_view hex) {
  if (hex.size() % 2 != 0) {
    return Status::InvalidArgument("hex string has odd length");
  }
  Bytes out;
  out.reserve(hex.size() / 2);
  for (size_t i = 0; i < hex.size(); i += 2) {
    int hi = HexValue(hex[i]);
    int lo = HexValue(hex[i + 1]);
    if (hi < 0 || lo < 0) {
      return Status::InvalidArgument("invalid hex character");
    }
    out.push_back(static_cast<uint8_t>((hi << 4) | lo));
  }
  return out;
}

}  // namespace mmlib
