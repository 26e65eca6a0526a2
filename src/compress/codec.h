#pragma once

#include <memory>
#include <span>
#include <string>
#include <string_view>

#include "util/bytes.h"
#include "util/result.h"

namespace mmlib {

/// Identifies a compression codec inside a frame header. Id 1 is retired
/// (it was run-length encoding) and must not be reused.
enum class CodecKind : uint8_t {
  kIdentity = 0,
  kLz77 = 2,
  kLz77Huffman = 3,
};

/// A byte-stream compression codec. mmlib uses codecs to archive training
/// datasets into a single file for the model provenance approach (paper
/// Section 3.3, "Managing Data sets").
///
/// Compress/Decompress operate on raw payloads; use Frame/Unframe for a
/// self-describing container with codec id, sizes, and a CRC-32 of the
/// original payload.
class Codec {
 public:
  /// Default output cap for Decompress when the caller has no expected
  /// size: large enough for any legitimate payload in this repository,
  /// small enough to stop corrupted length fields from exhausting memory.
  static constexpr size_t kDefaultMaxOutput = 1ULL << 34;  // 16 GiB

  virtual ~Codec() = default;

  virtual CodecKind kind() const = 0;
  virtual std::string_view name() const = 0;

  /// Compresses `input` into a codec-specific representation.
  virtual Result<Bytes> Compress(std::span<const uint8_t> input) const = 0;

  /// Inverse of Compress. Fails with Corruption if the output would exceed
  /// `max_output` bytes (corrupted streams must not exhaust memory).
  virtual Result<Bytes> Decompress(
      std::span<const uint8_t> input,
      size_t max_output = kDefaultMaxOutput) const = 0;

  /// Decompress into a caller buffer: decodes `input` into the front of
  /// `out`, bounded by its size, and returns the number of bytes written.
  /// Fails as Decompress(input, out.size()) does. The default decodes with
  /// Decompress and copies; a codec that can write in place overrides it.
  virtual Result<size_t> DecompressInto(std::span<const uint8_t> input,
                                        std::span<uint8_t> out) const;

  /// Compresses and wraps in a verifiable frame.
  Result<Bytes> Frame(const Bytes& input) const;

  /// Unwraps a frame produced by any codec, verifies the checksum, and
  /// returns the original payload. Dispatches on the codec id in the
  /// header; the header's original-size field bounds decompression.
  static Result<Bytes> Unframe(const Bytes& frame);

  /// Returns the codec instance for `kind` (process-wide singletons).
  static const Codec* ForKind(CodecKind kind);

  /// Returns the codec for a codec id read from a frame header; Corruption
  /// for an id no codec has.
  static Result<const Codec*> ForId(uint8_t id);

  /// Looks up a codec by name ("identity", "lz77", "lz77-huffman").
  static Result<const Codec*> ForName(std::string_view name);
};

/// Stores the input unmodified. Baseline for the codec ablation benchmark.
class IdentityCodec : public Codec {
 public:
  CodecKind kind() const override { return CodecKind::kIdentity; }
  std::string_view name() const override { return "identity"; }
  Result<Bytes> Compress(std::span<const uint8_t> input) const override;
  Result<Bytes> Decompress(std::span<const uint8_t> input,
                           size_t max_output) const override;
  /// One memcpy of `input` into `out`.
  Result<size_t> DecompressInto(std::span<const uint8_t> input,
                                std::span<uint8_t> out) const override;
};

/// LZ77 with a 64 KiB sliding window and hash-chain match finding; the
/// default codec for dataset archiving.
class Lz77Codec : public Codec {
 public:
  CodecKind kind() const override { return CodecKind::kLz77; }
  std::string_view name() const override { return "lz77"; }
  Result<Bytes> Compress(std::span<const uint8_t> input) const override;
  Result<Bytes> Decompress(std::span<const uint8_t> input,
                           size_t max_output) const override;
};

/// Deflate-style two-stage codec: the LZ77 token stream entropy-coded with
/// a canonical byte-level Huffman code. Smallest archives, highest CPU
/// cost — the other end of the codec ablation's trade-off curve.
class Lz77HuffmanCodec : public Codec {
 public:
  CodecKind kind() const override { return CodecKind::kLz77Huffman; }
  std::string_view name() const override { return "lz77-huffman"; }
  Result<Bytes> Compress(std::span<const uint8_t> input) const override;
  Result<Bytes> Decompress(std::span<const uint8_t> input,
                           size_t max_output) const override;
};

}  // namespace mmlib

