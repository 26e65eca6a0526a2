#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "check/check.h"
#include "hash/sha256.h"
#include "tensor/shape.h"
#include "util/bytes.h"
#include "util/random.h"
#include "util/result.h"

namespace mmlib {

/// A dense float32 tensor with value semantics. This is the parameter and
/// activation type of the mmlib neural-network engine (the PyTorch
/// substitute; see DESIGN.md Section 1).
class Tensor {
 public:
  /// Constructs an empty (0-element, rank-1) tensor.
  Tensor() : shape_({0}) {}

  /// Constructs a zero-filled tensor of `shape`.
  explicit Tensor(Shape shape);

  /// Constructs a tensor of `shape` from existing data; data.size() must
  /// equal shape.numel().
  Tensor(Shape shape, std::vector<float> data);

  static Tensor Zeros(Shape shape) { return Tensor(std::move(shape)); }
  static Tensor Full(Shape shape, float value);
  /// Uniform samples in [lo, hi) drawn from `rng` in element order.
  static Tensor Uniform(Shape shape, float lo, float hi, Rng* rng);
  /// Standard-normal samples scaled by `stddev`.
  static Tensor Gaussian(Shape shape, float stddev, Rng* rng);

  const Shape& shape() const { return shape_; }
  int64_t numel() const { return static_cast<int64_t>(data_.size()); }
  size_t byte_size() const { return data_.size() * sizeof(float); }

  const float* data() const { return data_.data(); }
  float* data() { return data_.data(); }
  float at(size_t i) const {
    MMLIB_DCHECK_LT(i, data_.size());
    return data_[i];
  }
  float& at(size_t i) {
    MMLIB_DCHECK_LT(i, data_.size());
    return data_[i];
  }

  /// Elementwise in-place operations.
  void Fill(float value);
  void AddInPlace(const Tensor& other);

  /// Exact elementwise equality (bit-for-bit on the float values).
  bool Equals(const Tensor& other) const;

  /// True if all elements differ from `other` by at most `tolerance`.
  bool AllClose(const Tensor& other, float tolerance) const;

  /// Largest absolute elementwise difference; shapes must match.
  float MaxAbsDiff(const Tensor& other) const;

  /// SHA-256 over shape and raw element bytes. Used for layer checksums and
  /// Merkle tree leaves.
  Digest ContentHash() const;

  /// Serializes shape + elements to a portable little-endian format.
  Bytes Serialize() const;
  static Result<Tensor> Deserialize(const Bytes& data);
  static Result<Tensor> Deserialize(BytesReader* reader);
  void SerializeTo(BytesWriter* writer) const;
  /// Bytes SerializeTo writes.
  size_t SerializedSize() const {
    return 8 + 8 * shape_.rank() + 8 + data_.size() * sizeof(float);
  }

 private:
  Shape shape_;
  std::vector<float> data_;
};

/// Left-to-right serial dot product (the "serial method" of paper Figure 2).
float DotSerial(const float* a, const float* b, size_t n);

/// Chunked parallel-style dot product: partial sums over `num_chunks` chunks
/// combined in chunk order (the "parallel method" of Figure 2). The different
/// association order generally produces a slightly different float result
/// than DotSerial on the same input.
float DotParallel(const float* a, const float* b, size_t n, size_t num_chunks);

/// Chunked dot product whose chunk-combination order is given by
/// `combine_order` (a permutation of chunk indices). Models non-deterministic
/// parallel reduction: different orders give different rounding.
float DotChunkedOrdered(const float* a, const float* b, size_t n,
                        size_t num_chunks,
                        const std::vector<size_t>& combine_order);

/// Serial left-to-right sum.
float SumSerial(const float* values, size_t n);

/// Kahan-compensated sum: deterministic and more accurate, at roughly twice
/// the per-element cost. This is the accumulation used by deterministic
/// kernels (paper Section 4.5: deterministic training is slower).
float SumKahan(const float* values, size_t n);

}  // namespace mmlib

