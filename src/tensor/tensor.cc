#include "tensor/tensor.h"

#include "check/check.h"
#include <cmath>
#include <cstring>

namespace mmlib {

Tensor::Tensor(Shape shape) : shape_(std::move(shape)) {
  data_.assign(static_cast<size_t>(shape_.numel()), 0.0f);
}

Tensor::Tensor(Shape shape, std::vector<float> data)
    : shape_(std::move(shape)), data_(std::move(data)) {
  MMLIB_CHECK_EQ(static_cast<int64_t>(data_.size()), shape_.numel())
      << "tensor data size does not match shape " << shape_.ToString();
}

Tensor Tensor::Full(Shape shape, float value) {
  Tensor t(std::move(shape));
  t.Fill(value);
  return t;
}

Tensor Tensor::Uniform(Shape shape, float lo, float hi, Rng* rng) {
  Tensor t(std::move(shape));
  for (float& v : t.data_) {
    v = rng->NextUniform(lo, hi);
  }
  return t;
}

Tensor Tensor::Gaussian(Shape shape, float stddev, Rng* rng) {
  Tensor t(std::move(shape));
  for (float& v : t.data_) {
    v = rng->NextGaussian() * stddev;
  }
  return t;
}

void Tensor::Fill(float value) {
  for (float& v : data_) {
    v = value;
  }
}

void Tensor::AddInPlace(const Tensor& other) {
  MMLIB_CHECK(shape_ == other.shape_)
      << "AddInPlace: shape mismatch " << shape_.ToString() << " vs "
      << other.shape_.ToString();
  for (size_t i = 0; i < data_.size(); ++i) {
    data_[i] += other.data_[i];
  }
}

bool Tensor::Equals(const Tensor& other) const {
  if (shape_ != other.shape_) {
    return false;
  }
  return std::memcmp(data_.data(), other.data_.data(),
                     data_.size() * sizeof(float)) == 0;
}

bool Tensor::AllClose(const Tensor& other, float tolerance) const {
  if (shape_ != other.shape_) {
    return false;
  }
  return MaxAbsDiff(other) <= tolerance;
}

float Tensor::MaxAbsDiff(const Tensor& other) const {
  MMLIB_CHECK(shape_ == other.shape_)
      << "MaxAbsDiff: shape mismatch " << shape_.ToString() << " vs "
      << other.shape_.ToString();
  float max_diff = 0.0f;
  for (size_t i = 0; i < data_.size(); ++i) {
    max_diff = std::max(max_diff, std::abs(data_[i] - other.data_[i]));
  }
  return max_diff;
}

Digest Tensor::ContentHash() const {
  Sha256 hasher;
  BytesWriter header;
  header.WriteU64(shape_.rank());
  for (int64_t d : shape_.dims()) {
    header.WriteI64(d);
  }
  hasher.Update(header.bytes());
  hasher.Update(reinterpret_cast<const uint8_t*>(data_.data()),
                data_.size() * sizeof(float));
  return hasher.Finish();
}

void Tensor::SerializeTo(BytesWriter* writer) const {
  writer->WriteU64(shape_.rank());
  for (int64_t d : shape_.dims()) {
    writer->WriteI64(d);
  }
  writer->WriteU64(data_.size());
  // Element bytes are written verbatim; all supported platforms are
  // little-endian IEEE-754, which keeps the format portable in practice.
  writer->WriteRaw(reinterpret_cast<const uint8_t*>(data_.data()),
                   data_.size() * sizeof(float));
}

Bytes Tensor::Serialize() const {
  BytesWriter writer;
  writer.Reserve(SerializedSize());
  SerializeTo(&writer);
  return writer.TakeBytes();
}

Result<Tensor> Tensor::Deserialize(BytesReader* reader) {
  MMLIB_ASSIGN_OR_RETURN(uint64_t rank, reader->ReadU64());
  if (rank > 8) {
    return Status::Corruption("tensor rank out of range");
  }
  std::vector<int64_t> dims(rank);
  for (uint64_t i = 0; i < rank; ++i) {
    MMLIB_ASSIGN_OR_RETURN(dims[i], reader->ReadI64());
    if (dims[i] < 0) {
      return Status::Corruption("negative tensor dimension");
    }
  }
  Shape shape(std::move(dims));
  MMLIB_ASSIGN_OR_RETURN(uint64_t count, reader->ReadU64());
  if (static_cast<int64_t>(count) != shape.numel()) {
    return Status::Corruption("tensor element count does not match shape");
  }
  if (count > reader->remaining() / sizeof(float)) {
    return Status::Corruption("tensor element count exceeds input");
  }
  std::vector<float> data(count);
  MMLIB_RETURN_IF_ERROR(reader->ReadRaw(
      reinterpret_cast<uint8_t*>(data.data()), count * sizeof(float)));
  return Tensor(std::move(shape), std::move(data));
}

Result<Tensor> Tensor::Deserialize(const Bytes& data) {
  BytesReader reader(data);
  MMLIB_ASSIGN_OR_RETURN(Tensor t, Deserialize(&reader));
  if (!reader.AtEnd()) {
    return Status::Corruption("trailing bytes after tensor");
  }
  return t;
}

float DotSerial(const float* a, const float* b, size_t n) {
  float sum = 0.0f;
  for (size_t i = 0; i < n; ++i) {
    sum += a[i] * b[i];
  }
  return sum;
}

float DotParallel(const float* a, const float* b, size_t n,
                  size_t num_chunks) {
  std::vector<size_t> order(num_chunks);
  for (size_t i = 0; i < num_chunks; ++i) {
    order[i] = i;
  }
  return DotChunkedOrdered(a, b, n, num_chunks, order);
}

float DotChunkedOrdered(const float* a, const float* b, size_t n,
                        size_t num_chunks,
                        const std::vector<size_t>& combine_order) {
  if (num_chunks == 0) {
    num_chunks = 1;
  }
  const size_t chunk = (n + num_chunks - 1) / num_chunks;
  std::vector<float> partials(num_chunks, 0.0f);
  for (size_t c = 0; c < num_chunks; ++c) {
    const size_t begin = c * chunk;
    const size_t end = std::min(n, begin + chunk);
    float sum = 0.0f;
    for (size_t i = begin; i < end; ++i) {
      sum += a[i] * b[i];
    }
    partials[c] = sum;
  }
  float total = 0.0f;
  for (size_t c : combine_order) {
    total += partials[c];
  }
  return total;
}

float SumSerial(const float* values, size_t n) {
  float sum = 0.0f;
  for (size_t i = 0; i < n; ++i) {
    sum += values[i];
  }
  return sum;
}

float SumKahan(const float* values, size_t n) {
  float sum = 0.0f;
  float compensation = 0.0f;
  for (size_t i = 0; i < n; ++i) {
    const float y = values[i] - compensation;
    const float t = sum + y;
    compensation = (t - sum) - y;
    sum = t;
  }
  return sum;
}

}  // namespace mmlib
