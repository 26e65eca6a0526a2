#include "compress/chunked.h"

#include <algorithm>
#include <span>

#include "hash/sha256.h"

namespace mmlib {

namespace {

constexpr uint32_t kChunkedMagic = 0x4d4d4c43;  // "MMLC"
/// Magic, codec kind, original size, chunk size, chunk count.
constexpr size_t kHeaderSize = 4 + 1 + 8 + 8 + 8;
/// Per chunk: CRC-32 and the length prefix of its encoded bytes.
constexpr size_t kChunkHeaderSize = 4 + 8;

/// Chunks a payload of `size` bytes splits into. Phrased without
/// `size + chunk_size - 1`, which wraps for a chunk size near 2^64.
uint64_t ChunkCount(uint64_t size, uint64_t chunk_size) {
  return size == 0 ? 0 : (size - 1) / chunk_size + 1;
}

/// Chunk `c` of a payload cut at `chunk_size` boundaries.
template <typename T>
std::span<T> ChunkOf(std::span<T> payload, size_t c, size_t chunk_size) {
  const size_t offset = c * chunk_size;
  return payload.subspan(offset, std::min(chunk_size, payload.size() - offset));
}

}  // namespace

Result<Bytes> ChunkedFrame(const Bytes& input, CodecKind kind,
                           size_t chunk_size, util::ThreadPool* pool) {
  if (chunk_size == 0) {
    return Status::InvalidArgument("chunked frame: chunk size must be > 0");
  }
  if (pool == nullptr) {
    pool = util::ThreadPool::Global();
  }
  const Codec* codec = Codec::ForKind(kind);
  const std::span<const uint8_t> payload(input);
  const size_t num_chunks = ChunkCount(input.size(), chunk_size);

  // Identity chunks are framed verbatim, straight from the input; other
  // codecs encode each chunk into a buffer of its own.
  const bool verbatim = kind == CodecKind::kIdentity;
  std::vector<Bytes> compressed(verbatim ? 0 : num_chunks);
  std::vector<uint32_t> crcs(num_chunks, 0);
  std::vector<Status> statuses(num_chunks);
  util::ParallelFor(
      pool, static_cast<int64_t>(num_chunks), /*grain=*/1,
      [&](int64_t begin, int64_t end, size_t /*chunk_index*/) {
        for (int64_t i = begin; i < end; ++i) {
          const size_t c = static_cast<size_t>(i);
          const std::span<const uint8_t> chunk =
              ChunkOf(payload, c, chunk_size);
          crcs[c] = Crc32(chunk.data(), chunk.size());
          if (verbatim) {
            continue;
          }
          Result<Bytes> encoded = codec->Compress(chunk);
          if (!encoded.ok()) {
            statuses[c] = encoded.status();
            continue;
          }
          compressed[c] = std::move(encoded).value();
        }
      });
  for (const Status& status : statuses) {
    MMLIB_RETURN_IF_ERROR(status);
  }
  auto encoded = [&](size_t c) {
    return verbatim ? ChunkOf(payload, c, chunk_size)
                    : std::span<const uint8_t>(compressed[c]);
  };

  size_t frame_size = kHeaderSize;
  for (size_t c = 0; c < num_chunks; ++c) {
    frame_size += kChunkHeaderSize + encoded(c).size();
  }
  BytesWriter writer;
  writer.Reserve(frame_size);
  writer.WriteU32(kChunkedMagic);
  writer.WriteU8(static_cast<uint8_t>(kind));
  writer.WriteU64(input.size());
  writer.WriteU64(chunk_size);
  writer.WriteU64(num_chunks);
  for (size_t c = 0; c < num_chunks; ++c) {
    const std::span<const uint8_t> bytes = encoded(c);
    writer.WriteU32(crcs[c]);
    writer.WriteBlob(bytes.data(), bytes.size());
  }
  return writer.TakeBytes();
}

Result<Bytes> ChunkedUnframe(const Bytes& frame, util::ThreadPool* pool) {
  if (pool == nullptr) {
    pool = util::ThreadPool::Global();
  }
  BytesReader reader(frame);
  MMLIB_ASSIGN_OR_RETURN(uint32_t magic, reader.ReadU32());
  if (magic != kChunkedMagic) {
    return Status::Corruption("bad chunked frame magic");
  }
  MMLIB_ASSIGN_OR_RETURN(uint8_t kind_byte, reader.ReadU8());
  MMLIB_ASSIGN_OR_RETURN(const Codec* codec, Codec::ForId(kind_byte));
  MMLIB_ASSIGN_OR_RETURN(uint64_t original_size, reader.ReadU64());
  MMLIB_ASSIGN_OR_RETURN(uint64_t chunk_size, reader.ReadU64());
  MMLIB_ASSIGN_OR_RETURN(uint64_t num_chunks, reader.ReadU64());
  if (original_size > Codec::kDefaultMaxOutput) {
    return Status::Corruption("chunked frame original size out of range");
  }
  if (chunk_size == 0) {
    return Status::Corruption("chunked frame chunk size is zero");
  }
  if (num_chunks != ChunkCount(original_size, chunk_size)) {
    return Status::Corruption("chunked frame chunk count mismatch");
  }

  // Chunk payloads are length-prefixed, so they must be located in one
  // serial scan; decoding below runs in parallel, each chunk reading its
  // view of the frame and writing its own region of the output.
  std::vector<uint32_t> crcs(num_chunks, 0);
  std::vector<std::span<const uint8_t>> encoded(num_chunks);
  for (uint64_t c = 0; c < num_chunks; ++c) {
    MMLIB_ASSIGN_OR_RETURN(crcs[c], reader.ReadU32());
    MMLIB_ASSIGN_OR_RETURN(encoded[c], reader.ReadBlobView());
  }
  if (!reader.AtEnd()) {
    return Status::Corruption("trailing bytes after chunked frame");
  }

  Bytes out(original_size);
  std::vector<Status> statuses(num_chunks);
  util::ParallelFor(
      pool, static_cast<int64_t>(num_chunks), /*grain=*/1,
      [&](int64_t begin, int64_t end, size_t /*chunk_index*/) {
        for (int64_t i = begin; i < end; ++i) {
          const size_t c = static_cast<size_t>(i);
          const std::span<uint8_t> region =
              ChunkOf(std::span<uint8_t>(out), c, chunk_size);
          Result<size_t> written = codec->DecompressInto(encoded[c], region);
          if (!written.ok()) {
            statuses[c] = written.status();
            continue;
          }
          if (written.value() != region.size()) {
            statuses[c] = Status::Corruption(
                "chunked frame: chunk " + std::to_string(c) +
                " decompressed size mismatch");
            continue;
          }
          if (Crc32(region.data(), region.size()) != crcs[c]) {
            statuses[c] = Status::Corruption(
                "chunked frame: chunk " + std::to_string(c) +
                " checksum mismatch");
          }
        }
      });
  for (const Status& status : statuses) {
    MMLIB_RETURN_IF_ERROR(status);
  }
  return out;
}

}  // namespace mmlib
