#include "compress/chunked.h"

#include <algorithm>
#include <cstring>

#include "hash/sha256.h"

namespace mmlib {

namespace {

constexpr uint32_t kChunkedMagic = 0x4d4d4c43;  // "MMLC"

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
  const size_t num_chunks = (input.size() + chunk_size - 1) / chunk_size;

  std::vector<Bytes> compressed(num_chunks);
  std::vector<uint32_t> crcs(num_chunks, 0);
  std::vector<Status> statuses(num_chunks);
  util::ParallelFor(
      pool, static_cast<int64_t>(num_chunks), /*grain=*/1,
      [&](int64_t begin, int64_t end, size_t /*chunk_index*/) {
        for (int64_t i = begin; i < end; ++i) {
          const size_t c = static_cast<size_t>(i);
          const size_t offset = c * chunk_size;
          const size_t len = std::min(chunk_size, input.size() - offset);
          const Bytes chunk(input.begin() + offset,
                            input.begin() + offset + len);
          crcs[c] = Crc32(chunk);
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

  BytesWriter writer;
  writer.WriteU32(kChunkedMagic);
  writer.WriteU8(static_cast<uint8_t>(kind));
  writer.WriteU64(input.size());
  writer.WriteU64(chunk_size);
  writer.WriteU64(num_chunks);
  for (size_t c = 0; c < num_chunks; ++c) {
    writer.WriteU32(crcs[c]);
    writer.WriteBlob(compressed[c]);
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
  if (kind_byte > static_cast<uint8_t>(CodecKind::kLz77Huffman)) {
    return Status::Corruption("unknown codec id " + std::to_string(kind_byte));
  }
  MMLIB_ASSIGN_OR_RETURN(uint64_t original_size, reader.ReadU64());
  MMLIB_ASSIGN_OR_RETURN(uint64_t chunk_size, reader.ReadU64());
  MMLIB_ASSIGN_OR_RETURN(uint64_t num_chunks, reader.ReadU64());
  if (original_size > Codec::kDefaultMaxOutput) {
    return Status::Corruption("chunked frame original size out of range");
  }
  if (chunk_size == 0) {
    return Status::Corruption("chunked frame chunk size is zero");
  }
  const uint64_t expected_chunks = (original_size + chunk_size - 1) / chunk_size;
  if (num_chunks != expected_chunks) {
    return Status::Corruption("chunked frame chunk count mismatch");
  }

  // Chunk payloads are length-prefixed, so offsets must be collected in one
  // serial scan; decompression below runs in parallel.
  std::vector<uint32_t> crcs(num_chunks, 0);
  std::vector<Bytes> compressed(num_chunks);
  for (uint64_t c = 0; c < num_chunks; ++c) {
    MMLIB_ASSIGN_OR_RETURN(crcs[c], reader.ReadU32());
    MMLIB_ASSIGN_OR_RETURN(compressed[c], reader.ReadBlob());
  }
  if (!reader.AtEnd()) {
    return Status::Corruption("trailing bytes after chunked frame");
  }

  const Codec* codec = Codec::ForKind(static_cast<CodecKind>(kind_byte));
  Bytes out(original_size);
  std::vector<Status> statuses(num_chunks);
  util::ParallelFor(
      pool, static_cast<int64_t>(num_chunks), /*grain=*/1,
      [&](int64_t begin, int64_t end, size_t /*chunk_index*/) {
        for (int64_t i = begin; i < end; ++i) {
          const size_t c = static_cast<size_t>(i);
          const size_t offset = c * chunk_size;
          const size_t len =
              std::min<size_t>(chunk_size, original_size - offset);
          Result<Bytes> decoded = codec->Decompress(compressed[c], len);
          if (!decoded.ok()) {
            statuses[c] = decoded.status();
            continue;
          }
          const Bytes& payload = decoded.value();
          if (payload.size() != len) {
            statuses[c] = Status::Corruption(
                "chunked frame: chunk " + std::to_string(c) +
                " decompressed size mismatch");
            continue;
          }
          if (Crc32(payload) != crcs[c]) {
            statuses[c] = Status::Corruption(
                "chunked frame: chunk " + std::to_string(c) +
                " checksum mismatch");
            continue;
          }
          // Each chunk writes a disjoint region of the output buffer.
          if (len > 0) {
            std::memcpy(out.data() + offset, payload.data(), len);
          }
        }
      });
  for (const Status& status : statuses) {
    MMLIB_RETURN_IF_ERROR(status);
  }
  return out;
}

}  // namespace mmlib
