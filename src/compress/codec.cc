#include "compress/codec.h"

#include <algorithm>
#include <cstring>

#include "compress/huffman.h"
#include "hash/sha256.h"

namespace mmlib {

namespace {

constexpr uint32_t kFrameMagic = 0x4d4d4c46;  // "MMLF"

void WriteVarint(Bytes* out, uint64_t v) {
  while (v >= 0x80) {
    out->push_back(static_cast<uint8_t>(v) | 0x80);
    v >>= 7;
  }
  out->push_back(static_cast<uint8_t>(v));
}

/// Reads a varint at *pos into *value; false when it runs past the input
/// or past 64 bits. Inline, without a Result, for the LZ77 token loop.
inline bool NextVarint(std::span<const uint8_t> in, size_t* pos,
                       uint64_t* value) {
  uint64_t v = 0;
  int shift = 0;
  while (*pos < in.size()) {
    const uint8_t byte = in[(*pos)++];
    v |= static_cast<uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) {
      *value = v;
      return true;
    }
    shift += 7;
    if (shift > 63) {
      break;
    }
  }
  return false;
}

Result<uint64_t> ReadVarint(std::span<const uint8_t> in, size_t* pos) {
  uint64_t v = 0;
  if (!NextVarint(in, pos, &v)) {
    return Status::Corruption("truncated varint");
  }
  return v;
}

}  // namespace

Result<Bytes> Codec::Frame(const Bytes& input) const {
  MMLIB_ASSIGN_OR_RETURN(Bytes compressed, Compress(input));
  BytesWriter writer;
  writer.WriteU32(kFrameMagic);
  writer.WriteU8(static_cast<uint8_t>(kind()));
  writer.WriteU64(input.size());
  writer.WriteU32(Crc32(input));
  writer.WriteBlob(compressed);
  return writer.TakeBytes();
}

Result<Bytes> Codec::Unframe(const Bytes& frame) {
  BytesReader reader(frame);
  MMLIB_ASSIGN_OR_RETURN(uint32_t magic, reader.ReadU32());
  if (magic != kFrameMagic) {
    return Status::Corruption("bad frame magic");
  }
  MMLIB_ASSIGN_OR_RETURN(uint8_t kind_byte, reader.ReadU8());
  if (kind_byte > static_cast<uint8_t>(CodecKind::kLz77Huffman)) {
    return Status::Corruption("unknown codec id " + std::to_string(kind_byte));
  }
  MMLIB_ASSIGN_OR_RETURN(uint64_t original_size, reader.ReadU64());
  MMLIB_ASSIGN_OR_RETURN(uint32_t expected_crc, reader.ReadU32());
  MMLIB_ASSIGN_OR_RETURN(std::span<const uint8_t> compressed,
                         reader.ReadBlobView());
  if (!reader.AtEnd()) {
    return Status::Corruption("trailing bytes after frame");
  }
  if (original_size > kDefaultMaxOutput) {
    return Status::Corruption("frame original size out of range");
  }
  const Codec* codec = ForKind(static_cast<CodecKind>(kind_byte));
  // The header's size field bounds decompression, so a corrupted stream
  // cannot expand past the expected payload.
  MMLIB_ASSIGN_OR_RETURN(
      Bytes payload,
      codec->Decompress(compressed, static_cast<size_t>(original_size)));
  if (payload.size() != original_size) {
    return Status::Corruption("decompressed size mismatch");
  }
  if (Crc32(payload) != expected_crc) {
    return Status::Corruption("frame checksum mismatch");
  }
  return payload;
}

const Codec* Codec::ForKind(CodecKind kind) {
  static const IdentityCodec* identity = new IdentityCodec();
  static const RleCodec* rle = new RleCodec();
  static const Lz77Codec* lz77 = new Lz77Codec();
  static const Lz77HuffmanCodec* lz77_huffman = new Lz77HuffmanCodec();
  switch (kind) {
    case CodecKind::kIdentity:
      return identity;
    case CodecKind::kRle:
      return rle;
    case CodecKind::kLz77:
      return lz77;
    case CodecKind::kLz77Huffman:
      return lz77_huffman;
  }
  return identity;
}

Result<const Codec*> Codec::ForName(std::string_view name) {
  for (CodecKind kind :
       {CodecKind::kIdentity, CodecKind::kRle, CodecKind::kLz77,
        CodecKind::kLz77Huffman}) {
    const Codec* codec = ForKind(kind);
    if (codec->name() == name) {
      return codec;
    }
  }
  return Status::NotFound("unknown codec: " + std::string(name));
}

Result<size_t> Codec::DecompressInto(std::span<const uint8_t> input,
                                     std::span<uint8_t> out) const {
  MMLIB_ASSIGN_OR_RETURN(Bytes decoded, Decompress(input, out.size()));
  if (!decoded.empty()) {
    std::memcpy(out.data(), decoded.data(), decoded.size());
  }
  return decoded.size();
}

Result<Bytes> IdentityCodec::Compress(std::span<const uint8_t> input) const {
  return Bytes(input.begin(), input.end());
}

Result<Bytes> IdentityCodec::Decompress(std::span<const uint8_t> input,
                                        size_t max_output) const {
  if (input.size() > max_output) {
    return Status::Corruption("identity payload exceeds output limit");
  }
  return Bytes(input.begin(), input.end());
}

Result<size_t> IdentityCodec::DecompressInto(std::span<const uint8_t> input,
                                             std::span<uint8_t> out) const {
  if (input.size() > out.size()) {
    return Status::Corruption("identity payload exceeds output limit");
  }
  if (!input.empty()) {
    std::memcpy(out.data(), input.data(), input.size());
  }
  return input.size();
}

Result<Bytes> RleCodec::Compress(std::span<const uint8_t> input) const {
  // Format: sequence of (varint count, byte) pairs.
  Bytes out;
  size_t i = 0;
  while (i < input.size()) {
    const uint8_t value = input[i];
    size_t run = 1;
    while (i + run < input.size() && input[i + run] == value) {
      ++run;
    }
    WriteVarint(&out, run);
    out.push_back(value);
    i += run;
  }
  return out;
}

Result<Bytes> RleCodec::Decompress(std::span<const uint8_t> input,
                                   size_t max_output) const {
  Bytes out;
  size_t pos = 0;
  while (pos < input.size()) {
    MMLIB_ASSIGN_OR_RETURN(uint64_t run, ReadVarint(input, &pos));
    if (pos >= input.size()) {
      return Status::Corruption("RLE stream truncated");
    }
    if (run == 0 || run > max_output - out.size()) {
      return Status::Corruption("invalid RLE run length");
    }
    out.insert(out.end(), run, input[pos++]);
  }
  return out;
}

Result<Bytes> Lz77HuffmanCodec::Compress(
    std::span<const uint8_t> input) const {
  MMLIB_ASSIGN_OR_RETURN(Bytes tokens,
                         Codec::ForKind(CodecKind::kLz77)->Compress(input));
  return huffman::Encode(tokens);
}

Result<Bytes> Lz77HuffmanCodec::Decompress(std::span<const uint8_t> input,
                                           size_t max_output) const {
  // The LZ77 token stream is at most a small constant factor larger than
  // the decompressed payload (literal runs carry their bytes verbatim).
  MMLIB_ASSIGN_OR_RETURN(
      Bytes tokens,
      huffman::Decode(input, /*max_output=*/2 * max_output + 1024));
  return Codec::ForKind(CodecKind::kLz77)->Decompress(tokens, max_output);
}

namespace {

// LZ77 token stream:
//   0x00 <varint len> <len literal bytes>
//   0x01 <varint len> <varint distance>     (len >= kMinMatch)
constexpr size_t kWindowSize = 64 * 1024;
constexpr size_t kMinMatch = 4;
constexpr size_t kMaxMatch = 1024;
constexpr size_t kHashBits = 16;
constexpr size_t kMaxChainDepth = 32;
/// Most output bytes per stream byte a well-formed stream decodes to: a
/// kMaxMatch match in a four-byte token.
constexpr size_t kMaxExpansion = kMaxMatch / 4;

/// memcpy of two ranges that do not overlap; tokens are mostly a few
/// bytes, which a plain loop copies without a call.
inline void CopyBytes(const uint8_t* __restrict src, uint8_t* __restrict dst,
                      size_t len) {
  if (len > 32) {
    std::memcpy(dst, src, len);
    return;
  }
  for (size_t k = 0; k < len; ++k) {
    dst[k] = src[k];
  }
}

inline uint32_t HashQuad(const uint8_t* p) {
  uint32_t v;
  std::memcpy(&v, p, 4);
  return (v * 2654435761u) >> (32 - kHashBits);
}

}  // namespace

Result<Bytes> Lz77Codec::Compress(std::span<const uint8_t> input) const {
  Bytes out;
  const size_t n = input.size();
  if (n == 0) {
    return out;
  }

  std::vector<int64_t> head(1 << kHashBits, -1);
  std::vector<int64_t> prev(n, -1);

  size_t literal_start = 0;
  auto flush_literals = [&](size_t end) {
    if (end > literal_start) {
      out.push_back(0x00);
      WriteVarint(&out, end - literal_start);
      out.insert(out.end(), input.begin() + literal_start,
                 input.begin() + end);
    }
  };

  size_t i = 0;
  while (i < n) {
    size_t best_len = 0;
    size_t best_dist = 0;
    if (i + kMinMatch <= n) {
      const uint32_t h = HashQuad(input.data() + i);
      int64_t candidate = head[h];
      size_t depth = 0;
      while (candidate >= 0 && depth < kMaxChainDepth &&
             i - static_cast<size_t>(candidate) <= kWindowSize) {
        const size_t cand = static_cast<size_t>(candidate);
        const size_t limit = std::min(kMaxMatch, n - i);
        size_t len = 0;
        while (len < limit && input[cand + len] == input[i + len]) {
          ++len;
        }
        if (len >= kMinMatch && len > best_len) {
          best_len = len;
          best_dist = i - cand;
          if (len == kMaxMatch) {
            break;
          }
        }
        candidate = prev[cand];
        ++depth;
      }
    }

    if (best_len >= kMinMatch) {
      flush_literals(i);
      out.push_back(0x01);
      WriteVarint(&out, best_len);
      WriteVarint(&out, best_dist);
      // Insert hash entries for all covered positions so later matches can
      // reference inside this match.
      const size_t match_end = i + best_len;
      while (i < match_end) {
        if (i + kMinMatch <= n) {
          const uint32_t h = HashQuad(input.data() + i);
          prev[i] = head[h];
          head[h] = static_cast<int64_t>(i);
        }
        ++i;
      }
      literal_start = i;
    } else {
      if (i + kMinMatch <= n) {
        const uint32_t h = HashQuad(input.data() + i);
        prev[i] = head[h];
        head[h] = static_cast<int64_t>(i);
      }
      ++i;
    }
  }
  flush_literals(n);
  return out;
}

Result<Bytes> Lz77Codec::Decompress(std::span<const uint8_t> input,
                                    size_t max_output) const {
  // A bounded call (Unframe passes the header's size) writes into an
  // output sized up front: the bound, capped at the most a well-formed
  // stream of this length can expand to, so a corrupted size field cannot
  // reserve memory the stream could never fill. Unbounded calls start
  // empty. Either way the output doubles when a token needs more room.
  Bytes out;
  if (max_output < kDefaultMaxOutput) {
    out.resize(std::min(max_output, input.size() * kMaxExpansion));
  }
  size_t size = 0;
  auto room = [&](uint64_t len) {
    if (len > out.size() - size) {
      out.resize(std::min(max_output,
                          std::max<size_t>(size + len, 2 * out.size())));
    }
  };
  size_t pos = 0;
  uint64_t len = 0;
  uint64_t dist = 0;
  while (pos < input.size()) {
    const uint8_t tag = input[pos++];
    if (tag == 0x00) {
      if (!NextVarint(input, &pos, &len)) {
        return Status::Corruption("truncated varint");
      }
      if (pos + len > input.size()) {
        return Status::Corruption("LZ77 literal run truncated");
      }
      if (len > max_output - size) {
        return Status::Corruption("LZ77 output exceeds limit");
      }
      room(len);
      CopyBytes(input.data() + pos, out.data() + size, len);
      size += len;
      pos += len;
    } else if (tag == 0x01) {
      if (!NextVarint(input, &pos, &len) ||
          !NextVarint(input, &pos, &dist)) {
        return Status::Corruption("truncated varint");
      }
      if (dist == 0 || dist > size) {
        return Status::Corruption("LZ77 match distance out of range");
      }
      if (len > max_output - size) {
        return Status::Corruption("LZ77 output exceeds limit");
      }
      room(len);
      uint8_t* dst = out.data() + size;
      const uint8_t* src = dst - dist;
      if (dist >= len) {
        CopyBytes(src, dst, len);
      } else {
        // Byte by byte: the match overlaps its own output.
        for (uint64_t k = 0; k < len; ++k) {
          dst[k] = src[k];
        }
      }
      size += len;
    } else {
      return Status::Corruption("invalid LZ77 token tag");
    }
  }
  out.resize(size);
  return out;
}

}  // namespace mmlib
