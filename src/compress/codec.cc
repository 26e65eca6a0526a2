#include "compress/codec.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <memory>

#include "compress/huffman.h"
#include "hash/sha256.h"

namespace mmlib {

namespace {

constexpr uint32_t kFrameMagic = 0x4d4d4c46;  // "MMLF"

/// Every codec, in id order (id 1 is retired, see CodecKind).
constexpr CodecKind kCodecKinds[] = {CodecKind::kIdentity, CodecKind::kLz77,
                                     CodecKind::kLz77Huffman};

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
  MMLIB_ASSIGN_OR_RETURN(const Codec* codec, ForId(kind_byte));
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
  static const Lz77Codec* lz77 = new Lz77Codec();
  static const Lz77HuffmanCodec* lz77_huffman = new Lz77HuffmanCodec();
  switch (kind) {
    case CodecKind::kIdentity:
      return identity;
    case CodecKind::kLz77:
      return lz77;
    case CodecKind::kLz77Huffman:
      return lz77_huffman;
  }
  return identity;
}

Result<const Codec*> Codec::ForId(uint8_t id) {
  for (CodecKind kind : kCodecKinds) {
    if (static_cast<uint8_t>(kind) == id) {
      return ForKind(kind);
    }
  }
  return Status::Corruption("unknown codec id " + std::to_string(id));
}

Result<const Codec*> Codec::ForName(std::string_view name) {
  for (CodecKind kind : kCodecKinds) {
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

inline uint64_t Load64(const uint8_t* p) {
  uint64_t v;
  std::memcpy(&v, p, 8);
  return v;
}

/// Length of the common prefix of `a` and `b`, at most `limit`: eight
/// bytes a step, the first differing byte found from the XOR's trailing
/// (little-endian) or leading (big-endian) zero bits.
inline size_t MatchLength(const uint8_t* a, const uint8_t* b, size_t limit) {
  size_t len = 0;
  while (len + 8 <= limit) {
    const uint64_t diff = Load64(a + len) ^ Load64(b + len);
    if (diff != 0) {
      if constexpr (std::endian::native == std::endian::little) {
        return len + (std::countr_zero(diff) >> 3);
      } else {
        return len + (std::countl_zero(diff) >> 3);
      }
    }
    len += 8;
  }
  while (len < limit && a[len] == b[len]) {
    ++len;
  }
  return len;
}

inline uint8_t* PutVarint(uint8_t* dst, uint64_t v) {
  while (v >= 0x80) {
    *dst++ = static_cast<uint8_t>(v) | 0x80;
    v >>= 7;
  }
  *dst++ = static_cast<uint8_t>(v);
  return dst;
}

/// Most bytes Compress writes for `n` input bytes. Every literal run but
/// the last is followed by a match, and the costliest pair per input
/// byte is a 1-byte run (tag, length, byte: 3 bytes) before a 4-byte
/// match at distance >= 16 KiB (tag, length, 3-byte distance: 5 bytes),
/// 8 bytes for 5; longer runs and matches cost less per byte, and a match
/// alone at most 6 bytes for 4. The last run adds its tag and a length
/// of up to 10 bytes to its own bytes.
size_t MaxCompressedSize(size_t n) { return n + n / 5 * 3 + 3 + 11; }

/// The hash chains of one thread, allocated on its first Compress and
/// reused by every later one (ChunkedFrame compresses chunks on a pool).
/// `head` holds the newest position of each quad hash; `prev` is a ring
/// over the window holding, for each position, the one before it with
/// the same hash. Positions are stored as `base + offset`, each call
/// taking a base more than a window past every position stored before,
/// so entries left from earlier calls fail the window test and nothing
/// is cleared between calls. 64-bit entries never wrap.
struct MatchTables {
  static_assert((kWindowSize & (kWindowSize - 1)) == 0, "ring is masked");
  std::unique_ptr<uint64_t[]> head =
      std::make_unique<uint64_t[]>(size_t{1} << kHashBits);
  std::unique_ptr<uint64_t[]> prev = std::make_unique<uint64_t[]>(kWindowSize);
  uint64_t next_base = kWindowSize + 1;
};

}  // namespace

Result<Bytes> Lz77Codec::Compress(std::span<const uint8_t> input) const {
  const size_t n = input.size();
  const uint8_t* src = input.data();
  Bytes out(MaxCompressedSize(n));
  uint8_t* dst = out.data();

  size_t literal_start = 0;
  auto flush_literals = [&](size_t end) {
    if (end > literal_start) {
      *dst++ = 0x00;
      dst = PutVarint(dst, end - literal_start);
      std::memcpy(dst, src + literal_start, end - literal_start);
      dst += end - literal_start;
    }
  };

  if (n >= kMinMatch) {
    thread_local MatchTables tables;
    const uint64_t base = tables.next_base;
    tables.next_base = base + n + kWindowSize + 1;
    uint64_t* head = tables.head.get();
    uint64_t* prev = tables.prev.get();
    auto insert = [&](size_t pos, uint32_t h) {
      prev[(base + pos) & (kWindowSize - 1)] = head[h];
      head[h] = base + pos;
    };

    // Positions up to `last` start a full quad: they are searched and
    // inserted. The bytes after them can only be literals.
    const size_t last = n - kMinMatch;
    size_t i = 0;
    while (i <= last) {
      // Walk the chain nearest first; a strictly longer match replaces the
      // best, so the nearest wins ties. A candidate within the window was
      // inserted by this call, and its ring slot not yet reused.
      const uint64_t cur = base + i;
      const uint32_t h = HashQuad(src + i);
      const size_t limit = std::min(kMaxMatch, n - i);
      size_t best_len = kMinMatch - 1;
      size_t best_dist = 0;
      uint64_t candidate = head[h];
      for (size_t depth = 0;
           depth < kMaxChainDepth && cur - candidate <= kWindowSize;
           ++depth) {
        const size_t dist = cur - candidate;
        const size_t len = MatchLength(src + i - dist, src + i, limit);
        const bool longer = len > best_len;
        best_len = longer ? len : best_len;
        best_dist = longer ? dist : best_dist;
        if (best_len == limit) {
          break;
        }
        candidate = prev[candidate & (kWindowSize - 1)];
      }
      insert(i, h);
      if (best_len < kMinMatch) {
        ++i;
        continue;
      }
      flush_literals(i);
      *dst++ = 0x01;
      dst = PutVarint(dst, best_len);
      dst = PutVarint(dst, best_dist);
      // Insert the positions the match covers so later matches can
      // reference inside it.
      const size_t match_end = i + best_len;
      for (++i; i < match_end && i <= last; ++i) {
        insert(i, HashQuad(src + i));
      }
      i = match_end;
      literal_start = i;
    }
  }
  flush_literals(n);
  out.resize(static_cast<size_t>(dst - out.data()));
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
