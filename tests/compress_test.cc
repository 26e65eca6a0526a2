#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "compress/codec.h"
#include "compress/huffman.h"
#include "util/random.h"

namespace mmlib {
namespace {

Bytes MakePayload(const std::string& kind, size_t size, uint64_t seed) {
  Bytes data;
  data.reserve(size);
  Rng rng(seed);
  if (kind == "zeros") {
    data.assign(size, 0);
  } else if (kind == "runs") {
    while (data.size() < size) {
      const uint8_t value = static_cast<uint8_t>(rng.NextBelow(4));
      const size_t run = 1 + rng.NextBelow(40);
      for (size_t i = 0; i < run && data.size() < size; ++i) {
        data.push_back(value);
      }
    }
  } else if (kind == "random") {
    for (size_t i = 0; i < size; ++i) {
      data.push_back(static_cast<uint8_t>(rng.NextBelow(256)));
    }
  } else if (kind == "text") {
    const std::string words[] = {"model ", "parameter ", "update ",
                                 "provenance ", "baseline "};
    while (data.size() < size) {
      const std::string& w = words[rng.NextBelow(5)];
      data.insert(data.end(), w.begin(), w.end());
    }
    data.resize(size);
  } else if (kind == "periodic") {
    for (size_t i = 0; i < size; ++i) {
      data.push_back(static_cast<uint8_t>(i % 7));
    }
  }
  return data;
}

struct RoundtripCase {
  const char* codec;
  const char* kind;
  size_t size;
};

class CodecRoundtripProperty
    : public ::testing::TestWithParam<RoundtripCase> {};

TEST_P(CodecRoundtripProperty, CompressDecompressIsIdentity) {
  const RoundtripCase c = GetParam();
  const Codec* codec = Codec::ForName(c.codec).value();
  const Bytes payload = MakePayload(c.kind, c.size, c.size + 17);
  auto compressed = codec->Compress(payload);
  ASSERT_TRUE(compressed.ok());
  auto restored = codec->Decompress(compressed.value());
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored.value(), payload);
}

TEST_P(CodecRoundtripProperty, FrameUnframeIsIdentity) {
  const RoundtripCase c = GetParam();
  const Codec* codec = Codec::ForName(c.codec).value();
  const Bytes payload = MakePayload(c.kind, c.size, c.size + 31);
  auto frame = codec->Frame(payload);
  ASSERT_TRUE(frame.ok());
  auto restored = Codec::Unframe(frame.value());
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored.value(), payload);
}

std::vector<RoundtripCase> AllRoundtripCases() {
  std::vector<RoundtripCase> cases;
  for (const char* codec : {"identity", "rle", "lz77", "lz77-huffman"}) {
    for (const char* kind : {"zeros", "runs", "random", "text", "periodic"}) {
      for (size_t size : {0, 1, 3, 100, 5000, 70000}) {
        cases.push_back(RoundtripCase{codec, kind, size});
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(AllCodecs, CodecRoundtripProperty,
                         ::testing::ValuesIn(AllRoundtripCases()));

TEST(CodecTest, LookupByName) {
  EXPECT_EQ(Codec::ForName("lz77").value()->kind(), CodecKind::kLz77);
  EXPECT_EQ(Codec::ForName("rle").value()->kind(), CodecKind::kRle);
  EXPECT_EQ(Codec::ForName("identity").value()->kind(),
            CodecKind::kIdentity);
  EXPECT_FALSE(Codec::ForName("zstd").ok());
}

TEST(CodecTest, RleCompressesRunsWell) {
  const Bytes payload = MakePayload("zeros", 10000, 1);
  const Bytes compressed =
      Codec::ForKind(CodecKind::kRle)->Compress(payload).value();
  EXPECT_LT(compressed.size(), payload.size() / 100);
}

TEST(CodecTest, Lz77CompressesTextWell) {
  const Bytes payload = MakePayload("text", 20000, 2);
  const Bytes compressed =
      Codec::ForKind(CodecKind::kLz77)->Compress(payload).value();
  EXPECT_LT(compressed.size(), payload.size() / 2);
}

TEST(CodecTest, Lz77HandlesOverlappingMatches) {
  // "abcabcabc..." forces matches that copy from their own output.
  Bytes payload;
  for (int i = 0; i < 1000; ++i) {
    payload.push_back(static_cast<uint8_t>('a' + i % 3));
  }
  const Codec* codec = Codec::ForKind(CodecKind::kLz77);
  const Bytes compressed = codec->Compress(payload).value();
  EXPECT_LT(compressed.size(), 100u);
  EXPECT_EQ(codec->Decompress(compressed).value(), payload);
}

/// The LZ77 decoder as it was before its fast path: append byte by byte.
/// Returns nullopt where it returned an error.
std::optional<Bytes> ReferenceLz77Decode(const Bytes& input,
                                         size_t max_output) {
  auto read_varint = [&](size_t* pos) -> std::optional<uint64_t> {
    uint64_t v = 0;
    int shift = 0;
    while (*pos < input.size()) {
      const uint8_t byte = input[(*pos)++];
      v |= static_cast<uint64_t>(byte & 0x7f) << shift;
      if ((byte & 0x80) == 0) {
        return v;
      }
      shift += 7;
      if (shift > 63) {
        break;
      }
    }
    return std::nullopt;
  };
  Bytes out;
  size_t pos = 0;
  while (pos < input.size()) {
    const uint8_t tag = input[pos++];
    if (tag == 0x00) {
      const std::optional<uint64_t> len = read_varint(&pos);
      if (!len || pos + *len > input.size() ||
          *len > max_output - out.size()) {
        return std::nullopt;
      }
      out.insert(out.end(), input.begin() + pos, input.begin() + pos + *len);
      pos += *len;
    } else if (tag == 0x01) {
      const std::optional<uint64_t> len = read_varint(&pos);
      if (!len) {
        return std::nullopt;
      }
      const std::optional<uint64_t> dist = read_varint(&pos);
      if (!dist || *dist == 0 || *dist > out.size() ||
          *len > max_output - out.size()) {
        return std::nullopt;
      }
      const size_t src = out.size() - *dist;
      for (uint64_t k = 0; k < *len; ++k) {
        out.push_back(out[src + k]);
      }
    } else {
      return std::nullopt;
    }
  }
  return out;
}

/// Smooth rows with noise and flat patches, like the synthetic images the
/// dataset archives hold.
Bytes PhotoLikePayload(size_t size, uint64_t seed) {
  Rng rng(seed);
  Bytes data(size);
  for (size_t i = 0; i < size; ++i) {
    const size_t x = i % 96;
    const size_t y = i / 96;
    const int base = static_cast<int>((x * 2 + y) % 200) +
                     ((y / 8) % 3 == 0 ? 40 : 0);
    data[i] = static_cast<uint8_t>(base + static_cast<int>(rng.NextBelow(6)));
  }
  return data;
}

TEST(CodecTest, Lz77DecoderMatchesByteByByteReference) {
  const Codec* codec = Codec::ForKind(CodecKind::kLz77);
  std::vector<Bytes> payloads = {
      MakePayload("random", 50000, 31), PhotoLikePayload(141000, 32),
      MakePayload("zeros", 70000, 33),  MakePayload("text", 60000, 34),
      MakePayload("periodic", 5000, 35), MakePayload("runs", 9000, 36),
      Bytes()};
  for (const Bytes& payload : payloads) {
    SCOPED_TRACE(payload.size());
    const Bytes compressed = codec->Compress(payload).value();
    // Unbounded, bounded by the exact size (as Unframe calls it), and
    // bounded with room to spare.
    for (size_t max_output : {Codec::kDefaultMaxOutput, payload.size(),
                              payload.size() * 3 + 7}) {
      const std::optional<Bytes> want =
          ReferenceLz77Decode(compressed, max_output);
      ASSERT_TRUE(want.has_value());
      EXPECT_EQ(*want, payload);
      EXPECT_EQ(codec->Decompress(compressed, max_output).value(), *want);
    }
    EXPECT_EQ(Codec::Unframe(codec->Frame(payload).value()).value(), payload);
    // A bound one byte short fails in both.
    if (!payload.empty()) {
      EXPECT_FALSE(ReferenceLz77Decode(compressed, payload.size() - 1));
      EXPECT_EQ(codec->Decompress(compressed, payload.size() - 1)
                    .status()
                    .code(),
                StatusCode::kCorruption);
    }
  }
}

TEST(CodecTest, Lz77DecoderRejectsWhatReferenceRejects) {
  const Codec* codec = Codec::ForKind(CodecKind::kLz77);
  const Bytes compressed =
      codec->Compress(MakePayload("text", 4000, 37)).value();
  Rng rng(38);
  for (int trial = 0; trial < 300; ++trial) {
    Bytes damaged = compressed;
    const size_t at = rng.NextBelow(damaged.size());
    damaged[at] = static_cast<uint8_t>(rng.NextBelow(256));
    if (trial % 3 == 0) {
      damaged.resize(rng.NextBelow(damaged.size()));
    }
    for (size_t max_output : {Codec::kDefaultMaxOutput, size_t{4000}}) {
      const std::optional<Bytes> want = ReferenceLz77Decode(damaged, max_output);
      const Result<Bytes> got = codec->Decompress(damaged, max_output);
      ASSERT_EQ(got.ok(), want.has_value()) << trial;
      if (want) {
        EXPECT_EQ(got.value(), *want) << trial;
      } else {
        EXPECT_EQ(got.status().code(), StatusCode::kCorruption) << trial;
      }
    }
  }
}

TEST(CodecTest, UnframeDetectsPayloadCorruption) {
  const Codec* codec = Codec::ForKind(CodecKind::kLz77);
  const Bytes payload = MakePayload("text", 5000, 3);
  Bytes frame = codec->Frame(payload).value();
  // Flip a byte inside the compressed blob (past the header).
  frame[frame.size() / 2] ^= 0xff;
  auto result = Codec::Unframe(frame);
  EXPECT_FALSE(result.ok());
}

TEST(CodecTest, UnframeDetectsBadMagic) {
  const Codec* codec = Codec::ForKind(CodecKind::kIdentity);
  Bytes frame = codec->Frame(MakePayload("runs", 100, 4)).value();
  frame[0] ^= 0x01;
  EXPECT_EQ(Codec::Unframe(frame).status().code(), StatusCode::kCorruption);
}

TEST(CodecTest, UnframeDetectsUnknownCodecId) {
  const Codec* codec = Codec::ForKind(CodecKind::kIdentity);
  Bytes frame = codec->Frame(MakePayload("runs", 100, 5)).value();
  frame[4] = 0x7f;  // codec id byte
  EXPECT_EQ(Codec::Unframe(frame).status().code(), StatusCode::kCorruption);
}

TEST(CodecTest, UnframeDetectsTruncation) {
  const Codec* codec = Codec::ForKind(CodecKind::kRle);
  Bytes frame = codec->Frame(MakePayload("runs", 1000, 6)).value();
  frame.resize(frame.size() - 10);
  EXPECT_FALSE(Codec::Unframe(frame).ok());
}

TEST(CodecTest, DecompressRejectsGarbage) {
  const Bytes garbage = MakePayload("random", 100, 7);
  // Tag bytes other than 0x00/0x01 are invalid for LZ77.
  Bytes bad = {0x55, 0x01, 0x02};
  EXPECT_FALSE(Codec::ForKind(CodecKind::kLz77)->Decompress(bad).ok());
  // RLE: run length zero is invalid.
  Bytes zero_run = {0x00, 0x99};
  EXPECT_FALSE(Codec::ForKind(CodecKind::kRle)->Decompress(zero_run).ok());
  (void)garbage;
}

TEST(CodecTest, Lz77RejectsOutOfRangeDistance) {
  // Match (tag 0x01) with distance 5 but no prior output.
  Bytes bad = {0x01, 0x04, 0x05};
  EXPECT_FALSE(Codec::ForKind(CodecKind::kLz77)->Decompress(bad).ok());
}

TEST(CodecTest, CompressionIsDeterministic) {
  const Bytes payload = MakePayload("text", 30000, 8);
  for (CodecKind kind :
       {CodecKind::kIdentity, CodecKind::kRle, CodecKind::kLz77,
        CodecKind::kLz77Huffman}) {
    const Codec* codec = Codec::ForKind(kind);
    EXPECT_EQ(codec->Compress(payload).value(),
              codec->Compress(payload).value());
  }
}

TEST(CodecTest, HuffmanStageShrinksLz77Output) {
  const Bytes payload = MakePayload("text", 60000, 9);
  const Bytes lz77 =
      Codec::ForKind(CodecKind::kLz77)->Compress(payload).value();
  const Bytes deflated =
      Codec::ForKind(CodecKind::kLz77Huffman)->Compress(payload).value();
  EXPECT_LT(deflated.size(), lz77.size());
}

TEST(HuffmanTest, EncodeDecodeRoundtrip) {
  for (const char* kind : {"zeros", "runs", "random", "text"}) {
    for (size_t size : {0, 1, 2, 500, 40000}) {
      const Bytes payload = MakePayload(kind, size, size + 1);
      auto encoded = huffman::Encode(payload);
      ASSERT_TRUE(encoded.ok());
      auto decoded = huffman::Decode(encoded.value());
      ASSERT_TRUE(decoded.ok()) << kind << " " << size << ": "
                                << decoded.status();
      EXPECT_EQ(decoded.value(), payload) << kind << " " << size;
    }
  }
}

TEST(HuffmanTest, SingleSymbolInput) {
  const Bytes payload(1000, 0x7a);
  auto encoded = huffman::Encode(payload).value();
  // 1000 symbols at one bit each plus the 136-byte header.
  EXPECT_LT(encoded.size(), 300u);
  EXPECT_EQ(huffman::Decode(encoded).value(), payload);
}

TEST(HuffmanTest, SkewedDistributionCompressesWell) {
  Bytes payload;
  Rng rng(10);
  for (int i = 0; i < 50000; ++i) {
    // 90% one symbol, the rest spread thinly.
    payload.push_back(rng.NextBelow(10) == 0
                          ? static_cast<uint8_t>(rng.NextBelow(256))
                          : 0x41);
  }
  const Bytes encoded = huffman::Encode(payload).value();
  EXPECT_LT(encoded.size(), payload.size() / 2);
  EXPECT_EQ(huffman::Decode(encoded).value(), payload);
}

TEST(HuffmanTest, DecodeRejectsTruncation) {
  const Bytes payload = MakePayload("text", 5000, 11);
  Bytes encoded = huffman::Encode(payload).value();
  encoded.resize(encoded.size() - 10);
  EXPECT_FALSE(huffman::Decode(encoded).ok());
}

TEST(HuffmanTest, DecodeRejectsEmptyTableWithPayload) {
  // Header claims 5 bytes of payload but all code lengths are zero.
  BytesWriter writer;
  writer.WriteU64(5);
  for (int i = 0; i < 128; ++i) {
    writer.WriteU8(0);
  }
  EXPECT_FALSE(huffman::Decode(writer.bytes()).ok());
}

}  // namespace
}  // namespace mmlib
