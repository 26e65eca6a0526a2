#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <optional>
#include <span>
#include <vector>

#include "compress/chunked.h"
#include "compress/codec.h"
#include "compress/huffman.h"
#include "data/archive.h"
#include "data/dataset.h"
#include "hash/sha256.h"
#include "util/random.h"
#include "util/thread_pool.h"

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
  for (const char* codec : {"identity", "lz77", "lz77-huffman"}) {
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
  EXPECT_EQ(Codec::ForName("identity").value()->kind(),
            CodecKind::kIdentity);
  EXPECT_FALSE(Codec::ForName("zstd").ok());
  EXPECT_FALSE(Codec::ForName("rle").ok());
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

// --- LZ77 compressor byte identity ---

/// The LZ77 compressor before its matcher was rewritten: byte-by-byte
/// compares, per-call tables. Lz77Codec::Compress must emit exactly its
/// bytes for every input.
Bytes Lz77CompressReference(std::span<const uint8_t> input) {
  constexpr size_t kWindowSize = 64 * 1024;
  constexpr size_t kMinMatch = 4;
  constexpr size_t kMaxMatch = 1024;
  constexpr size_t kHashBits = 16;
  constexpr size_t kMaxChainDepth = 32;
  auto write_varint = [](Bytes* out, uint64_t v) {
    while (v >= 0x80) {
      out->push_back(static_cast<uint8_t>(v) | 0x80);
      v >>= 7;
    }
    out->push_back(static_cast<uint8_t>(v));
  };
  auto hash_quad = [](const uint8_t* p) {
    uint32_t v;
    std::memcpy(&v, p, 4);
    return (v * 2654435761u) >> (32 - kHashBits);
  };
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
      write_varint(&out, end - literal_start);
      out.insert(out.end(), input.begin() + literal_start,
                 input.begin() + end);
    }
  };
  size_t i = 0;
  while (i < n) {
    size_t best_len = 0;
    size_t best_dist = 0;
    if (i + kMinMatch <= n) {
      const uint32_t h = hash_quad(input.data() + i);
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
      write_varint(&out, best_len);
      write_varint(&out, best_dist);
      const size_t match_end = i + best_len;
      while (i < match_end) {
        if (i + kMinMatch <= n) {
          const uint32_t h = hash_quad(input.data() + i);
          prev[i] = head[h];
          head[h] = static_cast<int64_t>(i);
        }
        ++i;
      }
      literal_start = i;
    } else {
      if (i + kMinMatch <= n) {
        const uint32_t h = hash_quad(input.data() + i);
        prev[i] = head[h];
        head[h] = static_cast<int64_t>(i);
      }
      ++i;
    }
  }
  flush_literals(n);
  return out;
}

/// Compresses with Lz77Codec and with the reference, expecting equal
/// bytes and a round trip.
void ExpectLz77MatchesReference(const Bytes& payload) {
  const Codec* codec = Codec::ForKind(CodecKind::kLz77);
  const Bytes compressed = codec->Compress(payload).value();
  ASSERT_EQ(compressed, Lz77CompressReference(payload))
      << payload.size() << " bytes";
  ASSERT_EQ(codec->Decompress(compressed, payload.size()).value(), payload);
}

/// The pixels of CO-512 at byte divisor 512, the dataset every MPA save
/// of perfbench's mpa_replay archives.
Bytes Co512Pixels() {
  data::SyntheticImageDataset dataset(data::PaperDatasetId::kCocoOutdoor512,
                                      512);
  Bytes pixels;
  for (size_t i = 0; i < dataset.size(); ++i) {
    const data::Image image = dataset.GetImage(i);
    pixels.insert(pixels.end(), image.pixels.begin(), image.pixels.end());
  }
  return pixels;
}

/// `count` bytes of `% 3` noise: long hash chains, short matches.
Bytes LowEntropyPayload(size_t count, uint64_t seed) {
  Rng rng(seed);
  Bytes data(count);
  for (uint8_t& byte : data) {
    byte = static_cast<uint8_t>(rng.NextBelow(3));
  }
  return data;
}

TEST(Lz77CompressTest, MatchesReferenceOnPayloadKinds) {
  for (const Bytes& payload :
       {MakePayload("random", 300000, 51), MakePayload("zeros", 300000, 52),
        LowEntropyPayload(300000, 53), MakePayload("text", 300000, 54),
        MakePayload("runs", 100000, 55), MakePayload("periodic", 100000, 56),
        PhotoLikePayload(200000, 57), Co512Pixels()}) {
    ExpectLz77MatchesReference(payload);
  }
}

TEST(Lz77CompressTest, MatchesReferenceAtEveryShortLength) {
  const Bytes sources[] = {MakePayload("text", 600, 58),
                           LowEntropyPayload(600, 59),
                           MakePayload("random", 600, 60),
                           MakePayload("zeros", 600, 61)};
  for (const Bytes& source : sources) {
    for (size_t size = 0; size <= 600; ++size) {
      ExpectLz77MatchesReference(Bytes(source.begin(), source.begin() + size));
    }
  }
}

TEST(Lz77CompressTest, MatchesReferenceAtTheWindowEdge) {
  constexpr size_t kWindow = 64 * 1024;
  for (size_t size : {kWindow - 1, kWindow, kWindow + 1}) {
    ExpectLz77MatchesReference(MakePayload("text", size, 62));
    ExpectLz77MatchesReference(LowEntropyPayload(size, 63));
  }
  // Random bytes, then their first 64 bytes again at distance `dist`:
  // the repeat is the only match, found at 64 KiB and not beyond.
  for (size_t dist : {kWindow - 1, kWindow, kWindow + 1}) {
    Bytes payload = MakePayload("random", dist, 64);
    payload.insert(payload.end(), payload.begin(), payload.begin() + 64);
    ExpectLz77MatchesReference(payload);
    const Bytes compressed =
        Codec::ForKind(CodecKind::kLz77)->Compress(payload).value();
    if (dist <= kWindow) {
      EXPECT_LT(compressed.size(), payload.size() - 32) << dist;
    } else {
      EXPECT_GT(compressed.size(), payload.size()) << dist;
    }
  }
}

TEST(Lz77CompressTest, MatchesReferenceOnRunsAroundTheMaxMatch) {
  for (size_t run : {1023, 1024, 1025}) {
    Bytes payload = MakePayload("random", 100, 65);
    payload.insert(payload.end(), run, 0x5a);
    ExpectLz77MatchesReference(payload);
    ExpectLz77MatchesReference(Bytes(run, 0x5a));
    payload.push_back(0x11);
    payload.insert(payload.end(), run + 3, 0x5a);
    ExpectLz77MatchesReference(payload);
  }
}

TEST(Lz77CompressTest, InterleavedCallsOnOneThreadMatchReference) {
  // The matcher keeps its tables per thread across calls: a call must
  // not see positions an earlier call left, whatever their sizes.
  const Bytes large_text = MakePayload("text", 200000, 66);
  const Bytes large_low = LowEntropyPayload(150000, 67);
  const std::vector<Bytes> sequence = {
      large_text,
      MakePayload("text", 300, 68),
      large_low,
      MakePayload("text", 5, 69),
      LowEntropyPayload(70000, 70),
      large_text,
      Bytes(large_text.begin(), large_text.begin() + 4),
      large_low,
      MakePayload("zeros", 4, 71),
      Bytes(large_low.begin(), large_low.begin() + 9000),
      large_text};
  for (int round = 0; round < 2; ++round) {
    for (const Bytes& payload : sequence) {
      ExpectLz77MatchesReference(payload);
    }
  }
}

TEST(Lz77CompressTest, ChunkedFramesMatchSerialFrameOnEveryPool) {
  // The frame built from the reference compressor, chunk by chunk.
  const Bytes payload = LowEntropyPayload(300000, 72);
  constexpr size_t kChunk = 40000;
  BytesWriter writer;
  writer.WriteU32(0x4d4d4c43);  // "MMLC"
  writer.WriteU8(static_cast<uint8_t>(CodecKind::kLz77));
  writer.WriteU64(payload.size());
  writer.WriteU64(kChunk);
  writer.WriteU64((payload.size() + kChunk - 1) / kChunk);
  for (size_t offset = 0; offset < payload.size(); offset += kChunk) {
    const std::span<const uint8_t> chunk =
        std::span<const uint8_t>(payload).subspan(
            offset, std::min(kChunk, payload.size() - offset));
    writer.WriteU32(Crc32(chunk.data(), chunk.size()));
    const Bytes encoded = Lz77CompressReference(chunk);
    writer.WriteBlob(encoded.data(), encoded.size());
  }
  const Bytes serial = writer.TakeBytes();
  for (size_t threads : {1, 2, 8}) {
    util::ThreadPool pool(threads);
    for (int round = 0; round < 3; ++round) {
      EXPECT_EQ(ChunkedFrame(payload, CodecKind::kLz77, kChunk, &pool).value(),
                serial)
          << threads << " threads, round " << round;
    }
  }
}

TEST(Lz77CompressTest, WorstCaseExpansionStaysWithinItsBound) {
  // Random bytes, then groups of one fresh literal byte and four bytes
  // copied from 32 KiB to 64 KiB back: each group costs a 1-byte literal
  // run (3 bytes) and a 4-byte match with a 3-byte distance (5 bytes),
  // 8 output bytes for 5 input bytes, the costliest token pair.
  Rng rng(73);
  Bytes payload = MakePayload("random", 32 * 1024, 74);
  constexpr size_t kGroups = 6000;
  for (size_t g = 0; g < kGroups; ++g) {
    payload.push_back(static_cast<uint8_t>(rng.NextBelow(256)));
    const size_t from = rng.NextBelow(16 * 1024);
    payload.insert(payload.end(), payload.begin() + from,
                   payload.begin() + from + 4);
  }
  ExpectLz77MatchesReference(payload);
  const size_t n = payload.size();
  const Bytes compressed =
      Codec::ForKind(CodecKind::kLz77)->Compress(payload).value();
  EXPECT_LE(compressed.size(), n + n / 5 * 3 + 14);
  // The groups really are near the worst case, not incidental matches.
  EXPECT_GT(compressed.size() - 32 * 1024, kGroups * 15 / 2);
}

TEST(Lz77CompressTest, DatasetArchiveMatchesGoldenDigest) {
  // The archive an MPA save of perfbench's mpa_replay writes: CO-512 at
  // byte divisor 512, LZ77. Recorded before the matcher was rewritten.
  data::SyntheticImageDataset dataset(data::PaperDatasetId::kCocoOutdoor512,
                                      512);
  const Bytes archive =
      data::DatasetArchiver(Codec::ForKind(CodecKind::kLz77))
          .Archive(dataset, dataset.ContentHash())
          .value();
  EXPECT_EQ(archive.size(), 98988u);
  EXPECT_EQ(Sha256::Hash(archive).ToHex(),
            "5fc43cfe019d22a3c154e851cf63c33308785b24367b26ccb54bbf6a25c488e2");
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

TEST(CodecTest, RetiredRleIdIsUnknown) {
  // Id 1 was a run-length codec; frames that carry it must not decode.
  const Bytes payload = MakePayload("runs", 100, 5);
  Bytes frame = Codec::ForKind(CodecKind::kIdentity)->Frame(payload).value();
  Bytes chunked = ChunkedFrame(payload, CodecKind::kIdentity, 7).value();
  frame[4] = 1;
  chunked[4] = 1;
  for (const Status& status : {Codec::Unframe(frame).status(),
                               ChunkedUnframe(chunked).status()}) {
    EXPECT_EQ(status.code(), StatusCode::kCorruption);
    EXPECT_NE(status.ToString().find("unknown codec id 1"), std::string::npos)
        << status;
  }
  EXPECT_EQ(Codec::ForId(1).status().code(), StatusCode::kCorruption);
}

TEST(CodecTest, UnframeDetectsTruncation) {
  const Codec* codec = Codec::ForKind(CodecKind::kLz77);
  Bytes frame = codec->Frame(MakePayload("runs", 1000, 6)).value();
  frame.resize(frame.size() - 10);
  EXPECT_FALSE(Codec::Unframe(frame).ok());
}

TEST(CodecTest, DecompressRejectsGarbage) {
  // Tag bytes other than 0x00/0x01 are invalid for LZ77.
  Bytes bad = {0x55, 0x01, 0x02};
  EXPECT_FALSE(Codec::ForKind(CodecKind::kLz77)->Decompress(bad).ok());
}

TEST(CodecTest, Lz77RejectsOutOfRangeDistance) {
  // Match (tag 0x01) with distance 5 but no prior output.
  Bytes bad = {0x01, 0x04, 0x05};
  EXPECT_FALSE(Codec::ForKind(CodecKind::kLz77)->Decompress(bad).ok());
}

TEST(CodecTest, CompressionIsDeterministic) {
  const Bytes payload = MakePayload("text", 30000, 8);
  for (CodecKind kind :
       {CodecKind::kIdentity, CodecKind::kLz77, CodecKind::kLz77Huffman}) {
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


// --- Chunked frames ---

/// 3 MiB + 5: three whole default-size chunks and a 5-byte tail.
constexpr size_t kLargePayload = (size_t{3} << 20) + 5;

struct GoldenFrame {
  CodecKind kind;
  size_t payload_size;
  size_t chunk_size;
  const char* sha256;
};

TEST(ChunkedFrameTest, FramesMatchGoldenDigests) {
  // SHA-256 of frames of MakePayload("random", size, 41), recorded before
  // the framing path went copy-free (LZ77 with 1- and 7-byte chunks of the
  // large payload: before the LZ77 matcher was rewritten), so they pin
  // every compressed byte too.
  const GoldenFrame kGolden[] = {
      {CodecKind::kIdentity, 0, 1,
       "77f57b38d66086776c6d3574697516249126d7009aa4e42f5b6fed08a466e0ed"},
      {CodecKind::kIdentity, 0, 7,
       "57ada4d851d5428e108987ca2375ac4468ddce4fa3f5c66a0a0518cbf155b322"},
      {CodecKind::kIdentity, 0, 4096,
       "9d74bb0cab87398d1090c8d061944322bf083f6ecf73ea75163b5319ebaaecfc"},
      {CodecKind::kIdentity, 0, kDefaultChunkSize,
       "c52b55bbdf45d124217b25634ae5cf2277af69412f3863931e5d03b582f985a0"},
      {CodecKind::kLz77, 0, 1,
       "75b5e6dd16c5ef93850d5a551fbae943be2ef26901adbec3e1ecb137896b557b"},
      {CodecKind::kLz77, 0, 7,
       "5f206cbae9f27256137c448148aef6bd7da50effe9537c3e3c79b27b246dcb84"},
      {CodecKind::kLz77, 0, 4096,
       "fcf88d5c13c3cb2294524221bb8f60db4bba0143e71fd56873b9e826cfd2e60c"},
      {CodecKind::kLz77, 0, kDefaultChunkSize,
       "370e1c6dc951d69c2de7be898ec4544a4554899e84a95408ee65cc890d430f91"},
      {CodecKind::kIdentity, 1, 1,
       "aa187d7dd83c16b3bea677cc18fe5fbe06c17bb5c581660bdeee0e295597110f"},
      {CodecKind::kIdentity, 1, 7,
       "804a42565ee4ea925e8ad242fc33a7082c2e4989ac993e29731bc8fb1cccd88c"},
      {CodecKind::kIdentity, 1, 4096,
       "0932ebd964e42d54d9c63508a3c754b502550b6105e76db2e9086735a1ee4ff5"},
      {CodecKind::kIdentity, 1, kDefaultChunkSize,
       "3793ec1b2c0a9fabe289a7ab25ee946684278de2122d331c9ad222648fdd11a0"},
      {CodecKind::kLz77, 1, 1,
       "9d9a83c9984e8e5029a7566482602700f213d1199ae1e20eda9bdd116fac5f9c"},
      {CodecKind::kLz77, 1, 7,
       "7a17281647186eca351391a4c6ad02cfe6c2fabb4bd31ebd2e91448a7a46bca5"},
      {CodecKind::kLz77, 1, 4096,
       "deac2b3c0e3c8221d4c61efc5e28c9265f8abe5e07df8b03fabe0d512dfd7d31"},
      {CodecKind::kLz77, 1, kDefaultChunkSize,
       "a81ede4f5e21be649a965d0a0f61892b409021b6532a6e041ce29ab6f8457d8a"},
      {CodecKind::kIdentity, kLargePayload, 1,
       "cb5cbc1fcce43291d801a7927659b32924e6a7770653719aa88e10419a92cc6f"},
      {CodecKind::kIdentity, kLargePayload, 7,
       "14ecb32fc7ea31ab9791a0898c88efe5e15d243faf8314544cc342ed0b06cd9f"},
      {CodecKind::kIdentity, kLargePayload, 4096,
       "8be81cbc620d78e6ec71e65d33c98f812166880489d5d6b8b23074b3ca551452"},
      {CodecKind::kIdentity, kLargePayload, kDefaultChunkSize,
       "f722746b42674e0df1af13cfe221bc4013bcf1b898a5e9a5f5a7f49e45d5020d"},
      {CodecKind::kLz77, kLargePayload, 1,
       "5e5413f8636f27ffe4a34ae6416bc9acc6637e23f6b59ff57a6210ef554e2de3"},
      {CodecKind::kLz77, kLargePayload, 7,
       "f7ef4405f9550b7ef6e67d816bbf5a5ee034e396641e2e55dd39d33777fc144e"},
      {CodecKind::kLz77, kLargePayload, 4096,
       "64e4a7dcb57ca49ca00392f66e8a72005e8c1a700cc3ac7235edb587176cb172"},
      {CodecKind::kLz77, kLargePayload, kDefaultChunkSize,
       "0163cd4138a75d62339b837c37ed99fed778f1daeb0a0c45a5ec3cb81f6eaad8"},
  };
  for (const GoldenFrame& g : kGolden) {
    const Bytes payload = MakePayload("random", g.payload_size, 41);
    const Bytes frame = ChunkedFrame(payload, g.kind, g.chunk_size).value();
    EXPECT_EQ(Sha256::Hash(frame).ToHex(), g.sha256)
        << Codec::ForKind(g.kind)->name() << ", payload " << g.payload_size
        << ", chunk " << g.chunk_size;
    EXPECT_EQ(ChunkedUnframe(frame).value(), payload)
        << Codec::ForKind(g.kind)->name() << ", payload " << g.payload_size
        << ", chunk " << g.chunk_size;
  }
}

TEST(ChunkedFrameTest, WrappingChunkCountIsCorruption) {
  // original_size 100 in chunks of 2^64 - 50 is one chunk; a chunk count
  // computed as (100 + chunk_size - 1) / chunk_size wraps to 0 and let
  // this chunkless frame decode to 100 unchecked zero bytes.
  BytesWriter writer;
  writer.WriteU32(0x4d4d4c43);  // "MMLC"
  writer.WriteU8(static_cast<uint8_t>(CodecKind::kIdentity));
  writer.WriteU64(100);
  writer.WriteU64(~uint64_t{0} - 49);
  writer.WriteU64(0);
  ASSERT_EQ(writer.size(), 29u);
  EXPECT_EQ(ChunkedUnframe(writer.bytes()).status().code(),
            StatusCode::kCorruption);
}

/// Frames of 100 random bytes in 7-byte chunks, one per codec that saves
/// snapshots or datasets.
std::vector<Bytes> SmallFrames() {
  const Bytes payload = MakePayload("random", 100, 43);
  return {ChunkedFrame(payload, CodecKind::kIdentity, 7).value(),
          ChunkedFrame(payload, CodecKind::kLz77, 7).value()};
}

TEST(ChunkedFrameTest, EveryHeaderByteFlipIsCorruption) {
  // The 29-byte frame header and the first chunk's 12-byte header (CRC
  // and length prefix), each byte XORed with every nonzero value.
  constexpr size_t kHeaderBytes = 29 + 12;
  for (const Bytes& frame : SmallFrames()) {
    ASSERT_TRUE(ChunkedUnframe(frame).ok());
    for (size_t pos = 0; pos < kHeaderBytes; ++pos) {
      for (int flip = 1; flip < 256; ++flip) {
        Bytes damaged = frame;
        damaged[pos] ^= static_cast<uint8_t>(flip);
        ASSERT_EQ(ChunkedUnframe(damaged).status().code(),
                  StatusCode::kCorruption)
            << "codec byte " << int{frame[4]} << ", byte " << pos
            << " ^ " << flip;
      }
    }
  }
}

TEST(ChunkedFrameTest, EveryTruncationIsCorruption) {
  for (const Bytes& frame : SmallFrames()) {
    ASSERT_GT(frame.size(), 64u);
    for (size_t size = 0; size < 64; ++size) {
      const Bytes truncated(frame.begin(), frame.begin() + size);
      ASSERT_EQ(ChunkedUnframe(truncated).status().code(),
                StatusCode::kCorruption)
          << "codec byte " << int{frame[4]} << ", " << size << " bytes";
    }
  }
}

}  // namespace
}  // namespace mmlib
