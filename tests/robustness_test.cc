#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "compress/codec.h"
#include "compress/huffman.h"
#include "docstore/document_store.h"
#include "filestore/file_store.h"
#include "hash/merkle_tree.h"
#include "json/json.h"
#include "tensor/tensor.h"
#include "util/random.h"

namespace mmlib {
namespace {

/// Fuzz-style robustness sweeps: every parser in the persistence path must
/// handle arbitrary corrupted input by returning an error — never by
/// crashing, looping, or silently returning wrong data.

Bytes RandomBytes(size_t size, Rng* rng) {
  Bytes data(size);
  for (auto& b : data) {
    b = static_cast<uint8_t>(rng->NextBelow(256));
  }
  return data;
}

class FuzzSeeds : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FuzzSeeds, JsonParserSurvivesGarbage) {
  Rng rng(GetParam());
  for (int round = 0; round < 200; ++round) {
    const Bytes garbage = RandomBytes(rng.NextBelow(200), &rng);
    const std::string text(garbage.begin(), garbage.end());
    // Must return (value or error) without crashing.
    auto result = json::Parse(text);
    (void)result;
  }
}

TEST_P(FuzzSeeds, CodecUnframeSurvivesBitFlips) {
  Rng rng(GetParam());
  // Build a valid frame, then flip random bytes: Unframe must either fail
  // or (if the flip missed every meaningful bit) return the exact payload.
  Bytes payload = RandomBytes(500 + rng.NextBelow(2000), &rng);
  for (CodecKind kind : {CodecKind::kLz77, CodecKind::kLz77Huffman}) {
    const Bytes frame = Codec::ForKind(kind)->Frame(payload).value();
    for (int round = 0; round < 50; ++round) {
      Bytes corrupted = frame;
      const size_t position = rng.NextBelow(corrupted.size());
      corrupted[position] ^= static_cast<uint8_t>(1 + rng.NextBelow(255));
      auto result = Codec::Unframe(corrupted);
      if (result.ok()) {
        EXPECT_EQ(result.value(), payload);
      }
    }
  }
}

TEST_P(FuzzSeeds, CodecDecompressSurvivesGarbage) {
  Rng rng(GetParam());
  // Callers decompress with an output bound (Unframe derives it from the
  // frame header); with the bound set, garbage cannot exhaust memory.
  constexpr size_t kLimit = 1 << 20;
  for (int round = 0; round < 100; ++round) {
    const Bytes garbage = RandomBytes(rng.NextBelow(500), &rng);
    for (CodecKind kind : {CodecKind::kLz77, CodecKind::kLz77Huffman}) {
      auto result = Codec::ForKind(kind)->Decompress(garbage, kLimit);
      if (result.ok()) {
        EXPECT_LE(result->size(), kLimit);
      }
    }
    auto unframed = Codec::Unframe(garbage);
    (void)unframed;
  }
}

TEST_P(FuzzSeeds, HuffmanDecodeSurvivesGarbage) {
  Rng rng(GetParam());
  for (int round = 0; round < 100; ++round) {
    const Bytes garbage = RandomBytes(140 + rng.NextBelow(500), &rng);
    auto result = huffman::Decode(garbage);
    (void)result;
  }
}

TEST_P(FuzzSeeds, TensorDeserializeSurvivesGarbage) {
  Rng rng(GetParam());
  for (int round = 0; round < 200; ++round) {
    const Bytes garbage = RandomBytes(rng.NextBelow(300), &rng);
    auto result = Tensor::Deserialize(garbage);
    (void)result;
  }
}

TEST_P(FuzzSeeds, MerkleDeserializeSurvivesGarbage) {
  Rng rng(GetParam());
  for (int round = 0; round < 200; ++round) {
    const Bytes garbage = RandomBytes(rng.NextBelow(400), &rng);
    auto result = MerkleTree::Deserialize(garbage);
    (void)result;
  }
}

TEST_P(FuzzSeeds, TensorRoundtripWithBitFlipsNeverMisreports) {
  Rng rng(GetParam());
  Tensor tensor = Tensor::Gaussian(Shape{37}, 1.0f, &rng);
  const Bytes valid = tensor.Serialize();
  for (int round = 0; round < 100; ++round) {
    Bytes corrupted = valid;
    // Flip within the header region (shape/count), where corruption must
    // be detected structurally.
    const size_t position = rng.NextBelow(24);
    corrupted[position] ^= static_cast<uint8_t>(1 + rng.NextBelow(255));
    auto result = Tensor::Deserialize(corrupted);
    if (result.ok()) {
      // A header flip that still parses must describe the same layout.
      EXPECT_EQ(result->numel(), tensor.numel());
    }
  }
}

TEST_P(FuzzSeeds, PersistentStoresSurviveGarbageOnDisk) {
  Rng rng(GetParam());
  const std::string root = ::testing::TempDir() + "/robust-store-" +
                           std::to_string(GetParam());
  std::filesystem::remove_all(root);
  auto files = filestore::LocalDirFileStore::Open(root + "/files").value();
  auto docs =
      docstore::PersistentDocumentStore::Open(root + "/docs").value();

  const Bytes payload = RandomBytes(300, &rng);
  const std::string file_id = files->SaveFile(payload).value();
  json::Value doc = json::Value::MakeObject();
  doc.Set("seed", static_cast<int64_t>(GetParam()));
  const std::string doc_id = docs->Insert("models", doc).value();

  // Litter both roots with garbage that collides with the stores' naming
  // conventions: raw bytes posing as entries, temporaries, foreign files.
  for (int i = 0; i < 10; ++i) {
    const Bytes garbage = RandomBytes(1 + rng.NextBelow(200), &rng);
    const std::string tag = std::to_string(i);
    for (const std::string& path :
         {root + "/files/garbage" + tag + ".bin",
          root + "/files/partial" + tag + ".bin.tmp",
          root + "/docs/models/garbage" + tag + ".json",
          root + "/docs/models/stray" + tag + ".txt"}) {
      std::ofstream out(path, std::ios::binary);
      out.write(reinterpret_cast<const char*>(garbage.data()),
                static_cast<std::streamsize>(garbage.size()));
    }
  }

  // Genuine data still loads intact.
  EXPECT_EQ(files->LoadFile(file_id).value(), payload);
  EXPECT_TRUE(docs->Get("models", doc_id).ok());

  // Every API over the polluted stores returns value-or-error, never
  // crashes: garbage .json "documents" fail to parse, garbage .bin
  // "files" load as opaque bytes, listings and accounting complete.
  const std::vector<std::string> listed = docs->ListIds("models").value();
  for (const std::string& id : listed) {
    auto result = docs->Get("models", id);
    (void)result;
  }
  for (int i = 0; i < 10; ++i) {
    auto loaded = files->LoadFile("garbage" + std::to_string(i));
    (void)loaded;
  }
  EXPECT_GE(files->TotalStoredBytes(), payload.size());
  EXPECT_GE(docs->DocumentCount(), 1u);
  std::filesystem::remove_all(root);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzSeeds,
                         ::testing::Values(11, 22, 33, 44, 55, 66));

}  // namespace
}  // namespace mmlib
