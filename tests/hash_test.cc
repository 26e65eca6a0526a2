#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "hash/crc32_paths.h"
#include "hash/merkle_tree.h"
#include "hash/sha256.h"
#include "hash/sha256_blocks.h"
#include "util/random.h"

namespace mmlib {
namespace {

// --- SHA-256 (FIPS 180-4 test vectors) ---

TEST(Sha256Test, EmptyInput) {
  EXPECT_EQ(
      Sha256::Hash("").ToHex(),
      "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256Test, Abc) {
  EXPECT_EQ(
      Sha256::Hash("abc").ToHex(),
      "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256Test, TwoBlockMessage) {
  EXPECT_EQ(
      Sha256::Hash(
          "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")
          .ToHex(),
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256Test, MillionAs) {
  Sha256 hasher;
  const std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) {
    hasher.Update(chunk);
  }
  EXPECT_EQ(
      hasher.Finish().ToHex(),
      "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256Test, IncrementalMatchesOneShot) {
  Rng rng(3);
  Bytes data(10000);
  for (auto& b : data) {
    b = static_cast<uint8_t>(rng.NextBelow(256));
  }
  // Feed in irregular chunk sizes.
  Sha256 hasher;
  size_t pos = 0;
  size_t step = 1;
  while (pos < data.size()) {
    const size_t take = std::min(step, data.size() - pos);
    hasher.Update(data.data() + pos, take);
    pos += take;
    step = step * 2 + 1;
  }
  EXPECT_EQ(hasher.Finish(), Sha256::Hash(data));
}

Bytes RandomBytes(Rng* rng, size_t size) {
  Bytes data(size);
  for (auto& b : data) {
    b = static_cast<uint8_t>(rng->NextBelow(256));
  }
  return data;
}

// Digest of `data` from the portable block function alone, padded here
// rather than by Sha256::Finish.
Digest ReferenceDigest(const Bytes& data) {
  Bytes padded = data;
  padded.push_back(0x80);
  while (padded.size() % 64 != 56) {
    padded.push_back(0x00);
  }
  const uint64_t bit_length = static_cast<uint64_t>(data.size()) * 8;
  for (int i = 7; i >= 0; --i) {
    padded.push_back(static_cast<uint8_t>(bit_length >> (8 * i)));
  }
  uint32_t state[8] = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
                       0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
  sha256_internal::BlocksPortable(state, padded.data(), padded.size() / 64);
  Digest digest;
  for (int i = 0; i < 8; ++i) {
    for (int j = 0; j < 4; ++j) {
      digest.bytes[i * 4 + j] = static_cast<uint8_t>(state[i] >> (24 - 8 * j));
    }
  }
  return digest;
}

TEST(Sha256Test, PortableReferenceMatchesFipsVector) {
  EXPECT_EQ(ReferenceDigest(Bytes{'a', 'b', 'c'}).ToHex(),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256Test, IncrementalAtRandomSplitsMatchesReferenceForAllLengths) {
  Rng rng(17);
  for (size_t length = 0; length <= 4096; ++length) {
    const Bytes data = RandomBytes(&rng, length);
    const Digest reference = ReferenceDigest(data);
    ASSERT_EQ(Sha256::Hash(data), reference) << "length " << length;

    // Split into a random number of pieces at random points, including
    // empty pieces.
    std::vector<size_t> cuts = {0, length};
    const size_t num_cuts = rng.NextBelow(6);
    for (size_t i = 0; i < num_cuts; ++i) {
      cuts.push_back(rng.NextBelow(length + 1));
    }
    std::sort(cuts.begin(), cuts.end());
    Sha256 hasher;
    for (size_t i = 0; i + 1 < cuts.size(); ++i) {
      hasher.Update(data.data() + cuts[i], cuts[i + 1] - cuts[i]);
    }
    ASSERT_EQ(hasher.Finish(), reference) << "length " << length;
  }
}

TEST(Sha256BlocksTest, SelectedPathIsShaNiExactlyWhenCpuHasIt) {
#if defined(__x86_64__)
  EXPECT_EQ(sha256_internal::SelectedBlocks() == sha256_internal::BlocksShaNi,
            sha256_internal::CpuHasShaNi());
#else
  EXPECT_FALSE(sha256_internal::CpuHasShaNi());
  EXPECT_EQ(sha256_internal::SelectedBlocks(),
            sha256_internal::BlocksPortable);
#endif
}

TEST(Sha256BlocksTest, ShaNiMatchesPortableOnRandomStatesAndBlocks) {
#if defined(__x86_64__)
  if (!sha256_internal::CpuHasShaNi()) {
    GTEST_SKIP() << "CPU lacks the SHA extensions";
  }
  Rng rng(23);
  for (int trial = 0; trial < 500; ++trial) {
    const size_t num_blocks = rng.NextBelow(40);
    // One spare byte so the blocks can start at a misaligned address.
    const Bytes data = RandomBytes(&rng, num_blocks * 64 + 1);
    const uint8_t* blocks = data.data() + rng.NextBelow(2);
    uint32_t portable[8];
    for (auto& word : portable) {
      word = static_cast<uint32_t>(rng.NextU64());
    }
    uint32_t sha_ni[8];
    std::copy(portable, portable + 8, sha_ni);
    sha256_internal::BlocksPortable(portable, blocks, num_blocks);
    sha256_internal::BlocksShaNi(sha_ni, blocks, num_blocks);
    ASSERT_TRUE(std::equal(portable, portable + 8, sha_ni))
        << "trial " << trial << ", " << num_blocks << " blocks";
  }
#else
  GTEST_SKIP() << "no SHA-NI path on this architecture";
#endif
}

TEST(Sha256Test, HashPairDependsOnOrder) {
  const Digest a = Sha256::Hash("a");
  const Digest b = Sha256::Hash("b");
  EXPECT_NE(Sha256::HashPair(a, b), Sha256::HashPair(b, a));
}

TEST(DigestTest, HexRoundtrip) {
  const Digest d = Sha256::Hash("roundtrip");
  auto restored = Digest::FromHex(d.ToHex());
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored.value(), d);
}

TEST(DigestTest, FromHexRejectsBadInput) {
  EXPECT_FALSE(Digest::FromHex("abcd").ok());
  EXPECT_FALSE(Digest::FromHex(std::string(63, 'a')).ok());
  EXPECT_FALSE(Digest::FromHex(std::string(64, 'g')).ok());
}

// --- CRC-32 ---

TEST(Crc32Test, KnownVectors) {
  const std::string s = "123456789";
  EXPECT_EQ(Crc32(reinterpret_cast<const uint8_t*>(s.data()), s.size()),
            0xcbf43926u);
  EXPECT_EQ(Crc32(nullptr, 0), 0u);
}

TEST(Crc32Test, DetectsSingleBitFlip) {
  Bytes data(100, 0x55);
  const uint32_t original = Crc32(data);
  data[50] ^= 0x01;
  EXPECT_NE(Crc32(data), original);
}

// Bit-at-a-time CRC-32 with the same seed convention as Crc32.
uint32_t Crc32Reference(const uint8_t* data, size_t size, uint32_t seed) {
  uint32_t c = seed ^ 0xffffffffu;
  for (size_t i = 0; i < size; ++i) {
    c ^= data[i];
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xedb88320u ^ (c >> 1) : (c >> 1);
    }
  }
  return c ^ 0xffffffffu;
}

TEST(Crc32Test, SelectedCrcPathIsClmulExactlyWhenCpuHasIt) {
#if defined(__x86_64__)
  EXPECT_EQ(crc32_internal::SelectedCrc32() == crc32_internal::Crc32Clmul,
            crc32_internal::CpuHasClmul());
#else
  EXPECT_FALSE(crc32_internal::CpuHasClmul());
  EXPECT_EQ(crc32_internal::SelectedCrc32(), crc32_internal::Crc32Slicing8);
#endif
}

// Runs Crc32 and every CRC path this CPU has on data[0, length) from
// `seed` and checks each against `expected`, whole and chained at `split`
// (the CRC of the prefix seeds the CRC of the rest).
void ExpectAllPathsGive(const uint8_t* data, size_t length, uint32_t seed,
                        size_t split, uint32_t expected) {
  std::vector<std::pair<const char*, crc32_internal::Crc32Fn>> paths = {
      {"Crc32", [](const uint8_t* d, size_t n, uint32_t s) {
         return Crc32(d, n, s);
       }},
      {"slicing-by-8", crc32_internal::Crc32Slicing8}};
#if defined(__x86_64__)
  if (crc32_internal::CpuHasClmul()) {
    paths.push_back({"clmul", crc32_internal::Crc32Clmul});
  }
#endif
  for (const auto& [name, crc] : paths) {
    ASSERT_EQ(crc(data, length, seed), expected)
        << name << ", length " << length << ", seed " << seed;
    ASSERT_EQ(crc(data + split, length - split, crc(data, split, seed)),
              expected)
        << name << ", length " << length << ", split " << split;
  }
}

TEST(Crc32Test, PathsMatchBytewiseReferenceAtEveryLengthAndAlignment) {
  Rng rng(31);
  const Bytes buffer = RandomBytes(&rng, 4096 + 16);
  for (size_t align = 0; align < 16; ++align) {
    const uint8_t* data = buffer.data() + align;
    for (const uint32_t seed : {0u, static_cast<uint32_t>(rng.NextU64())}) {
      // The reference CRC of each prefix, extended one byte at a time.
      uint32_t expected = seed;
      for (size_t length = 0; length <= 4096; ++length) {
        if (length > 0) {
          expected = Crc32Reference(data + length - 1, 1, expected);
        }
        ASSERT_NO_FATAL_FAILURE(ExpectAllPathsGive(
            data, length, seed, rng.NextBelow(length + 1), expected));
      }
    }
  }
}

TEST(Crc32Test, PathsMatchBytewiseReferenceOnLargeInputs) {
  Rng rng(37);
  for (const size_t length : {size_t{64} << 10, size_t{1} << 20,
                              (size_t{1} << 20) + 15}) {
    const Bytes data = RandomBytes(&rng, length);
    for (const uint32_t seed : {0u, static_cast<uint32_t>(rng.NextU64())}) {
      ASSERT_NO_FATAL_FAILURE(ExpectAllPathsGive(
          data.data(), length, seed, rng.NextBelow(length + 1),
          Crc32Reference(data.data(), length, seed)));
    }
  }
}

// --- Merkle tree ---

std::vector<Digest> MakeLeaves(size_t count, uint64_t salt = 0) {
  std::vector<Digest> leaves;
  for (size_t i = 0; i < count; ++i) {
    leaves.push_back(
        Sha256::Hash("leaf-" + std::to_string(i) + "-" + std::to_string(salt)));
  }
  return leaves;
}

TEST(MerkleTreeTest, RequiresLeaves) {
  EXPECT_FALSE(MerkleTree::Build({}).ok());
}

TEST(MerkleTreeTest, EqualLeavesGiveEqualRoot) {
  auto a = MerkleTree::Build(MakeLeaves(13)).value();
  auto b = MerkleTree::Build(MakeLeaves(13)).value();
  EXPECT_EQ(a.root(), b.root());
  EXPECT_EQ(a.leaf_count(), 13u);
}

TEST(MerkleTreeTest, AnyLeafChangeChangesRoot) {
  auto base = MerkleTree::Build(MakeLeaves(8)).value();
  for (size_t i = 0; i < 8; ++i) {
    auto leaves = MakeLeaves(8);
    leaves[i] = Sha256::Hash("changed");
    auto changed = MerkleTree::Build(std::move(leaves)).value();
    EXPECT_NE(changed.root(), base.root()) << "leaf " << i;
  }
}

TEST(MerkleTreeTest, DiffFindsChangedLeaves) {
  auto leaves = MakeLeaves(10);
  auto before = MerkleTree::Build(leaves).value();
  leaves[3] = Sha256::Hash("x");
  leaves[7] = Sha256::Hash("y");
  auto after = MerkleTree::Build(leaves).value();
  auto diff = MerkleTree::Diff(before, after).value();
  EXPECT_EQ(diff.changed_leaves, (std::vector<size_t>{3, 7}));
}

TEST(MerkleTreeTest, DiffOfEqualTreesIsOneComparison) {
  auto a = MerkleTree::Build(MakeLeaves(64)).value();
  auto b = MerkleTree::Build(MakeLeaves(64)).value();
  auto diff = MerkleTree::Diff(a, b).value();
  EXPECT_TRUE(diff.changed_leaves.empty());
  EXPECT_EQ(diff.comparisons, 1u);
}

TEST(MerkleTreeTest, DiffRejectsMismatchedLeafCounts) {
  auto a = MerkleTree::Build(MakeLeaves(8)).value();
  auto b = MerkleTree::Build(MakeLeaves(9)).value();
  EXPECT_FALSE(MerkleTree::Diff(a, b).ok());
}

/// Paper Figure 4: with the last two layers changed, locating them costs 7
/// comparisons for 8 layers, 13 for 64 layers, and 15 for 128 layers.
struct Fig4Case {
  size_t layers;
  size_t expected_comparisons;
};

class MerkleFig4Property : public ::testing::TestWithParam<Fig4Case> {};

TEST_P(MerkleFig4Property, ComparisonCountMatchesPaper) {
  const Fig4Case test_case = GetParam();
  auto leaves = MakeLeaves(test_case.layers);
  auto before = MerkleTree::Build(leaves).value();
  leaves[test_case.layers - 2] = Sha256::Hash("changed-a");
  leaves[test_case.layers - 1] = Sha256::Hash("changed-b");
  auto after = MerkleTree::Build(leaves).value();
  auto diff = MerkleTree::Diff(before, after).value();
  EXPECT_EQ(diff.comparisons, test_case.expected_comparisons);
  EXPECT_EQ(diff.changed_leaves,
            (std::vector<size_t>{test_case.layers - 2, test_case.layers - 1}));
  EXPECT_EQ(before.NaiveComparisonCount(), test_case.layers);
}

INSTANTIATE_TEST_SUITE_P(PaperFigure4, MerkleFig4Property,
                         ::testing::Values(Fig4Case{8, 7}, Fig4Case{64, 13},
                                           Fig4Case{128, 15}));

TEST(MerkleTreeTest, SerializeRoundtrip) {
  auto tree = MerkleTree::Build(MakeLeaves(11)).value();
  auto restored = MerkleTree::Deserialize(tree.Serialize());
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored->root(), tree.root());
  EXPECT_EQ(restored->leaf_count(), tree.leaf_count());
  for (size_t i = 0; i < tree.leaf_count(); ++i) {
    EXPECT_EQ(restored->leaf(i), tree.leaf(i));
  }
}

TEST(MerkleTreeTest, DeserializeRejectsCorruptHeader) {
  auto tree = MerkleTree::Build(MakeLeaves(4)).value();
  Bytes data = tree.Serialize();
  data[0] = 0xff;  // leaf_count corrupted beyond padded size
  EXPECT_FALSE(MerkleTree::Deserialize(data).ok());
}

TEST(MerkleTreeTest, DeserializeRejectsTruncation) {
  auto tree = MerkleTree::Build(MakeLeaves(4)).value();
  Bytes data = tree.Serialize();
  data.resize(data.size() - 5);
  EXPECT_FALSE(MerkleTree::Deserialize(data).ok());
}

TEST(MerkleTreeTest, DeserializeRejectsFlippedDigestByte) {
  // Digest bytes are opaque to the parser; only the CRC trailer can catch
  // damage inside them.
  auto tree = MerkleTree::Build(MakeLeaves(4)).value();
  Bytes data = tree.Serialize();
  data[data.size() / 2] ^= 0x01;
  EXPECT_EQ(MerkleTree::Deserialize(data).status().code(),
            StatusCode::kCorruption);
}

/// Property: for any leaf count and changed subset, the diff finds exactly
/// the changed leaves and never needs more comparisons than a naive scan of
/// all padded nodes.
class MerkleDiffProperty : public ::testing::TestWithParam<size_t> {};

TEST_P(MerkleDiffProperty, DiffIsExact) {
  const size_t leaf_count = GetParam();
  Rng rng(leaf_count * 7 + 1);
  for (int round = 0; round < 10; ++round) {
    auto leaves = MakeLeaves(leaf_count);
    std::vector<size_t> changed;
    for (size_t i = 0; i < leaf_count; ++i) {
      if (rng.NextBelow(4) == 0) {
        leaves[i] = Sha256::Hash("r" + std::to_string(round) + "-" +
                                 std::to_string(i));
        changed.push_back(i);
      }
    }
    auto before = MerkleTree::Build(MakeLeaves(leaf_count)).value();
    auto after = MerkleTree::Build(leaves).value();
    auto diff = MerkleTree::Diff(before, after).value();
    EXPECT_EQ(diff.changed_leaves, changed);
  }
}

INSTANTIATE_TEST_SUITE_P(LeafCounts, MerkleDiffProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 17, 33, 100, 129));

}  // namespace
}  // namespace mmlib
