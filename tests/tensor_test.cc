#include <gtest/gtest.h>

#include <cmath>

#include "tensor/tensor.h"

namespace mmlib {
namespace {

TEST(ShapeTest, Basics) {
  Shape s{2, 3, 4};
  EXPECT_EQ(s.rank(), 3u);
  EXPECT_EQ(s.numel(), 24);
  EXPECT_EQ(s.dim(1), 3);
  EXPECT_EQ(s.ToString(), "[2, 3, 4]");
  EXPECT_EQ(Shape{}.numel(), 1);  // scalar
  EXPECT_TRUE(s == (Shape{2, 3, 4}));
  EXPECT_TRUE(s != (Shape{2, 3, 5}));
}

TEST(TensorTest, ZeroInitialized) {
  Tensor t(Shape{3, 3});
  EXPECT_EQ(t.numel(), 9);
  for (int64_t i = 0; i < t.numel(); ++i) {
    EXPECT_EQ(t.at(i), 0.0f);
  }
  EXPECT_EQ(t.byte_size(), 36u);
}

TEST(TensorTest, FullAndFill) {
  Tensor t = Tensor::Full(Shape{4}, 2.5f);
  EXPECT_EQ(t.at(3), 2.5f);
  t.Fill(-1.0f);
  EXPECT_EQ(t.at(0), -1.0f);
}

TEST(TensorTest, UniformRespectsRangeAndSeed) {
  Rng rng1(5);
  Rng rng2(5);
  Tensor a = Tensor::Uniform(Shape{1000}, -2.0f, 3.0f, &rng1);
  Tensor b = Tensor::Uniform(Shape{1000}, -2.0f, 3.0f, &rng2);
  EXPECT_TRUE(a.Equals(b));
  for (int64_t i = 0; i < a.numel(); ++i) {
    EXPECT_GE(a.at(i), -2.0f);
    EXPECT_LT(a.at(i), 3.0f);
  }
}

TEST(TensorTest, ElementwiseOps) {
  Tensor a(Shape{3}, {1, 2, 3});
  Tensor b(Shape{3}, {10, 20, 30});
  a.AddInPlace(b);
  EXPECT_EQ(a.at(2), 33.0f);
}

TEST(TensorTest, EqualsIsExact) {
  Tensor a(Shape{2}, {1.0f, 2.0f});
  Tensor b(Shape{2}, {1.0f, 2.0f});
  EXPECT_TRUE(a.Equals(b));
  b.at(1) = std::nextafter(2.0f, 3.0f);
  EXPECT_FALSE(a.Equals(b));
  EXPECT_TRUE(a.AllClose(b, 1e-5f));
  EXPECT_GT(a.MaxAbsDiff(b), 0.0f);
}

TEST(TensorTest, EqualsRequiresSameShape) {
  Tensor a(Shape{4});
  Tensor b(Shape{2, 2});
  EXPECT_FALSE(a.Equals(b));
  EXPECT_FALSE(a.AllClose(b, 1.0f));
}

TEST(TensorTest, ContentHashSensitivity) {
  Tensor a(Shape{2, 2}, {1, 2, 3, 4});
  Tensor b(Shape{2, 2}, {1, 2, 3, 4});
  EXPECT_EQ(a.ContentHash(), b.ContentHash());
  b.at(0) = 1.0001f;
  EXPECT_NE(a.ContentHash(), b.ContentHash());
  // Same data, different shape hashes differently.
  Tensor c(Shape{4}, {1, 2, 3, 4});
  EXPECT_NE(a.ContentHash(), c.ContentHash());
}

TEST(TensorTest, SerializeRoundtrip) {
  Rng rng(9);
  Tensor t = Tensor::Gaussian(Shape{3, 5, 7}, 1.0f, &rng);
  auto restored = Tensor::Deserialize(t.Serialize());
  ASSERT_TRUE(restored.ok());
  EXPECT_TRUE(restored->Equals(t));
}

TEST(TensorTest, DeserializeRejectsCorruption) {
  Tensor t(Shape{4}, {1, 2, 3, 4});
  Bytes data = t.Serialize();
  Bytes truncated(data.begin(), data.end() - 4);
  EXPECT_FALSE(Tensor::Deserialize(truncated).ok());
  Bytes trailing = data;
  trailing.push_back(0);
  EXPECT_FALSE(Tensor::Deserialize(trailing).ok());
}

TEST(TensorTest, DeserializeRejectsShapeMismatch) {
  Tensor t(Shape{4}, {1, 2, 3, 4});
  Bytes data = t.Serialize();
  // Corrupt the element count (after rank u64 + one dim i64).
  data[16] = 0x09;
  EXPECT_FALSE(Tensor::Deserialize(data).ok());
}

TEST(TensorTest, EmptyTensorSerializes) {
  Tensor t;
  auto restored = Tensor::Deserialize(t.Serialize());
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored->numel(), 0);
}

// --- Reductions (paper Figure 2 and Section 4.5) ---

TEST(ReductionTest, SerialAndParallelDotAgreeApproximately) {
  Rng rng(11);
  std::vector<float> a(10000);
  std::vector<float> b(10000);
  for (size_t i = 0; i < a.size(); ++i) {
    a[i] = rng.NextUniform(-1.0f, 1.0f);
    b[i] = rng.NextUniform(-1.0f, 1.0f);
  }
  const float serial = DotSerial(a.data(), b.data(), a.size());
  const float parallel = DotParallel(a.data(), b.data(), a.size(), 8);
  EXPECT_NEAR(serial, parallel, 0.05f);
}

TEST(ReductionTest, AssociationOrderChangesFloatResult) {
  // Paper Figure 2: the serial and parallel methods produce similar but
  // different results. Find at least one input where they differ exactly.
  bool found_difference = false;
  for (uint64_t seed = 0; seed < 20 && !found_difference; ++seed) {
    Rng rng(seed);
    std::vector<float> a(4096);
    std::vector<float> b(4096);
    for (size_t i = 0; i < a.size(); ++i) {
      a[i] = rng.NextUniform(-10.0f, 10.0f);
      b[i] = rng.NextUniform(-10.0f, 10.0f);
    }
    const float serial = DotSerial(a.data(), b.data(), a.size());
    const float parallel = DotParallel(a.data(), b.data(), a.size(), 16);
    if (serial != parallel) {
      found_difference = true;
    }
  }
  EXPECT_TRUE(found_difference);
}

TEST(ReductionTest, ChunkCombineOrderMatters) {
  Rng rng(13);
  std::vector<float> a(1 << 14);
  std::vector<float> b(1 << 14);
  for (size_t i = 0; i < a.size(); ++i) {
    a[i] = rng.NextUniform(-100.0f, 100.0f);
    b[i] = rng.NextUniform(-100.0f, 100.0f);
  }
  std::vector<size_t> forward(16);
  std::vector<size_t> reverse(16);
  for (size_t i = 0; i < 16; ++i) {
    forward[i] = i;
    reverse[i] = 15 - i;
  }
  const float f =
      DotChunkedOrdered(a.data(), b.data(), a.size(), 16, forward);
  const float r =
      DotChunkedOrdered(a.data(), b.data(), a.size(), 16, reverse);
  // Different association order; values are close but typically not equal.
  EXPECT_NEAR(f, r, std::abs(f) * 1e-4f + 1.0f);
}

TEST(ReductionTest, KahanIsMoreAccurateThanSerial) {
  // Sum many small values onto a large one: serial summation loses them.
  std::vector<float> values;
  values.push_back(1e8f);
  for (int i = 0; i < 10000; ++i) {
    values.push_back(0.1f);
  }
  const double exact = 1e8 + 10000 * 0.1;
  const float serial = SumSerial(values.data(), values.size());
  const float kahan = SumKahan(values.data(), values.size());
  EXPECT_LT(std::abs(kahan - exact), std::abs(serial - exact));
  EXPECT_NEAR(kahan, exact, 16.0);
}

TEST(ReductionTest, EdgeCases) {
  EXPECT_EQ(DotSerial(nullptr, nullptr, 0), 0.0f);
  EXPECT_EQ(SumSerial(nullptr, 0), 0.0f);
  EXPECT_EQ(SumKahan(nullptr, 0), 0.0f);
  float one = 2.0f;
  float two = 3.0f;
  EXPECT_EQ(DotParallel(&one, &two, 1, 4), 6.0f);
}

}  // namespace
}  // namespace mmlib
