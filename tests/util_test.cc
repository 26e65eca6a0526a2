#include <gtest/gtest.h>

#include <set>

#include "util/bytes.h"
#include "util/clock.h"
#include "util/id_generator.h"
#include "util/random.h"
#include "util/result.h"
#include "util/status.h"
#include "util/strings.h"
#include "util/table_printer.h"

namespace mmlib {
namespace {

// --- Status ---

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::NotFound("missing thing");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.message(), "missing thing");
  EXPECT_EQ(s.ToString(), "NotFound: missing thing");
}

TEST(StatusTest, WithContextPrefixesMessage) {
  Status s = Status::IoError("disk full").WithContext("saving model");
  EXPECT_EQ(s.ToString(), "IoError: saving model: disk full");
  EXPECT_TRUE(Status::OK().WithContext("anything").ok());
}

TEST(StatusTest, AllCodesHaveNames) {
  for (StatusCode code :
       {StatusCode::kOk, StatusCode::kInvalidArgument, StatusCode::kNotFound,
        StatusCode::kCorruption, StatusCode::kIoError,
        StatusCode::kFailedPrecondition, StatusCode::kUnimplemented,
        StatusCode::kInternal, StatusCode::kOutOfRange,
        StatusCode::kUnavailable, StatusCode::kDeadlineExceeded}) {
    EXPECT_FALSE(StatusCodeName(code).empty());
    EXPECT_NE(StatusCodeName(code), "Unknown");
  }
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::NotFound("x"), Status::NotFound("x"));
  EXPECT_FALSE(Status::NotFound("x") == Status::NotFound("y"));
  EXPECT_FALSE(Status::NotFound("x") == Status::Corruption("x"));
}

// --- Result ---

Result<int> ParsePositive(int v) {
  if (v <= 0) {
    return Status::InvalidArgument("not positive");
  }
  return v;
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = ParsePositive(7);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 7);
  EXPECT_EQ(*r, 7);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r = ParsePositive(-1);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(ResultTest, AssignOrReturnMacroPropagates) {
  auto chained = [](int v) -> Result<int> {
    MMLIB_ASSIGN_OR_RETURN(int parsed, ParsePositive(v));
    return parsed * 2;
  };
  EXPECT_EQ(chained(5).value(), 10);
  EXPECT_FALSE(chained(-5).ok());
}

TEST(ResultTest, MoveOnlyValue) {
  Result<std::unique_ptr<int>> r(std::make_unique<int>(3));
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> v = std::move(r).value();
  EXPECT_EQ(*v, 3);
}

// --- Bytes ---

TEST(BytesTest, PrimitiveRoundtrip) {
  BytesWriter writer;
  writer.WriteU8(0xab);
  writer.WriteU32(0xdeadbeef);
  writer.WriteU64(0x0123456789abcdefULL);
  writer.WriteI64(-42);
  writer.WriteF32(3.5f);
  writer.WriteString("hello");
  writer.WriteBlob(Bytes{1, 2, 3});

  BytesReader reader(writer.bytes());
  EXPECT_EQ(reader.ReadU8().value(), 0xab);
  EXPECT_EQ(reader.ReadU32().value(), 0xdeadbeefu);
  EXPECT_EQ(reader.ReadU64().value(), 0x0123456789abcdefULL);
  EXPECT_EQ(reader.ReadI64().value(), -42);
  EXPECT_EQ(reader.ReadF32().value(), 3.5f);
  EXPECT_EQ(reader.ReadString().value(), "hello");
  EXPECT_EQ(reader.ReadBlob().value(), (Bytes{1, 2, 3}));
  EXPECT_TRUE(reader.AtEnd());
}

TEST(BytesTest, TruncatedReadsFail) {
  BytesWriter writer;
  writer.WriteU32(7);
  BytesReader reader(writer.bytes());
  EXPECT_TRUE(reader.ReadU32().ok());
  EXPECT_EQ(reader.ReadU8().status().code(), StatusCode::kCorruption);
}

TEST(BytesTest, TruncatedStringFails) {
  BytesWriter writer;
  writer.WriteU64(100);  // length prefix larger than available bytes
  BytesReader reader(writer.bytes());
  EXPECT_EQ(reader.ReadString().status().code(), StatusCode::kCorruption);
}

TEST(BytesTest, HexRoundtrip) {
  const Bytes data{0x00, 0x0f, 0xf0, 0xff, 0x5a};
  const std::string hex = ToHex(data);
  EXPECT_EQ(hex, "000ff0ff5a");
  EXPECT_EQ(FromHex(hex).value(), data);
}

TEST(BytesTest, HexRejectsBadInput) {
  EXPECT_EQ(FromHex("abc").status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(FromHex("zz").status().code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(FromHex("ABCDEF").ok());  // uppercase accepted
}

// --- Strings ---

TEST(StringsTest, Split) {
  EXPECT_EQ(SplitString("a,b,c", ','),
            (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(SplitString("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(SplitString("a,,b", ','),
            (std::vector<std::string>{"a", "", "b"}));
}

TEST(StringsTest, Join) {
  EXPECT_EQ(JoinStrings({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(JoinStrings({}, ","), "");
}

TEST(StringsTest, StartsEndsWith) {
  EXPECT_TRUE(StartsWith("classifier.fc", "classifier."));
  EXPECT_FALSE(StartsWith("fc", "classifier."));
  EXPECT_TRUE(EndsWith("model.json", ".json"));
  EXPECT_FALSE(EndsWith("model.bin", ".json"));
}

TEST(StringsTest, Strip) {
  EXPECT_EQ(StripWhitespace("  hi \n"), "hi");
  EXPECT_EQ(StripWhitespace(""), "");
  EXPECT_EQ(StripWhitespace(" \t "), "");
}

TEST(StringsTest, FormatBytes) {
  EXPECT_EQ(FormatBytes(512), "512 B");
  EXPECT_EQ(FormatBytes(14 * 1024 * 1024), "14.0 MB");
}

TEST(StringsTest, Padding) {
  EXPECT_EQ(PadLeft("7", 3), "  7");
  EXPECT_EQ(PadRight("ab", 4), "ab  ");
  EXPECT_EQ(PadLeft("long", 2), "long");
}

// --- Rng ---

TEST(RngTest, DeterministicForSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int differing = 0;
  for (int i = 0; i < 16; ++i) {
    if (a.NextU64() != b.NextU64()) {
      ++differing;
    }
  }
  EXPECT_GT(differing, 0);
}

TEST(RngTest, FloatInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const float f = rng.NextFloat();
    EXPECT_GE(f, 0.0f);
    EXPECT_LT(f, 1.0f);
  }
}

TEST(RngTest, NextBelowIsBounded) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBelow(17), 17u);
  }
  // Bound 1 always yields 0.
  EXPECT_EQ(rng.NextBelow(1), 0u);
}

TEST(RngTest, GaussianHasReasonableMoments) {
  Rng rng(11);
  double sum = 0;
  double sum_sq = 0;
  constexpr int kSamples = 20000;
  for (int i = 0; i < kSamples; ++i) {
    const double g = rng.NextGaussian();
    sum += g;
    sum_sq += g * g;
  }
  const double mean = sum / kSamples;
  const double variance = sum_sq / kSamples - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.05);
  EXPECT_NEAR(variance, 1.0, 0.1);
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng rng(13);
  std::vector<size_t> indices(100);
  for (size_t i = 0; i < indices.size(); ++i) {
    indices[i] = i;
  }
  rng.Shuffle(&indices);
  std::set<size_t> seen(indices.begin(), indices.end());
  EXPECT_EQ(seen.size(), 100u);
  EXPECT_EQ(*seen.begin(), 0u);
  EXPECT_EQ(*seen.rbegin(), 99u);
}

TEST(RngTest, ShuffleEmptyIsNoOp) {
  Rng rng(1);
  std::vector<size_t> empty;
  rng.Shuffle(&empty);
  EXPECT_TRUE(empty.empty());
}

// --- Clocks ---

TEST(ClockTest, WallClockAdvances) {
  WallClock* clock = WallClock::Get();
  const uint64_t a = clock->NowNanos();
  const uint64_t b = clock->NowNanos();
  EXPECT_GE(b, a);
}

TEST(ClockTest, VirtualClockOnlyAdvancesExplicitly) {
  VirtualClock clock;
  EXPECT_EQ(clock.NowNanos(), 0u);
  clock.AdvanceNanos(500);
  EXPECT_EQ(clock.NowNanos(), 500u);
  clock.AdvanceSeconds(1.5);
  EXPECT_EQ(clock.NowNanos(), 500u + 1'500'000'000u);
}

TEST(ClockTest, StopwatchOnVirtualClock) {
  VirtualClock clock;
  Stopwatch watch(&clock);
  clock.AdvanceSeconds(2.0);
  EXPECT_DOUBLE_EQ(watch.ElapsedSeconds(), 2.0);
  watch.Reset();
  EXPECT_DOUBLE_EQ(watch.ElapsedSeconds(), 0.0);
}

// --- IdGenerator ---

TEST(IdGeneratorTest, IdsAreUnique) {
  IdGenerator gen(42);
  std::set<std::string> ids;
  for (int i = 0; i < 1000; ++i) {
    ids.insert(gen.Next("model"));
  }
  EXPECT_EQ(ids.size(), 1000u);
}

TEST(IdGeneratorTest, DeterministicForSeed) {
  IdGenerator a(7);
  IdGenerator b(7);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(a.Next("x"), b.Next("x"));
  }
}

TEST(IdGeneratorTest, PrefixAppears) {
  IdGenerator gen(1);
  EXPECT_TRUE(StartsWith(gen.Next("prefix"), "prefix-"));
}

// --- TablePrinter ---

TEST(TablePrinterTest, AlignsColumns) {
  TablePrinter table({"name", "value"});
  table.AddRow({"a", "1"});
  table.AddRow({"long-name", "22"});
  std::ostringstream os;
  table.Print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("| name      | value |"), std::string::npos);
  EXPECT_NE(out.find("| long-name | 22    |"), std::string::npos);
}

TEST(TablePrinterTest, ShortRowsArePadded) {
  TablePrinter table({"a", "b", "c"});
  table.AddRow({"only"});
  std::ostringstream os;
  table.Print(os);
  EXPECT_NE(os.str().find("only"), std::string::npos);
}

}  // namespace
}  // namespace mmlib
