#include <gtest/gtest.h>

#include <set>
#include <utility>

#include "compress/codec.h"
#include "data/archive.h"
#include "data/dataloader.h"
#include "data/dataset.h"
#include "data/prefetcher.h"

namespace mmlib::data {
namespace {

constexpr uint64_t kTestDivisor = 1024;  // tiny datasets for fast tests

TEST(DatasetTest, Table1HasAllFourDatasets) {
  const auto& rows = Table1Reference();
  ASSERT_EQ(rows.size(), 4u);
  EXPECT_EQ(rows[0].short_name, "INet-val");
  EXPECT_EQ(rows[2].short_name, "CF-512");
  EXPECT_EQ(rows[2].images, 512u);
  EXPECT_EQ(rows[3].short_name, "CO-512");
}

TEST(DatasetTest, ImageCountsMatchTable1) {
  for (const Table1Row& row : Table1Reference()) {
    SyntheticImageDataset dataset(row.id, kTestDivisor);
    EXPECT_EQ(dataset.size(), row.images) << row.short_name;
    EXPECT_EQ(dataset.name(), row.full_name);
  }
}

TEST(DatasetTest, RelativeSizesFollowTable1) {
  // CF-512 is larger than CO-512 at any divisor (the property the MPA
  // storage comparison in paper Figure 9 relies on).
  SyntheticImageDataset cf(PaperDatasetId::kCocoFood512, kTestDivisor);
  SyntheticImageDataset co(PaperDatasetId::kCocoOutdoor512, kTestDivisor);
  EXPECT_GT(cf.TotalByteSize(), co.TotalByteSize());

  SyntheticImageDataset mini(PaperDatasetId::kMiniImageNetVal, kTestDivisor);
  EXPECT_GT(mini.TotalByteSize(), cf.TotalByteSize());
}

TEST(DatasetTest, ImagesAreDeterministic) {
  SyntheticImageDataset a(PaperDatasetId::kCocoFood512, kTestDivisor);
  SyntheticImageDataset b(PaperDatasetId::kCocoFood512, kTestDivisor);
  const Image x = a.GetImage(17);
  const Image y = b.GetImage(17);
  EXPECT_EQ(x.pixels, y.pixels);
  EXPECT_EQ(x.label, y.label);
  EXPECT_EQ(a.ContentHash(), b.ContentHash());
}

TEST(DatasetTest, DistinctDatasetsDiffer) {
  SyntheticImageDataset cf(PaperDatasetId::kCocoFood512, kTestDivisor);
  SyntheticImageDataset co(PaperDatasetId::kCocoOutdoor512, kTestDivisor);
  EXPECT_NE(cf.ContentHash(), co.ContentHash());
}

TEST(DatasetTest, LabelsInImageNetRange) {
  SyntheticImageDataset dataset(PaperDatasetId::kCocoOutdoor512,
                                kTestDivisor);
  for (size_t i = 0; i < dataset.size(); i += 37) {
    const Image image = dataset.GetImage(i);
    EXPECT_GE(image.label, 0);
    EXPECT_LT(image.label, 1000);
    EXPECT_EQ(static_cast<int64_t>(image.pixels.size()),
              image.height * image.width * 3);
  }
}

TEST(DatasetTest, ImagesArePartiallyCompressible) {
  // The synthetic images have smooth structure plus noise, like photos:
  // LZ77 should compress them somewhat but nowhere near 10:1.
  SyntheticImageDataset dataset(PaperDatasetId::kCocoFood512, kTestDivisor);
  Bytes pixels;
  for (size_t i = 0; i < 16; ++i) {
    const Image image = dataset.GetImage(i);
    pixels.insert(pixels.end(), image.pixels.begin(), image.pixels.end());
  }
  const Bytes compressed =
      Codec::ForKind(CodecKind::kLz77)->Compress(pixels).value();
  EXPECT_LT(compressed.size(), pixels.size());
  EXPECT_GT(compressed.size(), pixels.size() / 10);
}

TEST(DatasetTest, MaterializePreservesContent) {
  SyntheticImageDataset source(PaperDatasetId::kCocoFood512, kTestDivisor);
  auto materialized = Materialize(source);
  EXPECT_EQ(materialized->name(), source.name());
  EXPECT_EQ(materialized->size(), source.size());
  EXPECT_EQ(materialized->ContentHash(), source.ContentHash());
  EXPECT_EQ(materialized->TotalByteSize(), source.TotalByteSize());
}

TEST(InMemoryDatasetTest, ServesStoredImages) {
  Image image;
  image.height = 2;
  image.width = 2;
  image.label = 5;
  image.pixels.assign(12, 128);
  InMemoryDataset dataset("mini", {image, image});
  EXPECT_EQ(dataset.size(), 2u);
  EXPECT_EQ(dataset.GetImage(1).label, 5);
  EXPECT_EQ(dataset.TotalByteSize(), 2 * (12 + sizeof(int64_t)));
}

// --- DataLoader ---

DataLoaderOptions SmallLoaderOptions() {
  DataLoaderOptions options;
  options.batch_size = 8;
  options.image_size = 16;
  options.num_classes = 10;
  options.seed = 7;
  return options;
}

TEST(DataLoaderTest, BatchShapesAndLabelRange) {
  SyntheticImageDataset dataset(PaperDatasetId::kCocoOutdoor512,
                                kTestDivisor);
  DataLoader loader(&dataset, SmallLoaderOptions());
  EXPECT_EQ(loader.BatchesPerEpoch(), 64u);
  Batch batch = loader.GetBatch(0).value();
  EXPECT_EQ(batch.images.shape(), (Shape{8, 3, 16, 16}));
  ASSERT_EQ(batch.labels.size(), 8u);
  for (int64_t label : batch.labels) {
    EXPECT_GE(label, 0);
    EXPECT_LT(label, 10);
  }
  // Pixels normalized into [-0.5, 0.5].
  for (int64_t i = 0; i < batch.images.numel(); ++i) {
    EXPECT_GE(batch.images.at(i), -0.5f);
    EXPECT_LE(batch.images.at(i), 0.5f);
  }
}

TEST(DataLoaderTest, LastBatchMayBePartial) {
  SyntheticImageDataset dataset(PaperDatasetId::kCocoOutdoor512,
                                kTestDivisor);
  DataLoaderOptions options = SmallLoaderOptions();
  options.batch_size = 100;
  DataLoader loader(&dataset, options);
  EXPECT_EQ(loader.BatchesPerEpoch(), 6u);  // 512 = 5*100 + 12
  Batch last = loader.GetBatch(5).value();
  EXPECT_EQ(last.images.shape().dim(0), 12);
  EXPECT_FALSE(loader.GetBatch(6).ok());
}

TEST(DataLoaderTest, IdenticallyConfiguredLoadersAgree) {
  // The loader is a stateless parametrized object (paper Section 3.3):
  // equal configuration over an equal dataset reproduces identical batches.
  SyntheticImageDataset dataset(PaperDatasetId::kCocoFood512, kTestDivisor);
  DataLoader a(&dataset, SmallLoaderOptions());
  DataLoader b(&dataset, SmallLoaderOptions());
  a.StartEpoch(3);
  b.StartEpoch(3);
  Batch ba = a.GetBatch(2).value();
  Batch bb = b.GetBatch(2).value();
  EXPECT_TRUE(ba.images.Equals(bb.images));
  EXPECT_EQ(ba.labels, bb.labels);
}

TEST(DataLoaderTest, ShuffleChangesAcrossEpochs) {
  SyntheticImageDataset dataset(PaperDatasetId::kCocoFood512, kTestDivisor);
  DataLoader loader(&dataset, SmallLoaderOptions());
  loader.StartEpoch(0);
  Batch epoch0 = loader.GetBatch(0).value();
  loader.StartEpoch(1);
  Batch epoch1 = loader.GetBatch(0).value();
  EXPECT_FALSE(epoch0.images.Equals(epoch1.images));
}

TEST(DataLoaderTest, NoShuffleKeepsDatasetOrder) {
  SyntheticImageDataset dataset(PaperDatasetId::kCocoFood512, kTestDivisor);
  DataLoaderOptions options = SmallLoaderOptions();
  options.shuffle = false;
  DataLoader loader(&dataset, options);
  Batch batch = loader.GetBatch(0).value();
  for (int64_t k = 0; k < 8; ++k) {
    EXPECT_EQ(batch.labels[k],
              dataset.GetImage(k).label % options.num_classes);
  }
}

TEST(DataLoaderTest, AugmentationIsSeedDeterministic) {
  SyntheticImageDataset dataset(PaperDatasetId::kCocoFood512, kTestDivisor);
  DataLoaderOptions options = SmallLoaderOptions();
  options.augment = true;
  DataLoader a(&dataset, options);
  DataLoader b(&dataset, options);
  EXPECT_TRUE(
      a.GetBatch(1).value().images.Equals(b.GetBatch(1).value().images));

  options.seed = 8;
  DataLoader c(&dataset, options);
  EXPECT_FALSE(
      a.GetBatch(1).value().images.Equals(c.GetBatch(1).value().images));
}

// --- BatchPrefetcher ---

TEST(BatchPrefetcherTest, MatchesDirectLoaderBitExactly) {
  SyntheticImageDataset dataset(PaperDatasetId::kCocoFood512, kTestDivisor);
  DataLoaderOptions options = SmallLoaderOptions();
  options.augment = true;  // prefetch must preserve the augmentation draws
  DataLoader direct(&dataset, options);
  DataLoader prefetched(&dataset, options);
  BatchPrefetcher prefetcher(&prefetched);

  for (uint64_t epoch = 0; epoch < 2; ++epoch) {
    direct.StartEpoch(epoch);
    prefetcher.StartEpoch(epoch, 0, 5);
    for (size_t index = 0; index < 5; ++index) {
      Batch want = direct.GetBatch(index).value();
      auto got = prefetcher.Next();
      ASSERT_TRUE(got.ok()) << got.status();
      EXPECT_TRUE(got->images.Equals(want.images))
          << "epoch " << epoch << " batch " << index;
      EXPECT_EQ(got->labels, want.labels);
      prefetcher.Recycle(std::move(got).value());
    }
    // The epoch is exhausted; the consumer must be told, not fed garbage.
    EXPECT_EQ(prefetcher.Next().status().code(), StatusCode::kOutOfRange);
  }
  EXPECT_EQ(prefetcher.background_fills(), 10u);
}

TEST(BatchPrefetcherTest, RecycledStorageIsReusedInPlace) {
  SyntheticImageDataset dataset(PaperDatasetId::kCocoFood512, kTestDivisor);
  DataLoader loader(&dataset, SmallLoaderOptions());
  BatchPrefetcher prefetcher(&loader);
  prefetcher.StartEpoch(0, 0, 8);

  // Consume two batches to learn the slots' storage, recycling each; from
  // then on every fill reuses one of the circulating buffers.
  std::set<const float*> storage;
  for (size_t index = 0; index < 8; ++index) {
    auto batch = prefetcher.Next();
    ASSERT_TRUE(batch.ok()) << batch.status();
    storage.insert(batch->images.data());
    prefetcher.Recycle(std::move(batch).value());
  }
  // Double buffering plus recycling needs at most 3 distinct image tensors
  // (two slots + one batch transiently held by the consumer).
  EXPECT_LE(storage.size(), 3u);
}

TEST(BatchPrefetcherTest, MidEpochStartPrefetchesFromFirstBatch) {
  // Resume support: a run restarting from a checkpoint enters the epoch at
  // a nonzero batch index.
  SyntheticImageDataset dataset(PaperDatasetId::kCocoFood512, kTestDivisor);
  DataLoaderOptions options = SmallLoaderOptions();
  DataLoader direct(&dataset, options);
  DataLoader prefetched(&dataset, options);
  BatchPrefetcher prefetcher(&prefetched);

  direct.StartEpoch(4);
  prefetcher.StartEpoch(4, 3, 6);
  for (size_t index = 3; index < 6; ++index) {
    Batch want = direct.GetBatch(index).value();
    auto got = prefetcher.Next();
    ASSERT_TRUE(got.ok()) << got.status();
    EXPECT_TRUE(got->images.Equals(want.images)) << "batch " << index;
    EXPECT_EQ(got->labels, want.labels);
  }
  EXPECT_EQ(prefetcher.Next().status().code(), StatusCode::kOutOfRange);
}

// --- Archiver ---

class ArchiverRoundtrip : public ::testing::TestWithParam<CodecKind> {};

TEST_P(ArchiverRoundtrip, ExtractReproducesDataset) {
  SyntheticImageDataset dataset(PaperDatasetId::kCocoOutdoor512,
                                kTestDivisor);
  DatasetArchiver archiver(Codec::ForKind(GetParam()));
  const Bytes archive =
      archiver.Archive(dataset, dataset.ContentHash()).value();
  auto restored = DatasetArchiver::Extract(archive);
  ASSERT_TRUE(restored.ok()) << restored.status();
  EXPECT_EQ((*restored)->name(), dataset.name());
  EXPECT_EQ((*restored)->size(), dataset.size());
  EXPECT_EQ((*restored)->ContentHash(), dataset.ContentHash());
}

INSTANTIATE_TEST_SUITE_P(AllCodecs, ArchiverRoundtrip,
                         ::testing::Values(CodecKind::kIdentity,
                                           CodecKind::kLz77,
                                           CodecKind::kLz77Huffman));

TEST(ArchiverTest, ArchiveSizeTracksDatasetSize) {
  SyntheticImageDataset cf(PaperDatasetId::kCocoFood512, kTestDivisor);
  SyntheticImageDataset co(PaperDatasetId::kCocoOutdoor512, kTestDivisor);
  DatasetArchiver archiver(Codec::ForKind(CodecKind::kIdentity));
  EXPECT_GT(archiver.Archive(cf, cf.ContentHash()).value().size(),
            archiver.Archive(co, co.ContentHash()).value().size());
}

TEST(ArchiverTest, ExtractDetectsCorruption) {
  SyntheticImageDataset dataset(PaperDatasetId::kCocoOutdoor512,
                                kTestDivisor);
  DatasetArchiver archiver(Codec::ForKind(CodecKind::kIdentity));
  Bytes archive = archiver.Archive(dataset, dataset.ContentHash()).value();
  archive[archive.size() / 2] ^= 0x01;
  EXPECT_FALSE(DatasetArchiver::Extract(archive).ok());
}

TEST(ArchiverTest, ExtractDetectsTruncation) {
  SyntheticImageDataset dataset(PaperDatasetId::kCocoOutdoor512,
                                kTestDivisor);
  DatasetArchiver archiver(Codec::ForKind(CodecKind::kLz77));
  Bytes archive = archiver.Archive(dataset, dataset.ContentHash()).value();
  archive.resize(archive.size() - 20);
  EXPECT_FALSE(DatasetArchiver::Extract(archive).ok());
}

}  // namespace
}  // namespace mmlib::data
