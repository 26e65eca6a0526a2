#include <gtest/gtest.h>

#include "compress/codec.h"
#include "data/archive.h"
#include "data/dataloader.h"
#include "data/dataset.h"

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

TEST(DataLoaderTest, FillBatchIntoOneBatchMatchesGetBatch) {
  // The training loop fills every batch of a run into one Batch. Each fill
  // must equal a fresh GetBatch, reuse the images' storage while the shape
  // holds, and end the epoch with OutOfRange.
  SyntheticImageDataset dataset(PaperDatasetId::kCocoFood512, kTestDivisor);
  DataLoaderOptions options = SmallLoaderOptions();
  options.batch_size = 7;  // 512 images: 73 full batches and one of 1
  options.augment = true;
  DataLoader loader(&dataset, options);
  ASSERT_EQ(loader.BatchesPerEpoch(), 74u);

  Batch batch;
  size_t reused = 0;
  for (uint64_t epoch = 0; epoch < 2; ++epoch) {
    loader.StartEpoch(epoch);
    for (size_t index = 0; index < loader.BatchesPerEpoch(); ++index) {
      const Shape shape_before = batch.images.shape();
      const float* data_before = batch.images.data();
      ASSERT_TRUE(loader.FillBatch(index, &batch).ok());
      if (batch.images.shape() == shape_before) {
        EXPECT_EQ(batch.images.data(), data_before)
            << "epoch " << epoch << " batch " << index;
        ++reused;
      }
      Batch want = loader.GetBatch(index).value();
      EXPECT_TRUE(batch.images.Equals(want.images))
          << "epoch " << epoch << " batch " << index;
      EXPECT_EQ(batch.labels, want.labels);
    }
    EXPECT_EQ(batch.labels.size(), 1u);  // the partial last batch
    EXPECT_EQ(loader.FillBatch(loader.BatchesPerEpoch(), &batch).code(),
              StatusCode::kOutOfRange);
  }
  // Only the first full batch of each epoch (after a partial one, or the
  // empty start) and the partial batch allocate.
  EXPECT_EQ(reused, 2u * 72u);
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
