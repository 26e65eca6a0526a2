#include <gtest/gtest.h>

#include <memory>

#include "core/train_service.h"
#include "models/zoo.h"

namespace mmlib::core {
namespace {

class TrainServiceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    config_.epochs = 2;
    config_.max_batches_per_epoch = 2;
    config_.seed = 77;
    config_.sgd.momentum = 0.9f;
    config_.loader.batch_size = 4;
    config_.loader.image_size = 28;
    config_.loader.num_classes = 10;
    config_.loader.seed = 77;
    dataset_ = std::make_unique<data::SyntheticImageDataset>(
        data::PaperDatasetId::kCocoOutdoor512, 4096);
  }

  nn::Model FreshModel(uint64_t seed = 1) {
    models::ModelConfig config =
        models::DefaultConfig(models::Architecture::kMobileNetV2);
    config.channel_divisor = 8;
    config.image_size = 28;
    config.num_classes = 10;
    config.init_seed = seed;
    return models::BuildModel(config).value();
  }

  TrainConfig config_;
  std::unique_ptr<data::SyntheticImageDataset> dataset_;
};

TEST_F(TrainServiceTest, TrainChangesTrainableParameters) {
  nn::Model model = FreshModel();
  const Digest before = model.ParamsHash();
  ImageTrainService service(dataset_.get(), config_);
  auto times = service.Train(&model, /*deterministic=*/true, 0);
  ASSERT_TRUE(times.ok()) << times.status();
  EXPECT_NE(model.ParamsHash(), before);
  EXPECT_GT(times->forward_seconds, 0.0);
  EXPECT_GT(times->backward_seconds, 0.0);
  EXPECT_GT(times->data_load_seconds, 0.0);
  EXPECT_GT(service.last_loss(), 0.0f);
}

TEST_F(TrainServiceTest, DeterministicTrainingIsBitReproducible) {
  // Paper Section 2.4: same code, data, seeds, deterministic ops =>
  // exactly the same updated model.
  nn::Model a = FreshModel();
  nn::Model b = FreshModel();
  ImageTrainService sa(dataset_.get(), config_);
  ImageTrainService sb(dataset_.get(), config_);
  ASSERT_TRUE(sa.Train(&a, true, 0).ok());
  ASSERT_TRUE(sb.Train(&b, true, 12345).ok());  // scheduler seed irrelevant
  EXPECT_EQ(a.ParamsHash(), b.ParamsHash());
}

TEST_F(TrainServiceTest, NonDeterministicTrainingDiverges) {
  nn::Model a = FreshModel();
  nn::Model b = FreshModel();
  ImageTrainService sa(dataset_.get(), config_);
  ImageTrainService sb(dataset_.get(), config_);
  ASSERT_TRUE(sa.Train(&a, false, 111).ok());
  ASSERT_TRUE(sb.Train(&b, false, 222).ok());
  EXPECT_NE(a.ParamsHash(), b.ParamsHash());
}

TEST_F(TrainServiceTest, SeedChangesResult) {
  nn::Model a = FreshModel();
  nn::Model b = FreshModel();
  ImageTrainService sa(dataset_.get(), config_);
  TrainConfig other = config_;
  other.seed = 78;
  other.loader.seed = 78;
  ImageTrainService sb(dataset_.get(), other);
  ASSERT_TRUE(sa.Train(&a, true, 0).ok());
  ASSERT_TRUE(sb.Train(&b, true, 0).ok());
  EXPECT_NE(a.ParamsHash(), b.ParamsHash());
}

TEST_F(TrainServiceTest, ConfigJsonRoundtrip) {
  // Every field off its default: a field that FromJson drops or misreads
  // comes back as its default and changes the re-serialized text.
  TrainConfig config;
  config.epochs = 3;
  config.max_batches_per_epoch = 5;
  config.seed = 1234;
  config.sgd.learning_rate = 0.125f;
  config.sgd.momentum = 0.5f;
  config.sgd.weight_decay = 0.25f;
  config.lr_decay_gamma = 0.75;
  config.lr_decay_every_epochs = 2;
  config.loader.batch_size = 7;
  config.loader.image_size = 20;
  config.loader.num_classes = 9;
  config.loader.shuffle = false;
  config.loader.augment = true;
  config.loader.seed = 99;
  config.loader.preprocess.center_crop = true;
  config.loader.preprocess.mean = {0.25f, 0.375f, 0.625f};
  config.loader.preprocess.stddev = {2.0f, 4.0f, 8.0f};
  const json::Value doc = config.ToJson();
  auto restored = TrainConfig::FromJson(doc);
  ASSERT_TRUE(restored.ok()) << restored.status();
  EXPECT_EQ(restored->ToJson().Dump(), doc.Dump());
}

TEST_F(TrainServiceTest, ConfigFromJsonRejectsMissingFields) {
  json::Value doc = json::Value::MakeObject();
  doc.Set("epochs", 1);
  EXPECT_FALSE(TrainConfig::FromJson(doc).ok());
}

TEST_F(TrainServiceTest, CaptureProvenanceDescribesWrappers) {
  ImageTrainService service(dataset_.get(), config_);
  auto provenance = service.CaptureProvenance().value();
  EXPECT_EQ(provenance.dataset, dataset_.get());
  EXPECT_TRUE(provenance.optimizer_state.empty());  // pre-training

  const json::Value& doc = provenance.train_service_doc;
  EXPECT_EQ(doc.GetString("class_name").value(), "ImageTrainService");
  const json::Value* wrappers = doc.FindMember("wrappers");
  ASSERT_NE(wrappers, nullptr);
  // Figure 5: a stateless dataloader wrapper and a stateful optimizer
  // wrapper, each with class name and import.
  const json::Value* dataloader = wrappers->FindMember("dataloader");
  ASSERT_NE(dataloader, nullptr);
  EXPECT_EQ(dataloader->GetString("class_name").value(), "data.DataLoader");
  EXPECT_TRUE(dataloader->Has("import"));
  const json::Value* optimizer = wrappers->FindMember("optimizer");
  ASSERT_NE(optimizer, nullptr);
  EXPECT_EQ(optimizer->GetString("class_name").value(), "nn.SgdOptimizer");
  EXPECT_EQ(optimizer->GetString("import").value(), "nn/optimizer.h");
  EXPECT_FALSE(optimizer->GetBool("has_state").value());
}

TEST_F(TrainServiceTest, ProvenanceAfterTrainingHasOptimizerState) {
  nn::Model model = FreshModel();
  ImageTrainService service(dataset_.get(), config_);
  ASSERT_TRUE(service.Train(&model, true, 0).ok());
  auto provenance = service.CaptureProvenance().value();
  EXPECT_FALSE(provenance.optimizer_state.empty());
  const json::Value* optimizer =
      provenance.train_service_doc.FindMember("wrappers")->FindMember(
          "optimizer");
  EXPECT_TRUE(optimizer->GetBool("has_state").value());
}

TEST_F(TrainServiceTest, RestoredServiceReproducesTraining) {
  // Train with the original service, then rebuild one from the provenance
  // documents and verify it performs the identical training.
  nn::Model original = FreshModel();
  ImageTrainService service(dataset_.get(), config_);
  auto provenance = service.CaptureProvenance().value();
  ASSERT_TRUE(service.Train(&original, true, 0).ok());

  auto dataset_copy = std::make_unique<data::SyntheticImageDataset>(
      data::PaperDatasetId::kCocoOutdoor512, 4096);
  auto restored =
      RestoreTrainService(provenance.train_service_doc,
                          provenance.optimizer_state,
                          std::move(dataset_copy))
          .value();
  nn::Model replay = FreshModel();
  ASSERT_TRUE(restored->Train(&replay, true, 0).ok());
  EXPECT_EQ(replay.ParamsHash(), original.ParamsHash());
}

TEST_F(TrainServiceTest, OptimizerStateCarriesAcrossTrainCalls) {
  // Two consecutive trainings with momentum: replaying the second training
  // only reproduces the result if the captured optimizer state is restored.
  nn::Model model = FreshModel();
  ImageTrainService service(dataset_.get(), config_);
  ASSERT_TRUE(service.Train(&model, true, 0).ok());
  const Bytes snapshot_params = model.SerializeParams();
  auto provenance = service.CaptureProvenance().value();
  ASSERT_FALSE(provenance.optimizer_state.empty());
  ASSERT_TRUE(service.Train(&model, true, 0).ok());
  const Digest after_second = model.ParamsHash();

  // Replay WITH the state: matches.
  {
    nn::Model replay = FreshModel();
    ASSERT_TRUE(replay.LoadParams(snapshot_params).ok());
    auto restored = RestoreTrainService(
                        provenance.train_service_doc,
                        provenance.optimizer_state,
                        std::make_unique<data::SyntheticImageDataset>(
                            data::PaperDatasetId::kCocoOutdoor512, 4096))
                        .value();
    ASSERT_TRUE(restored->Train(&replay, true, 0).ok());
    EXPECT_EQ(replay.ParamsHash(), after_second);
  }
  // Replay WITHOUT the state: momentum resets, result differs.
  {
    nn::Model replay = FreshModel();
    ASSERT_TRUE(replay.LoadParams(snapshot_params).ok());
    auto restored = RestoreTrainService(
                        provenance.train_service_doc, Bytes{},
                        std::make_unique<data::SyntheticImageDataset>(
                            data::PaperDatasetId::kCocoOutdoor512, 4096))
                        .value();
    ASSERT_TRUE(restored->Train(&replay, true, 0).ok());
    EXPECT_NE(replay.ParamsHash(), after_second);
  }
}

TEST_F(TrainServiceTest, LrScheduleChangesTrainingAndIsReplayable) {
  TrainConfig config = config_;
  config.epochs = 3;
  config.lr_decay_gamma = 0.5;
  config.lr_decay_every_epochs = 1;

  // The schedule changes the result relative to a constant learning rate.
  nn::Model scheduled = FreshModel();
  nn::Model constant = FreshModel();
  ImageTrainService sa(dataset_.get(), config);
  ImageTrainService sb(dataset_.get(), config_);
  ASSERT_TRUE(sa.Train(&scheduled, true, 0).ok());
  TrainConfig constant_config = config_;
  constant_config.epochs = 3;
  ImageTrainService sc(dataset_.get(), constant_config);
  ASSERT_TRUE(sc.Train(&constant, true, 0).ok());
  EXPECT_NE(scheduled.ParamsHash(), constant.ParamsHash());

  // And it is reproduced exactly by a restored service.
  ImageTrainService original(dataset_.get(), config);
  auto provenance = original.CaptureProvenance().value();
  nn::Model trained = FreshModel();
  ASSERT_TRUE(original.Train(&trained, true, 0).ok());

  auto restored = RestoreTrainService(
                      provenance.train_service_doc, Bytes{},
                      std::make_unique<data::SyntheticImageDataset>(
                          data::PaperDatasetId::kCocoOutdoor512, 4096))
                      .value();
  nn::Model replay = FreshModel();
  ASSERT_TRUE(restored->Train(&replay, true, 0).ok());
  EXPECT_EQ(replay.ParamsHash(), trained.ParamsHash());
}

TEST_F(TrainServiceTest, LrScheduleRoundtripsThroughJson) {
  TrainConfig config = config_;
  config.lr_decay_gamma = 0.25;
  config.lr_decay_every_epochs = 2;
  auto restored = TrainConfig::FromJson(config.ToJson()).value();
  EXPECT_DOUBLE_EQ(restored.lr_decay_gamma, 0.25);
  EXPECT_EQ(restored.lr_decay_every_epochs, 2);
}

TEST_F(TrainServiceTest, RestoreRejectsUnknownClass) {
  json::Value doc = json::Value::MakeObject();
  doc.Set("class_name", "MysteryService");
  auto result = RestoreTrainService(doc, Bytes{}, nullptr);
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

TEST_F(TrainServiceTest, FullDatasetEpochWhenUnlimited) {
  TrainConfig config = config_;
  config.epochs = 1;
  config.max_batches_per_epoch = -1;
  config.loader.batch_size = 128;
  data::SyntheticImageDataset tiny(data::PaperDatasetId::kCocoOutdoor512,
                                   1 << 18);
  ImageTrainService service(&tiny, config);
  nn::Model model = FreshModel();
  auto times = service.Train(&model, true, 0);
  ASSERT_TRUE(times.ok()) << times.status();
}

}  // namespace
}  // namespace mmlib::core
