#include <gtest/gtest.h>

#include <memory>

#include "core/catalog.h"
#include "core/model_code.h"
#include "core/param_update.h"
#include "core/provenance.h"
#include "core/recover.h"
#include "core/train_service.h"
#include "docstore/document_store.h"
#include "filestore/file_store.h"
#include "models/zoo.h"

namespace mmlib::core {
namespace {

class CatalogTest : public ::testing::Test {
 protected:
  void SetUp() override {
    backends_ = StorageBackends{&docs_, &files_, nullptr};
    config_ = models::DefaultConfig(models::Architecture::kMobileNetV2);
    config_.channel_divisor = 8;
    config_.image_size = 28;
    config_.num_classes = 10;
    environment_ = env::CollectEnvironment();
    model_ = std::make_unique<nn::Model>(
        models::BuildModel(config_).value());
    dataset_ = std::make_unique<data::SyntheticImageDataset>(
        data::PaperDatasetId::kCocoOutdoor512, 4096);
  }

  /// Saves the current model (optionally derived); perturbs it first when
  /// derived so PUA actually stores an update.
  std::string Save(SaveService* service, const std::string& base_id = "",
                   const ProvenanceData* provenance = nullptr) {
    SaveRequest request;
    request.model = model_.get();
    request.code = CodeDescriptorFor(config_);
    request.environment = &environment_;
    request.base_model_id = base_id;
    request.provenance = provenance;
    return service->SaveModel(request).value().model_id;
  }

  void Perturb(uint64_t seed) {
    Rng rng(seed);
    for (size_t i = 0; i < model_->node_count(); ++i) {
      for (nn::Param& param : model_->layer(i)->params()) {
        if (param.trainable && !param.is_buffer) {
          for (int64_t k = 0; k < param.value.numel(); ++k) {
            param.value.at(k) += rng.NextGaussian() * 0.01f;
          }
        }
      }
    }
  }

  docstore::InMemoryDocumentStore docs_;
  filestore::InMemoryFileStore files_;
  StorageBackends backends_;
  models::ModelConfig config_;
  env::EnvironmentInfo environment_;
  std::unique_ptr<nn::Model> model_;
  std::unique_ptr<data::SyntheticImageDataset> dataset_;
};

TEST_F(CatalogTest, ListAndGetInfo) {
  ParamUpdateSaveService service(backends_);
  const std::string root = Save(&service);
  Perturb(1);
  const std::string child = Save(&service, root);

  ModelCatalog catalog(backends_);
  auto models = catalog.ListModels().value();
  ASSERT_EQ(models.size(), 2u);

  auto info = catalog.GetInfo(child).value();
  EXPECT_EQ(info.id, child);
  EXPECT_EQ(info.base_model_id, root);
  EXPECT_EQ(info.approach, kApproachParamUpdate);
  EXPECT_FALSE(info.has_params_snapshot);
  EXPECT_EQ(info.params_hash, model_->ParamsHash().ToHex());

  auto root_info = catalog.GetInfo(root).value();
  EXPECT_TRUE(root_info.has_params_snapshot);
  EXPECT_TRUE(root_info.base_model_id.empty());
}

TEST_F(CatalogTest, GetChainWalksToRoot) {
  ParamUpdateSaveService service(backends_);
  const std::string root = Save(&service);
  Perturb(2);
  const std::string middle = Save(&service, root);
  Perturb(3);
  const std::string leaf = Save(&service, middle);

  ModelCatalog catalog(backends_);
  EXPECT_EQ(catalog.GetChain(leaf).value(),
            (std::vector<std::string>{leaf, middle, root}));
  EXPECT_EQ(catalog.GetChain(root).value(),
            (std::vector<std::string>{root}));
}

TEST_F(CatalogTest, GetDerivedFindsChildren) {
  ParamUpdateSaveService service(backends_);
  const std::string root = Save(&service);
  Perturb(4);
  const std::string a = Save(&service, root);
  Perturb(5);
  const std::string b = Save(&service, root);

  ModelCatalog catalog(backends_);
  auto derived = catalog.GetDerived(root).value();
  ASSERT_EQ(derived.size(), 2u);
  EXPECT_TRUE((derived[0] == a && derived[1] == b) ||
              (derived[0] == b && derived[1] == a));
  EXPECT_TRUE(catalog.GetDerived(a).value().empty());
  EXPECT_FALSE(catalog.GetDerived("ghost").ok());
}

TEST_F(CatalogTest, DeleteRefusesWhileReferenced) {
  ParamUpdateSaveService service(backends_);
  const std::string root = Save(&service);
  Perturb(6);
  const std::string child = Save(&service, root);

  ModelCatalog catalog(backends_);
  EXPECT_EQ(catalog.DeleteModel(root).code(),
            StatusCode::kFailedPrecondition);
  // The child is still recoverable.
  ModelRecoverer recoverer(backends_);
  EXPECT_TRUE(recoverer.Recover(child, RecoverOptions{}).ok());
}

TEST_F(CatalogTest, DeleteLeafRemovesAllItsStorage) {
  ParamUpdateSaveService service(backends_);
  const std::string root = Save(&service);
  const size_t baseline_docs = docs_.DocumentCount();
  const size_t baseline_files = files_.FileCount();
  Perturb(7);
  const std::string child = Save(&service, root);
  ASSERT_GT(docs_.DocumentCount(), baseline_docs);

  ModelCatalog catalog(backends_);
  ASSERT_TRUE(catalog.DeleteModel(child).ok());
  // Everything the child added is gone again.
  EXPECT_EQ(docs_.DocumentCount(), baseline_docs);
  EXPECT_EQ(files_.FileCount(), baseline_files);
  EXPECT_FALSE(catalog.GetInfo(child).ok());
  // And the root can now be deleted too.
  EXPECT_TRUE(catalog.DeleteModel(root).ok());
  EXPECT_EQ(docs_.DocumentCount(), 0u);
  EXPECT_EQ(files_.FileCount(), 0u);
}

TEST_F(CatalogTest, DeleteProvenanceModelRemovesDatasetArchive) {
  ProvenanceSaveService service(backends_);
  const std::string root = Save(&service);

  TrainConfig train_config;
  train_config.epochs = 1;
  train_config.max_batches_per_epoch = 1;
  train_config.loader.batch_size = 4;
  train_config.loader.image_size = config_.image_size;
  train_config.loader.num_classes = config_.num_classes;
  ImageTrainService trainer(dataset_.get(), train_config);
  auto provenance = trainer.CaptureProvenance().value();
  ASSERT_TRUE(trainer.Train(model_.get(), true, 0).ok());
  const std::string child = Save(&service, root, &provenance);

  const size_t files_with_archive = files_.TotalStoredBytes();
  ModelCatalog catalog(backends_);
  ASSERT_TRUE(catalog.DeleteModel(child).ok());
  // The dataset archive (the dominant payload) was released.
  EXPECT_LT(files_.TotalStoredBytes(),
            files_with_archive - dataset_->TotalByteSize() / 2);
}

TEST_F(CatalogTest, DeleteModelTreeCascades) {
  ParamUpdateSaveService service(backends_);
  const std::string root = Save(&service);
  Perturb(8);
  const std::string a = Save(&service, root);
  Perturb(9);
  const std::string a1 = Save(&service, a);
  Perturb(10);
  const std::string b = Save(&service, root);
  (void)a1;
  (void)b;

  ModelCatalog catalog(backends_);
  EXPECT_EQ(catalog.DeleteModelTree(root).value(), 4u);
  EXPECT_TRUE(catalog.ListModels().value().empty());
  EXPECT_EQ(docs_.DocumentCount(), 0u);
  EXPECT_EQ(files_.FileCount(), 0u);
}

TEST_F(CatalogTest, DeleteUnknownModelFails) {
  ModelCatalog catalog(backends_);
  EXPECT_EQ(catalog.DeleteModel("ghost").code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace mmlib::core
