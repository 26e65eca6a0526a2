#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/adaptive.h"
#include "core/baseline.h"
#include "core/evaluate.h"
#include "core/model_code.h"
#include "core/param_update.h"
#include "core/provenance.h"
#include "core/recover.h"
#include "data/archive.h"
#include "docstore/document_store.h"
#include "filestore/file_store.h"
#include "models/zoo.h"
#include "simnet/network.h"

namespace mmlib::core {
namespace {

models::ModelConfig TinyConfig(
    models::Architecture arch = models::Architecture::kMobileNetV2) {
  models::ModelConfig config = models::DefaultConfig(arch);
  config.channel_divisor = 8;
  config.image_size = 28;
  config.num_classes = 10;
  return config;
}

TrainConfig TinyTrainConfig() {
  TrainConfig config;
  config.epochs = 1;
  config.max_batches_per_epoch = 1;
  config.loader.batch_size = 4;
  config.loader.image_size = 28;
  config.loader.num_classes = 10;
  config.sgd.momentum = 0.0f;
  return config;
}

/// Shared fixture: in-memory backends, tiny model, environment, code.
class SaveServiceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    backends_ = StorageBackends{&docs_, &files_, nullptr};
    config_ = TinyConfig();
    code_ = CodeDescriptorFor(config_);
    environment_ = env::CollectEnvironment();
    auto model = models::BuildModel(config_);
    ASSERT_TRUE(model.ok());
    model_ = std::make_unique<nn::Model>(std::move(model).value());
    dataset_ = std::make_unique<data::SyntheticImageDataset>(
        data::PaperDatasetId::kCocoOutdoor512, /*size_divisor=*/4096);
  }

  SaveRequest MakeRequest(nn::Model* model, std::string base_id = "") {
    SaveRequest request;
    request.model = model;
    request.code = code_;
    request.environment = &environment_;
    request.base_model_id = std::move(base_id);
    return request;
  }

  /// Trains `model` via a fresh service, capturing provenance first.
  /// Trains on `dataset`, or on the fixture's CO-512 when it is null.
  Result<ProvenanceData> TrainOnce(nn::Model* model, uint64_t seed,
                                   const data::Dataset* dataset = nullptr) {
    TrainConfig config = TinyTrainConfig();
    config.seed = seed;
    config.loader.seed = seed;
    service_ = std::make_unique<ImageTrainService>(
        dataset != nullptr ? dataset : dataset_.get(), config);
    MMLIB_ASSIGN_OR_RETURN(ProvenanceData provenance,
                           service_->CaptureProvenance());
    MMLIB_RETURN_IF_ERROR(service_->Train(model, true, 0).status());
    return provenance;
  }

  /// The dataset file an MPA save of `model_id` stored.
  Result<Bytes> StoredDatasetFile(const std::string& model_id) {
    MMLIB_ASSIGN_OR_RETURN(json::Value model_doc,
                           docs_.Get(kModelsCollection, model_id));
    MMLIB_ASSIGN_OR_RETURN(std::string prov_id,
                           model_doc.GetString("provenance_doc"));
    MMLIB_ASSIGN_OR_RETURN(json::Value prov_doc,
                           docs_.Get(kProvenanceCollection, prov_id));
    MMLIB_ASSIGN_OR_RETURN(std::string file_id,
                           prov_doc.GetString("dataset_file"));
    return files_.LoadFile(file_id);
  }

  docstore::InMemoryDocumentStore docs_;
  filestore::InMemoryFileStore files_;
  StorageBackends backends_;
  models::ModelConfig config_;
  json::Value code_;
  env::EnvironmentInfo environment_;
  std::unique_ptr<nn::Model> model_;
  std::unique_ptr<data::SyntheticImageDataset> dataset_;
  std::unique_ptr<ImageTrainService> service_;
};

// --- Code descriptors ---

TEST_F(SaveServiceTest, CodeDescriptorRoundtrip) {
  auto restored = ConfigFromCodeDescriptor(code_).value();
  EXPECT_EQ(restored.arch, config_.arch);
  EXPECT_EQ(restored.channel_divisor, config_.channel_divisor);
  EXPECT_EQ(restored.num_classes, config_.num_classes);
  EXPECT_EQ(restored.image_size, config_.image_size);
  EXPECT_EQ(restored.init_seed, config_.init_seed);

  auto rebuilt = BuildModelFromCode(code_, model_->SerializeParams()).value();
  EXPECT_EQ(rebuilt.ArchitectureFingerprint(),
            model_->ArchitectureFingerprint());
  EXPECT_EQ(rebuilt.ParamsHash(), model_->ParamsHash());
}

TEST_F(SaveServiceTest, CodeDescriptorRejectsUnknownArchitecture) {
  json::Value bad = code_;
  bad.Set("architecture", "AlexNet");
  EXPECT_FALSE(BuildModelFromCode(bad, model_->SerializeParams()).ok());
}

// --- Baseline ---

TEST_F(SaveServiceTest, BaselineSaveRecoverIsLossless) {
  BaselineSaveService service(backends_);
  auto save = service.SaveModel(MakeRequest(model_.get())).value();
  EXPECT_GT(save.storage_bytes, 0);
  EXPECT_GT(save.tts_seconds, 0.0);

  ModelRecoverer recoverer(backends_);
  auto recovered = recoverer.Recover(save.model_id, RecoverOptions{}).value();
  EXPECT_EQ(recovered.model.ParamsHash(), model_->ParamsHash());
  EXPECT_TRUE(recovered.checksum_verified);
  EXPECT_TRUE(recovered.environment_matches);
}

TEST_F(SaveServiceTest, BaselineStorageIsIndependentOfBase) {
  BaselineSaveService service(backends_);
  auto first = service.SaveModel(MakeRequest(model_.get())).value();
  ASSERT_TRUE(TrainOnce(model_.get(), 1).ok());
  auto derived =
      service.SaveModel(MakeRequest(model_.get(), first.model_id)).value();
  // BA saves complete snapshots: derived storage ~ initial storage.
  EXPECT_NEAR(static_cast<double>(derived.storage_bytes),
              static_cast<double>(first.storage_bytes),
              0.05 * first.storage_bytes);
}

TEST_F(SaveServiceTest, RecoverUnknownIdFails) {
  ModelRecoverer recoverer(backends_);
  EXPECT_EQ(recoverer.Recover("missing", RecoverOptions{}).status().code(),
            StatusCode::kNotFound);
}

TEST_F(SaveServiceTest, RecoverDetectsTamperedParameters) {
  BaselineSaveService service(backends_);
  auto save = service.SaveModel(MakeRequest(model_.get())).value();

  // Corrupt the stored parameter file.
  auto doc = docs_.Get(kModelsCollection, save.model_id).value();
  const std::string file_id = doc.GetString("params_file").value();
  Bytes params = files_.LoadFile(file_id).value();
  params[params.size() - 1] ^= 0x01;
  // Replace: delete then re-save under a new id, patch the document.
  // (The file store is content-addressed by generated id, so emulate an
  // attacker overwriting stored bytes.)
  files_.Delete(file_id).ok();
  const std::string new_id = files_.SaveFile(params).value();
  doc.Set("params_file", new_id);
  docs_.Delete(kModelsCollection, save.model_id).ok();
  json::Value patched = doc;
  const std::string patched_id =
      docs_.Insert(kModelsCollection, patched).value();

  ModelRecoverer recoverer(backends_);
  RecoverOptions options;
  auto result = recoverer.Recover(patched_id, options);
  EXPECT_EQ(result.status().code(), StatusCode::kCorruption);
}

TEST_F(SaveServiceTest, RecoverWithoutVerificationSkipsChecks) {
  BaselineSaveService service(backends_);
  auto save = service.SaveModel(MakeRequest(model_.get())).value();
  RecoverOptions options;
  options.verify_checksum = false;
  options.check_environment = false;
  ModelRecoverer recoverer(backends_);
  auto recovered = recoverer.Recover(save.model_id, options).value();
  EXPECT_FALSE(recovered.checksum_verified);
  EXPECT_FALSE(recovered.environment_matches);
  EXPECT_EQ(recovered.breakdown.check_env_seconds, 0.0);
  EXPECT_EQ(recovered.breakdown.verify_seconds, 0.0);
}

// --- Parameter update approach ---

TEST_F(SaveServiceTest, ParamUpdateChainRecoversExactly) {
  ParamUpdateSaveService service(backends_);
  auto initial = service.SaveModel(MakeRequest(model_.get())).value();

  ASSERT_TRUE(TrainOnce(model_.get(), 7).ok());
  const Digest after_first = model_->ParamsHash();
  auto first =
      service.SaveModel(MakeRequest(model_.get(), initial.model_id)).value();

  ASSERT_TRUE(TrainOnce(model_.get(), 8).ok());
  const Digest after_second = model_->ParamsHash();
  auto second =
      service.SaveModel(MakeRequest(model_.get(), first.model_id)).value();

  ModelRecoverer recoverer(backends_);
  EXPECT_EQ(recoverer.Recover(first.model_id, RecoverOptions{})
                .value()
                .model.ParamsHash(),
            after_first);
  EXPECT_EQ(recoverer.Recover(second.model_id, RecoverOptions{})
                .value()
                .model.ParamsHash(),
            after_second);
  EXPECT_EQ(recoverer.BaseChainLength(second.model_id).value(), 2u);
}

TEST_F(SaveServiceTest, ParamUpdateSavesOnlyChangedLayers) {
  models::ApplyPartialUpdateFreeze(model_.get());
  ParamUpdateSaveService service(backends_);
  auto initial = service.SaveModel(MakeRequest(model_.get())).value();

  ASSERT_TRUE(TrainOnce(model_.get(), 9).ok());
  auto derived =
      service.SaveModel(MakeRequest(model_.get(), initial.model_id)).value();

  const auto& stats = service.last_diff_stats();
  EXPECT_GT(stats.total_layers, 50u);
  // Only the classifier head changed.
  EXPECT_LE(stats.changed_layers, 2u);
  EXPECT_GE(stats.changed_layers, 1u);
  EXPECT_LT(stats.merkle_comparisons, stats.total_layers);
  // Partial update storage is a small fraction of the full snapshot.
  EXPECT_LT(derived.storage_bytes, initial.storage_bytes / 3);

  ModelRecoverer recoverer(backends_);
  auto recovered =
      recoverer.Recover(derived.model_id, RecoverOptions{}).value();
  EXPECT_EQ(recovered.model.ParamsHash(), model_->ParamsHash());
}

TEST_F(SaveServiceTest, ParamUpdateFullUpdateStoresEverything) {
  ParamUpdateSaveService service(backends_);
  auto initial = service.SaveModel(MakeRequest(model_.get())).value();
  ASSERT_TRUE(TrainOnce(model_.get(), 10).ok());
  auto derived =
      service.SaveModel(MakeRequest(model_.get(), initial.model_id)).value();
  // Fully updated version: the update is roughly a full snapshot.
  EXPECT_GT(derived.storage_bytes, initial.storage_bytes * 7 / 10);
}

TEST_F(SaveServiceTest, ParamUpdateRequiresExistingBase) {
  ParamUpdateSaveService service(backends_);
  auto result = service.SaveModel(MakeRequest(model_.get(), "ghost-id"));
  EXPECT_FALSE(result.ok());
}

// --- Provenance approach ---

TEST_F(SaveServiceTest, ProvenanceRecoverReproducesTraining) {
  ProvenanceSaveService service(backends_);
  auto initial = service.SaveModel(MakeRequest(model_.get())).value();

  auto provenance = TrainOnce(model_.get(), 11);
  ASSERT_TRUE(provenance.ok());
  const Digest trained_hash = model_->ParamsHash();

  SaveRequest request = MakeRequest(model_.get(), initial.model_id);
  request.provenance = &provenance.value();
  auto derived = service.SaveModel(request).value();

  ModelRecoverer recoverer(backends_);
  auto recovered =
      recoverer.Recover(derived.model_id, RecoverOptions{}).value();
  EXPECT_EQ(recovered.model.ParamsHash(), trained_hash);
  EXPECT_TRUE(recovered.checksum_verified);
}

TEST_F(SaveServiceTest, ProvenanceStorageIsDatasetDominated) {
  ProvenanceSaveService service(backends_);
  auto initial = service.SaveModel(MakeRequest(model_.get())).value();
  auto provenance = TrainOnce(model_.get(), 12);
  ASSERT_TRUE(provenance.ok());
  SaveRequest request = MakeRequest(model_.get(), initial.model_id);
  request.provenance = &provenance.value();
  auto derived = service.SaveModel(request).value();

  // Storage tracks the archived dataset, not the model parameters.
  const size_t dataset_bytes = dataset_->TotalByteSize();
  EXPECT_LT(static_cast<size_t>(derived.storage_bytes), 2 * dataset_bytes);
  EXPECT_LT(derived.storage_bytes, initial.storage_bytes);
}

TEST_F(SaveServiceTest, ProvenanceRequiresProvenanceForDerived) {
  ProvenanceSaveService service(backends_);
  auto initial = service.SaveModel(MakeRequest(model_.get())).value();
  auto result = service.SaveModel(MakeRequest(model_.get(),
                                              initial.model_id));
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(SaveServiceTest, ProvenanceChainRecoversTransitively) {
  ProvenanceSaveService service(backends_);
  // (model id, parameter hash at save) for every link, root first.
  std::vector<std::pair<std::string, Digest>> links;
  links.emplace_back(
      service.SaveModel(MakeRequest(model_.get())).value().model_id,
      model_->ParamsHash());
  for (uint64_t round = 0; round < 3; ++round) {
    auto provenance = TrainOnce(model_.get(), 20 + round);
    ASSERT_TRUE(provenance.ok());
    const Digest saved_hash = model_->ParamsHash();
    SaveRequest request = MakeRequest(model_.get(), links.back().first);
    request.provenance = &provenance.value();
    links.emplace_back(service.SaveModel(request).value().model_id,
                       saved_hash);
  }

  ModelRecoverer recoverer(backends_);
  EXPECT_EQ(recoverer.BaseChainLength(links.back().first).value(), 3u);
  // One recoverer serves every recovery: each link, recovered twice, comes
  // back with the parameters it was saved with.
  for (int pass = 0; pass < 2; ++pass) {
    for (const auto& [id, saved_hash] : links) {
      auto recovered = recoverer.Recover(id, RecoverOptions{}).value();
      EXPECT_EQ(recovered.model.ParamsHash(), saved_hash)
          << "pass " << pass << ", model " << id;
    }
  }
}

// The service memoises the last dataset archive. Every derived save still
// stores its own dataset file, byte-equal to a fresh archive.
TEST_F(SaveServiceTest, ProvenanceRepeatedSavesStoreFreshArchives) {
  ProvenanceSaveService service(backends_);
  auto initial = service.SaveModel(MakeRequest(model_.get())).value();
  const Bytes fresh =
      data::DatasetArchiver(Codec::ForKind(CodecKind::kLz77))
          .Archive(*dataset_, dataset_->ContentHash())
          .value();

  std::string base_id = initial.model_id;
  for (uint64_t round = 0; round < 3; ++round) {
    auto provenance = TrainOnce(model_.get(), 40 + round);
    ASSERT_TRUE(provenance.ok());
    SaveRequest request = MakeRequest(model_.get(), base_id);
    request.provenance = &provenance.value();
    base_id = service.SaveModel(request).value().model_id;
    EXPECT_EQ(StoredDatasetFile(base_id).value(), fresh) << "round " << round;
  }
}

// A changed pixel under the same name, then the same content under another
// name, each miss the memo: the stored archive is the new dataset's, and
// recovery replays training on the new data.
TEST_F(SaveServiceTest, ProvenanceChangedDatasetArchivesAfresh) {
  const auto original = data::Materialize(*dataset_);
  std::vector<data::Image> images;
  for (size_t i = 0; i < original->size(); ++i) {
    images.push_back(original->GetImage(i));
  }
  images[0].pixels[0] ^= 0x01;
  const data::InMemoryDataset changed(original->name(), images);
  const data::InMemoryDataset renamed("Coco-outdoor-512-copy", images);
  ASSERT_NE(changed.ContentHash(), original->ContentHash());
  ASSERT_EQ(renamed.ContentHash(), changed.ContentHash());

  ProvenanceSaveService service(backends_);
  const data::DatasetArchiver archiver(Codec::ForKind(CodecKind::kLz77));
  std::string base_id =
      service.SaveModel(MakeRequest(model_.get())).value().model_id;
  uint64_t seed = 50;
  for (const data::Dataset* dataset :
       {static_cast<const data::Dataset*>(original.get()),
        static_cast<const data::Dataset*>(&changed),
        static_cast<const data::Dataset*>(&renamed)}) {
    auto provenance = TrainOnce(model_.get(), seed++, dataset);
    ASSERT_TRUE(provenance.ok());
    const Digest trained_hash = model_->ParamsHash();
    SaveRequest request = MakeRequest(model_.get(), base_id);
    request.provenance = &provenance.value();
    base_id = service.SaveModel(request).value().model_id;

    EXPECT_EQ(StoredDatasetFile(base_id).value(),
              archiver.Archive(*dataset, dataset->ContentHash()).value())
        << dataset->name();
    ModelRecoverer recoverer(backends_);
    auto recovered = recoverer.Recover(base_id, RecoverOptions{}).value();
    EXPECT_EQ(recovered.model.ParamsHash(), trained_hash) << dataset->name();
  }
}

TEST_F(SaveServiceTest, ExternalDatasetManagerStoresReferenceOnly) {
  ProvenanceOptions options;
  options.external_dataset_manager = true;
  ProvenanceSaveService service(backends_, options);
  auto initial = service.SaveModel(MakeRequest(model_.get())).value();

  auto provenance = TrainOnce(model_.get(), 30);
  ASSERT_TRUE(provenance.ok());
  const Digest trained_hash = model_->ParamsHash();
  SaveRequest request = MakeRequest(model_.get(), initial.model_id);
  request.provenance = &provenance.value();
  auto derived = service.SaveModel(request).value();

  // Without the archive, derived storage shrinks to metadata: the stored
  // provenance document references the dataset by content hash only.
  auto model_doc = docs_.Get(kModelsCollection, derived.model_id).value();
  auto prov_doc =
      docs_.Get(kProvenanceCollection,
                model_doc.GetString("provenance_doc").value())
          .value();
  EXPECT_EQ(prov_doc.FindMember("dataset_file"), nullptr);
  EXPECT_NE(prov_doc.FindMember("dataset_ref"), nullptr);

  // Recovery fails without a resolver ...
  ModelRecoverer recoverer(backends_);
  EXPECT_EQ(
      recoverer.Recover(derived.model_id, RecoverOptions{}).status().code(),
      StatusCode::kFailedPrecondition);

  // ... and succeeds with one.
  class Resolver : public DatasetResolver {
   public:
    Result<std::unique_ptr<data::Dataset>> Resolve(
        const std::string& name, const std::string&) override {
      if (name != "Coco-outdoor-512") {
        return Status::NotFound("unknown dataset " + name);
      }
      return std::unique_ptr<data::Dataset>(
          std::make_unique<data::SyntheticImageDataset>(
              data::PaperDatasetId::kCocoOutdoor512, 4096));
    }
  };
  Resolver resolver;
  recoverer.set_dataset_resolver(&resolver);
  auto recovered =
      recoverer.Recover(derived.model_id, RecoverOptions{}).value();
  EXPECT_EQ(recovered.model.ParamsHash(), trained_hash);
}

// --- Adaptive approach ---

TEST_F(SaveServiceTest, AdaptivePicksParamUpdateForPartialUpdates) {
  models::ApplyPartialUpdateFreeze(model_.get());
  AdaptiveSaveService service(backends_);
  auto initial = service.SaveModel(MakeRequest(model_.get())).value();

  auto provenance = TrainOnce(model_.get(), 40);
  ASSERT_TRUE(provenance.ok());
  SaveRequest request = MakeRequest(model_.get(), initial.model_id);
  request.provenance = &provenance.value();
  service.SaveModel(request).value();
  // The head-only update is far smaller than the dataset archive.
  EXPECT_EQ(service.last_choice(), kApproachParamUpdate);
  EXPECT_LT(service.last_estimates().param_update,
            service.last_estimates().provenance);
}

TEST_F(SaveServiceTest, AdaptivePicksProvenanceForSmallDatasets) {
  AdaptiveSaveService service(backends_);
  auto initial = service.SaveModel(MakeRequest(model_.get())).value();

  // Fully updated model + tiny dataset: provenance is cheapest.
  data::SyntheticImageDataset tiny(data::PaperDatasetId::kCocoOutdoor512,
                                   1 << 20);
  TrainConfig config = TinyTrainConfig();
  ImageTrainService trainer(&tiny, config);
  auto provenance = trainer.CaptureProvenance().value();
  ASSERT_TRUE(trainer.Train(model_.get(), true, 0).ok());

  SaveRequest request = MakeRequest(model_.get(), initial.model_id);
  request.provenance = &provenance;
  service.SaveModel(request).value();
  EXPECT_EQ(service.last_choice(), kApproachProvenance);
}

TEST_F(SaveServiceTest, AdaptiveFallsBackWithoutProvenance) {
  AdaptiveSaveService service(backends_);
  auto initial = service.SaveModel(MakeRequest(model_.get())).value();
  ASSERT_TRUE(TrainOnce(model_.get(), 50).ok());
  auto derived =
      service.SaveModel(MakeRequest(model_.get(), initial.model_id)).value();
  EXPECT_NE(service.last_choice(), kApproachProvenance);

  ModelRecoverer recoverer(backends_);
  auto recovered =
      recoverer.Recover(derived.model_id, RecoverOptions{}).value();
  EXPECT_EQ(recovered.model.ParamsHash(), model_->ParamsHash());
}

TEST_F(SaveServiceTest, AdaptiveMixedChainRecovers) {
  // Build a chain whose links were chosen by different approaches and
  // recover the head — the recoverer must dispatch per link.
  AdaptiveSaveService service(backends_);
  auto initial = service.SaveModel(MakeRequest(model_.get())).value();
  std::string base_id = initial.model_id;

  // Link 1: partial update (PUA expected).
  models::ApplyPartialUpdateFreeze(model_.get());
  auto prov1 = TrainOnce(model_.get(), 60);
  ASSERT_TRUE(prov1.ok());
  SaveRequest r1 = MakeRequest(model_.get(), base_id);
  r1.provenance = &prov1.value();
  base_id = service.SaveModel(r1).value().model_id;
  EXPECT_EQ(service.last_choice(), kApproachParamUpdate);

  // Link 2: full update with tiny dataset (MPA expected).
  model_->SetTrainableAll(true);
  data::SyntheticImageDataset tiny(data::PaperDatasetId::kCocoFood512,
                                   1 << 20);
  ImageTrainService trainer(&tiny, TinyTrainConfig());
  auto prov2 = trainer.CaptureProvenance().value();
  ASSERT_TRUE(trainer.Train(model_.get(), true, 0).ok());
  SaveRequest r2 = MakeRequest(model_.get(), base_id);
  r2.provenance = &prov2;
  base_id = service.SaveModel(r2).value().model_id;
  EXPECT_EQ(service.last_choice(), kApproachProvenance);

  ModelRecoverer recoverer(backends_);
  auto recovered = recoverer.Recover(base_id, RecoverOptions{}).value();
  EXPECT_EQ(recovered.model.ParamsHash(), model_->ParamsHash());
  EXPECT_EQ(recoverer.BaseChainLength(base_id).value(), 2u);
}

// --- Evaluation ---

TEST_F(SaveServiceTest, RecoveredModelEvaluatesIdentically) {
  BaselineSaveService service(backends_);
  auto save = service.SaveModel(MakeRequest(model_.get())).value();
  ModelRecoverer recoverer(backends_);
  auto recovered = recoverer.Recover(save.model_id, RecoverOptions{}).value();

  data::DataLoaderOptions options;
  options.batch_size = 8;
  options.image_size = config_.image_size;
  options.num_classes = config_.num_classes;
  options.shuffle = false;
  data::DataLoader loader(dataset_.get(), options);

  nn::ExecutionContext ctx1 = nn::ExecutionContext::Deterministic(1);
  auto original =
      EvaluateModel(model_.get(), loader, &ctx1, /*max_batches=*/4).value();
  nn::ExecutionContext ctx2 = nn::ExecutionContext::Deterministic(1);
  auto replica =
      EvaluateModel(&recovered.model, loader, &ctx2, /*max_batches=*/4)
          .value();
  EXPECT_EQ(original.mean_loss, replica.mean_loss);
  EXPECT_EQ(original.accuracy, replica.accuracy);
  EXPECT_EQ(original.sample_count, replica.sample_count);
  EXPECT_EQ(original.sample_count, 32u);
  EXPECT_GT(original.mean_loss, 0.0);
  // The context's training flag is restored afterwards.
  EXPECT_TRUE(ctx1.training());
}

// --- Failure injection ---

TEST_F(SaveServiceTest, RecoverFailsWhenUpdateFileMissing) {
  ParamUpdateSaveService service(backends_);
  auto initial = service.SaveModel(MakeRequest(model_.get())).value();
  ASSERT_TRUE(TrainOnce(model_.get(), 70).ok());
  auto derived =
      service.SaveModel(MakeRequest(model_.get(), initial.model_id)).value();

  auto doc = docs_.Get(kModelsCollection, derived.model_id).value();
  ASSERT_TRUE(
      files_.Delete(doc.GetString("update_file").value()).ok());

  ModelRecoverer recoverer(backends_);
  EXPECT_EQ(
      recoverer.Recover(derived.model_id, RecoverOptions{}).status().code(),
      StatusCode::kNotFound);
}

TEST_F(SaveServiceTest, SaveDerivedFailsWhenBaseMerkleMissing) {
  ParamUpdateSaveService service(backends_);
  auto initial = service.SaveModel(MakeRequest(model_.get())).value();
  auto doc = docs_.Get(kModelsCollection, initial.model_id).value();
  ASSERT_TRUE(
      files_.Delete(doc.GetString("merkle_file").value()).ok());

  ASSERT_TRUE(TrainOnce(model_.get(), 71).ok());
  EXPECT_FALSE(
      service.SaveModel(MakeRequest(model_.get(), initial.model_id)).ok());
}

TEST_F(SaveServiceTest, EnvironmentMismatchIsReportedWithDiffs) {
  // Save under a (fictitious) different environment; recovery on this host
  // must flag the mismatch and name the differing fields.
  env::EnvironmentInfo other = environment_;
  other.os_release = "5.0.0-other-machine";
  other.libraries["mmlib.nn"] = "0.1";
  BaselineSaveService service(backends_);
  SaveRequest request = MakeRequest(model_.get());
  request.environment = &other;
  auto save = service.SaveModel(request).value();

  ModelRecoverer recoverer(backends_);
  auto recovered = recoverer.Recover(save.model_id, RecoverOptions{}).value();
  EXPECT_FALSE(recovered.environment_matches);
  ASSERT_EQ(recovered.environment_diffs.size(), 2u);
  EXPECT_NE(recovered.environment_diffs[0].find("os_release"),
            std::string::npos);
  // The model itself still recovers losslessly.
  EXPECT_TRUE(recovered.checksum_verified);
}

TEST_F(SaveServiceTest, BaseChainLengthWalksDeepChains) {
  // Synthetic metadata-only chain (no payloads needed for chain walking).
  std::string prev;
  for (int i = 0; i < 100; ++i) {
    json::Value link = json::Value::MakeObject();
    link.Set("approach", std::string(kApproachParamUpdate));
    if (!prev.empty()) {
      link.Set("base_model", prev);
    }
    prev = docs_.Insert(kModelsCollection, link).value();
  }
  ModelRecoverer recoverer(backends_);
  EXPECT_EQ(recoverer.BaseChainLength(prev).value(), 99u);
  // A dangling base reference is reported, not ignored.
  json::Value dangling = json::Value::MakeObject();
  dangling.Set("approach", std::string(kApproachParamUpdate));
  dangling.Set("base_model", "no-such-model");
  const std::string dangling_id =
      docs_.Insert(kModelsCollection, dangling).value();
  EXPECT_EQ(recoverer.BaseChainLength(dangling_id).status().code(),
            StatusCode::kNotFound);
}

// --- Breakdown attribution (Figure 12 plumbing) ---

TEST_F(SaveServiceTest, RecoverBreakdownCoversAllSteps) {
  BaselineSaveService service(backends_);
  auto save = service.SaveModel(MakeRequest(model_.get())).value();
  ModelRecoverer recoverer(backends_);
  auto recovered = recoverer.Recover(save.model_id, RecoverOptions{}).value();
  const RecoverBreakdown& b = recovered.breakdown;
  EXPECT_GT(b.load_seconds, 0.0);
  EXPECT_GT(b.recover_seconds, 0.0);
  EXPECT_GT(b.check_env_seconds, 0.0);
  EXPECT_GT(b.verify_seconds, 0.0);
  EXPECT_NEAR(b.TotalSeconds(),
              b.load_seconds + b.recover_seconds + b.check_env_seconds +
                  b.verify_seconds,
              1e-12);
}

// Remote stores answer the meter's own stats query over the simulated
// link; that charge belongs to no operation, so a meter that measured
// nothing reads no virtual seconds.
TEST(CostMeterTest, ExcludesItsOwnStatsQuery) {
  simnet::Network network(simnet::Link{1e9, /*latency_seconds=*/1.0});
  filestore::InMemoryFileStore file_backend;
  docstore::InMemoryDocumentStore doc_backend;
  filestore::RemoteFileStore files(&file_backend, &network);
  docstore::RemoteDocumentStore docs(&doc_backend, &network);
  const StorageBackends backends{&docs, &files, &network};
  const CostMeter meter(backends);
  EXPECT_LT(meter.ElapsedSeconds(), 0.5);
  EXPECT_EQ(meter.StoredBytesDelta(), 0);
}

}  // namespace
}  // namespace mmlib::core
