#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/adaptive.h"
#include "core/baseline.h"
#include "core/checkpoint.h"
#include "core/model_code.h"
#include "core/param_update.h"
#include "core/probe.h"
#include "core/provenance.h"
#include "core/recover.h"
#include "core/save_service.h"
#include "core/train_service.h"
#include "dist/flow.h"
#include "docstore/document_store.h"
#include "env/environment.h"
#include "filestore/file_store.h"
#include "models/zoo.h"
#include "repl/replicated_store.h"
#include "simnet/retry.h"
#include "tensor/tensor.h"
#include "util/crash_point.h"
#include "util/fs.h"
#include "persist/journal.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace mmlib {
namespace {

using simnet::Space;

/// Overridable from the environment so CI can sweep several schedules over
/// the same assertions (MMLIB_FAULT_SEED=1 ctest -R crash_recovery ...).
uint64_t FaultSeed() {
  const char* env = std::getenv("MMLIB_FAULT_SEED");
  if (env != nullptr && *env != '\0') {
    return std::strtoull(env, nullptr, 10);
  }
  return 0x5eedfa17;
}

std::string FreshRoot(const std::string& tag) {
  const std::string root = ::testing::TempDir() + "/crash-" + tag;
  std::filesystem::remove_all(root);
  return root;
}

models::ModelConfig TinyConfig() {
  models::ModelConfig config =
      models::DefaultConfig(models::Architecture::kMobileNetV2);
  config.channel_divisor = 8;
  config.image_size = 28;
  config.num_classes = 10;
  return config;
}

core::TrainConfig TinyTrainConfig() {
  core::TrainConfig config;
  config.epochs = 1;
  config.max_batches_per_epoch = 1;
  config.seed = 77 ^ FaultSeed();
  // The suite sweeps MMLIB_FAULT_SEED, which perturbs the training seed
  // above; a conservative learning rate keeps momentum SGD on the tiny
  // model finite for every seed in the CI sweep.
  config.sgd.learning_rate = 0.002f;
  config.loader.batch_size = 4;
  config.loader.image_size = 28;
  config.loader.num_classes = 10;
  config.loader.seed = config.seed;
  return config;
}

// ---------------------------------------------------------------------------
// Crash-point registry semantics
// ---------------------------------------------------------------------------

TEST(CrashPointTest, FiresOnceAtTheArmedHitThenDisarms) {
  ASSERT_TRUE(util::CrashPoint::Register("test.site"));
  util::CrashPoint::Arm("test.site", /*fire_on_hit=*/3);
  EXPECT_FALSE(util::CrashPoint::Fires("test.site"));
  EXPECT_FALSE(util::CrashPoint::Fires("other.site"));
  EXPECT_FALSE(util::CrashPoint::Fires("test.site"));
  EXPECT_TRUE(util::CrashPoint::Fires("test.site"));
  EXPECT_TRUE(util::CrashPoint::crash_in_progress());
  // Self-disarmed: the unwound/reopened process runs crash-free.
  EXPECT_FALSE(util::CrashPoint::Fires("test.site"));
  util::CrashPoint::ResetAfterCrash();
  EXPECT_FALSE(util::CrashPoint::crash_in_progress());

  const std::vector<std::string> sites = util::CrashPoint::RegisteredSites();
  EXPECT_NE(std::find(sites.begin(), sites.end(), "test.site"), sites.end());
}

TEST(CrashPointTest, MacroThrowsAndCarriesTheSiteName) {
  util::CrashPoint::Arm("test.macro");
  bool crashed = false;
  try {
    MMLIB_CRASH_POINT("test.macro");
  } catch (const util::CrashException& e) {
    crashed = true;
    EXPECT_EQ(e.site(), "test.macro");
  }
  EXPECT_TRUE(crashed);
  util::CrashPoint::ResetAfterCrash();
}

// ---------------------------------------------------------------------------
// Durability barrier (satellite: SyncDir + no-op switch)
// ---------------------------------------------------------------------------

TEST(SyncDirTest, BarrierWorksAndCanBeDisabled) {
  const std::string root = FreshRoot("syncdir");
  std::filesystem::create_directories(root);
  EXPECT_TRUE(util::SyncDir(root).ok());
  EXPECT_EQ(util::SyncDir(root + "/missing").code(), StatusCode::kIoError);

  ASSERT_TRUE(util::sync_durability_enabled());
  util::set_sync_durability_enabled(false);
  EXPECT_TRUE(util::SyncDir(root + "/missing").ok());  // no-op mode
  const std::string path = root + "/file.bin";
  const Bytes payload(32, 9);
  EXPECT_TRUE(util::AtomicWriteFile(path, payload.data(), payload.size()).ok());
  util::set_sync_durability_enabled(true);
  EXPECT_TRUE(std::filesystem::exists(path));
}

// ---------------------------------------------------------------------------
// Save journal
// ---------------------------------------------------------------------------

TEST(SaveJournalTest, UncommittedRecordSurvivesReopenAndReplaysUndo) {
  const std::string root = FreshRoot("journal-replay");
  std::string txn_id;
  {
    auto journal = persist::SaveJournal::Open(root).value();
    txn_id = journal->Begin().value();
    ASSERT_TRUE(journal
                    ->AppendOp(txn_id, {persist::kJournalFileStore, "", "f-1"})
                    .ok());
    ASSERT_TRUE(journal
                    ->AppendOp(txn_id,
                               {persist::kJournalDocStore, "models", "d-1"})
                    .ok());
    // No Close: the process "dies" with the transaction open.
  }
  auto journal = persist::SaveJournal::Open(root).value();
  EXPECT_EQ(journal->PendingRecordCount(), 1u);

  std::vector<std::string> undone;
  ASSERT_TRUE(journal
                  ->Replay(persist::kJournalFileStore,
                           [&](const persist::JournalOp& op) {
                             undone.push_back(op.id);
                             return Status::OK();
                           })
                  .ok());
  EXPECT_EQ(undone, std::vector<std::string>{"f-1"});
  EXPECT_EQ(journal->PendingRecordCount(), 1u);  // doc op still unresolved
  ASSERT_TRUE(journal
                  ->Replay(persist::kJournalDocStore,
                           [&](const persist::JournalOp& op) {
                             EXPECT_EQ(op.collection, "models");
                             undone.push_back(op.id);
                             return Status::NotFound("already gone");
                           })
                  .ok());
  EXPECT_EQ(journal->PendingRecordCount(), 0u);
  EXPECT_EQ(undone.size(), 2u);

  // Idempotent: a second replay finds nothing to do.
  ASSERT_TRUE(journal
                  ->Replay(persist::kJournalFileStore,
                           [&](const persist::JournalOp&) {
                             ADD_FAILURE() << "unexpected undo";
                             return Status::OK();
                           })
                  .ok());
}

TEST(SaveJournalTest, CommittedRecordKeepsWritesOnReplay) {
  const std::string root = FreshRoot("journal-commit");
  {
    auto journal = persist::SaveJournal::Open(root).value();
    const std::string txn_id = journal->Begin().value();
    ASSERT_TRUE(journal
                    ->AppendOp(txn_id, {persist::kJournalFileStore, "", "f-1"})
                    .ok());
    ASSERT_TRUE(journal->MarkCommitted(txn_id).ok());
  }
  auto journal = persist::SaveJournal::Open(root).value();
  EXPECT_EQ(journal->PendingRecordCount(), 1u);
  ASSERT_TRUE(journal
                  ->Replay(persist::kJournalFileStore,
                           [&](const persist::JournalOp&) {
                             ADD_FAILURE() << "committed op undone";
                             return Status::OK();
                           })
                  .ok());
  EXPECT_EQ(journal->PendingRecordCount(), 0u);
}

// ---------------------------------------------------------------------------
// Crash matrix: every registered crash site x every save service
// ---------------------------------------------------------------------------

/// Journal + persistent stores opened from one root, replaying on open.
struct PersistentBacking {
  std::unique_ptr<persist::SaveJournal> journal;
  std::unique_ptr<filestore::LocalDirFileStore> files;
  std::unique_ptr<docstore::PersistentDocumentStore> docs;
  core::StorageBackends backends;

  void Reset() {
    docs.reset();
    files.reset();
    journal.reset();
  }
};

void OpenBacking(const std::string& root, PersistentBacking* out) {
  auto journal = persist::SaveJournal::Open(root + "/journal");
  ASSERT_TRUE(journal.ok()) << journal.status();
  out->journal = std::move(journal).value();
  auto files =
      filestore::LocalDirFileStore::Open(root + "/files", out->journal.get());
  ASSERT_TRUE(files.ok()) << files.status();
  out->files = std::move(files).value();
  auto docs = docstore::PersistentDocumentStore::Open(root + "/docs",
                                                      out->journal.get());
  ASSERT_TRUE(docs.ok()) << docs.status();
  out->docs = std::move(docs).value();
  out->backends = core::StorageBackends{out->docs.get(), out->files.get(),
                                        nullptr, nullptr, out->journal.get()};
}

std::unique_ptr<core::SaveService> MakeSaveService(
    dist::ApproachKind kind, const core::StorageBackends& backends) {
  switch (kind) {
    case dist::ApproachKind::kBaseline:
      return std::make_unique<core::BaselineSaveService>(backends);
    case dist::ApproachKind::kParamUpdate:
      return std::make_unique<core::ParamUpdateSaveService>(backends);
    case dist::ApproachKind::kProvenance:
      return std::make_unique<core::ProvenanceSaveService>(
          backends, core::ProvenanceOptions{});
    case dist::ApproachKind::kAdaptive:
      return std::make_unique<core::AdaptiveSaveService>(backends);
  }
  return nullptr;
}

/// Shared fixtures of one matrix run: the initial model, the derived model
/// (deterministically trained from it), and the save requests' static parts.
struct MatrixScenario {
  models::ModelConfig model_config = TinyConfig();
  core::TrainConfig train_config = TinyTrainConfig();
  std::unique_ptr<data::SyntheticImageDataset> dataset;
  env::EnvironmentInfo environment;
  json::Value code;

  MatrixScenario() {
    dataset = std::make_unique<data::SyntheticImageDataset>(
        data::PaperDatasetId::kCocoOutdoor512, 4096);
    environment = env::CollectEnvironment();
    code = core::CodeDescriptorFor(model_config);
  }
};

/// Saves model A, trains model B from it, saves B (base = A, with
/// provenance). Returns B's save status; fills the ids/hashes produced up to
/// the point of failure. Crash exceptions propagate to the caller.
struct TwoSaveOutcome {
  std::string id_a;
  Digest hash_a;
  Digest hash_b;
  Status save_b_status = Status::Internal("not attempted");
};

void SaveModelA(const MatrixScenario& scenario, core::SaveService* service,
                TwoSaveOutcome* out) {
  nn::Model model_a = models::BuildModel(scenario.model_config).value();
  core::SaveRequest request;
  request.model = &model_a;
  request.code = scenario.code;
  request.environment = &scenario.environment;
  auto save = service->SaveModel(request);
  ASSERT_TRUE(save.ok()) << save.status();
  out->id_a = save->model_id;
  out->hash_a = model_a.ParamsHash();
}

/// Derives B and attempts its save with the currently armed crash plan.
void SaveModelB(const MatrixScenario& scenario, core::SaveService* service,
                TwoSaveOutcome* out) {
  nn::Model model_a = models::BuildModel(scenario.model_config).value();
  nn::Model model_b = models::BuildModel(scenario.model_config).value();
  ASSERT_TRUE(model_b.LoadParams(model_a.SerializeParams()).ok());
  core::ImageTrainService trainer(scenario.dataset.get(),
                                  scenario.train_config);
  auto provenance = trainer.CaptureProvenance();
  ASSERT_TRUE(provenance.ok()) << provenance.status();
  ASSERT_TRUE(trainer.Train(&model_b, /*deterministic=*/true, 0).ok());
  out->hash_b = model_b.ParamsHash();

  core::SaveRequest request;
  request.model = &model_b;
  request.code = scenario.code;
  request.environment = &scenario.environment;
  request.base_model_id = out->id_a;
  request.provenance = &provenance.value();
  out->save_b_status = service->SaveModel(request).status();
}

void RunCrashMatrix(dist::ApproachKind kind) {
  const std::string tag(ApproachName(kind));
  MatrixScenario scenario;

  // Discovery pass: a clean two-save run registers every crash site on the
  // save path and records the consistent one-model and two-model store
  // shapes every post-crash state must match.
  size_t one_files = 0, one_docs = 0, two_files = 0, two_docs = 0;
  {
    const std::string root = FreshRoot(tag + "-discover");
    PersistentBacking backing;
    OpenBacking(root, &backing);
    auto service = MakeSaveService(kind, backing.backends);
    TwoSaveOutcome outcome;
    SaveModelA(scenario, service.get(), &outcome);
    one_files = backing.files->FileCount();
    one_docs = backing.docs->DocumentCount();
    SaveModelB(scenario, service.get(), &outcome);
    ASSERT_TRUE(outcome.save_b_status.ok()) << outcome.save_b_status;
    two_files = backing.files->FileCount();
    two_docs = backing.docs->DocumentCount();
    ASSERT_GT(two_files, one_files);
    ASSERT_EQ(backing.journal->PendingRecordCount(), 0u);
  }

  const std::vector<std::string> sites = util::CrashPoint::RegisteredSites();
  ASSERT_GE(sites.size(), 10u) << "crash sites missing from the registry";
  int fired = 0;
  for (const std::string& site : sites) {
    SCOPED_TRACE("service=" + tag + " site=" + site);
    const std::string root = FreshRoot(tag + "-" + site);
    PersistentBacking backing;
    OpenBacking(root, &backing);
    auto service = MakeSaveService(kind, backing.backends);
    TwoSaveOutcome outcome;
    SaveModelA(scenario, service.get(), &outcome);
    ASSERT_EQ(backing.files->FileCount(), one_files);
    ASSERT_EQ(backing.docs->DocumentCount(), one_docs);

    util::CrashPoint::Arm(site);
    bool crashed = false;
    try {
      SaveModelB(scenario, service.get(), &outcome);
    } catch (const util::CrashException& e) {
      crashed = true;
      EXPECT_EQ(e.site(), site);
    }
    if (!crashed) {
      // Sites registered by other code paths (training, replay) never fire
      // during a save; the save must then have completed normally.
      util::CrashPoint::Disarm();
      ASSERT_TRUE(outcome.save_b_status.ok()) << outcome.save_b_status;
      EXPECT_EQ(backing.files->FileCount(), two_files);
      EXPECT_EQ(backing.docs->DocumentCount(), two_docs);
      continue;
    }
    ++fired;
    util::CrashPoint::ResetAfterCrash();

    // Kill the "process": every in-memory handle is gone; reopen cold.
    service.reset();
    backing.Reset();
    PersistentBacking reopened;
    OpenBacking(root, &reopened);

    // Recovery resolved every journal record and left no half-written
    // temporaries anywhere under the root.
    EXPECT_EQ(reopened.journal->PendingRecordCount(), 0u);
    EXPECT_EQ(util::CountFilesWithSuffix(root, ".tmp", /*recursive=*/true),
              0u);

    // Atomicity: the store holds exactly one model (save B never happened)
    // or exactly two (the crash hit after B's durable commit) — never a
    // partial save.
    const size_t files_now = reopened.files->FileCount();
    const size_t docs_now = reopened.docs->DocumentCount();
    const bool rolled_back = files_now == one_files && docs_now == one_docs;
    const bool completed = files_now == two_files && docs_now == two_docs;
    EXPECT_TRUE(rolled_back || completed)
        << "inconsistent store: " << files_now << " files (clean: "
        << one_files << " or " << two_files << "), " << docs_now
        << " docs (clean: " << one_docs << " or " << two_docs << ")";

    // Model A stays loadable and bit-identical in every outcome.
    core::ModelRecoverer recoverer(reopened.backends);
    auto recovered_a = recoverer.Recover(outcome.id_a, core::RecoverOptions{});
    ASSERT_TRUE(recovered_a.ok()) << recovered_a.status();
    EXPECT_EQ(recovered_a->model.ParamsHash(), outcome.hash_a);

    if (completed) {
      // The commit was durable, so B must be fully recoverable too.
      auto ids = reopened.docs->ListIds(core::kModelsCollection);
      ASSERT_TRUE(ids.ok()) << ids.status();
      std::string id_b;
      for (const std::string& id : ids.value()) {
        if (id != outcome.id_a) {
          id_b = id;
        }
      }
      ASSERT_FALSE(id_b.empty());
      auto recovered_b = recoverer.Recover(id_b, core::RecoverOptions{});
      ASSERT_TRUE(recovered_b.ok()) << recovered_b.status();
      EXPECT_EQ(recovered_b->model.ParamsHash(), outcome.hash_b);
    }
  }
  EXPECT_GE(fired, 8) << "the matrix exercised too few crash sites";
}

class CrashMatrixTest : public ::testing::TestWithParam<dist::ApproachKind> {};

TEST_P(CrashMatrixTest, KillAtEveryRegisteredSiteLeavesStoreConsistent) {
  RunCrashMatrix(GetParam());
}

INSTANTIATE_TEST_SUITE_P(
    AllSaveServices, CrashMatrixTest,
    ::testing::Values(dist::ApproachKind::kBaseline,
                      dist::ApproachKind::kParamUpdate,
                      dist::ApproachKind::kProvenance,
                      dist::ApproachKind::kAdaptive),
    [](const ::testing::TestParamInfo<dist::ApproachKind>& info) {
      return std::string(ApproachName(info.param));
    });

// ---------------------------------------------------------------------------
// Crash during recovery itself
// ---------------------------------------------------------------------------

TEST(ReplayCrashTest, CrashDuringReplayIsRecoveredByTheNextReplay) {
  MatrixScenario scenario;
  const std::string root = FreshRoot("replay-crash");
  TwoSaveOutcome outcome;
  size_t one_files = 0;
  {
    PersistentBacking backing;
    OpenBacking(root, &backing);
    auto service =
        MakeSaveService(dist::ApproachKind::kBaseline, backing.backends);
    SaveModelA(scenario, service.get(), &outcome);
    one_files = backing.files->FileCount();

    // First crash: mid-save, after at least one journaled file write.
    util::CrashPoint::Arm("savetxn.file.written");
    bool crashed = false;
    try {
      SaveModelB(scenario, service.get(), &outcome);
    } catch (const util::CrashException&) {
      crashed = true;
    }
    ASSERT_TRUE(crashed);
    util::CrashPoint::ResetAfterCrash();
    service.reset();
    backing.Reset();
  }

  // Second crash: the restarted process dies *inside* replay.
  {
    auto journal = persist::SaveJournal::Open(root + "/journal").value();
    ASSERT_EQ(journal->PendingRecordCount(), 1u);
    util::CrashPoint::Arm("journal.replay.op");
    bool crashed = false;
    try {
      auto files = filestore::LocalDirFileStore::Open(root + "/files",
                                                      journal.get());
      (void)files;
    } catch (const util::CrashException&) {
      crashed = true;
    }
    ASSERT_TRUE(crashed) << "replay had no pending op to crash in";
    util::CrashPoint::ResetAfterCrash();
  }

  // Third start: recovery is idempotent, the store converges anyway.
  PersistentBacking reopened;
  OpenBacking(root, &reopened);
  EXPECT_EQ(reopened.journal->PendingRecordCount(), 0u);
  EXPECT_EQ(util::CountFilesWithSuffix(root, ".tmp", /*recursive=*/true), 0u);
  EXPECT_EQ(reopened.files->FileCount(), one_files);
  core::ModelRecoverer recoverer(reopened.backends);
  auto recovered = recoverer.Recover(outcome.id_a, core::RecoverOptions{});
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  EXPECT_EQ(recovered->model.ParamsHash(), outcome.hash_a);
}

// ---------------------------------------------------------------------------
// Training checkpoints: interrupted + resumed == uninterrupted, bitwise
// ---------------------------------------------------------------------------

class TrainCheckpointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    config_ = TinyTrainConfig();
    config_.epochs = 2;
    config_.max_batches_per_epoch = 2;  // 4 optimizer steps total
    config_.sgd.momentum = 0.9f;        // momentum state must round-trip
    config_.lr_decay_gamma = 0.5;       // schedule must survive resume
    dataset_ = std::make_unique<data::SyntheticImageDataset>(
        data::PaperDatasetId::kCocoOutdoor512, 4096);
  }

  nn::Model FreshModel() {
    models::ModelConfig config = TinyConfig();
    config.init_seed = 1;
    return models::BuildModel(config).value();
  }

  /// In-memory checkpoint store for one training run.
  struct CheckpointBacking {
    docstore::InMemoryDocumentStore docs;
    filestore::InMemoryFileStore files;
    core::StorageBackends backends{&docs, &files, nullptr, nullptr};
    core::CheckpointManager manager;
    explicit CheckpointBacking(int64_t every_steps)
        : manager(backends, every_steps) {}
  };

  /// Uninterrupted reference run; returns the final model.
  nn::Model RunReference(CheckpointBacking* backing,
                         util::ThreadPool* pool = nullptr) {
    nn::Model model = FreshModel();
    reference_service_ =
        std::make_unique<core::ImageTrainService>(dataset_.get(), config_);
    reference_service_->set_checkpoints(&backing->manager, "run");
    if (pool != nullptr) {
      reference_service_->set_thread_pool(pool);
    }
    EXPECT_TRUE(reference_service_->Train(&model, true, 0).ok());
    return model;
  }

  /// Kills training at optimizer step `at_step`, restarts cold, resumes.
  nn::Model RunCrashAndResume(CheckpointBacking* backing, uint64_t at_step,
                              util::ThreadPool* pool = nullptr) {
    nn::Model model = FreshModel();
    {
      core::ImageTrainService service(dataset_.get(), config_);
      service.set_checkpoints(&backing->manager, "run");
      if (pool != nullptr) {
        service.set_thread_pool(pool);
      }
      util::CrashPoint::Arm("train.step", at_step);
      bool crashed = false;
      try {
        EXPECT_TRUE(service.Train(&model, true, 0).ok());
      } catch (const util::CrashException&) {
        crashed = true;
      }
      EXPECT_TRUE(crashed) << "training finished before step " << at_step;
      util::CrashPoint::ResetAfterCrash();
    }
    // Cold restart: fresh service, fresh model object — everything the
    // crashed process held in memory is gone.
    nn::Model restarted = FreshModel();
    resumed_service_ =
        std::make_unique<core::ImageTrainService>(dataset_.get(), config_);
    resumed_service_->set_checkpoints(&backing->manager, "run");
    if (pool != nullptr) {
      resumed_service_->set_thread_pool(pool);
    }
    EXPECT_TRUE(resumed_service_->Resume(&restarted).ok());
    return restarted;
  }

  core::TrainConfig config_;
  std::unique_ptr<data::SyntheticImageDataset> dataset_;
  std::unique_ptr<core::ImageTrainService> reference_service_;
  std::unique_ptr<core::ImageTrainService> resumed_service_;
};

TEST_F(TrainCheckpointTest, ResumeIsBitIdenticalToUninterruptedRun) {
  CheckpointBacking reference_backing(/*every_steps=*/2);
  CheckpointBacking crash_backing(/*every_steps=*/2);
  nn::Model reference = RunReference(&reference_backing);
  // Kill at step 3: steps 1-2 completed, checkpoint at step 2 is the latest.
  nn::Model resumed = RunCrashAndResume(&crash_backing, /*at_step=*/3);

  EXPECT_EQ(resumed_service_->resumed_from_step(), 2);
  EXPECT_EQ(reference.SerializeParams(), resumed.SerializeParams());
  EXPECT_EQ(reference_service_->SerializedOptimizerState(),
            resumed_service_->SerializedOptimizerState());
  EXPECT_EQ(reference_service_->last_loss(), resumed_service_->last_loss());
  // Checkpoint-count invariance: crash + resume writes exactly the
  // checkpoints the uninterrupted run writes (step 0, 2, 4).
  EXPECT_EQ(reference_backing.manager.checkpoints_written(), 3u);
  EXPECT_EQ(crash_backing.manager.checkpoints_written(), 3u);

  // The resumed model's forward/backward trace replays the reference
  // bit for bit (per-layer digests).
  Rng rng(11);
  const data::Batch batch{
      Tensor::Uniform(
          Shape{2, 3, config_.loader.image_size, config_.loader.image_size},
          -1.0f, 1.0f, &rng),
      {0, 1}};
  std::vector<core::LayerTrace> traces;
  for (nn::Model* model : {&reference, &resumed}) {
    nn::ExecutionContext ctx = nn::ExecutionContext::Deterministic(5);
    ctx.set_training(true);
    auto trace = core::ProbeModel(model, batch, &ctx);
    ASSERT_TRUE(trace.ok()) << trace.status();
    traces.push_back(std::move(trace).value());
  }
  const core::TraceComparison comparison =
      core::CompareTraces(traces[0], traces[1]);
  EXPECT_TRUE(comparison.equal) << comparison.FirstDivergence();
}

TEST_F(TrainCheckpointTest, ResumeIsBitIdenticalAcrossPoolSizes) {
  // Uninterrupted at pool size 1 vs crash+resume at pool size 8: the
  // deterministic-chunking contract extends through checkpoint recovery.
  util::ThreadPool pool1(1);
  util::ThreadPool pool8(8);
  CheckpointBacking reference_backing(/*every_steps=*/1);
  CheckpointBacking crash_backing(/*every_steps=*/1);
  nn::Model reference = RunReference(&reference_backing, &pool1);
  nn::Model resumed = RunCrashAndResume(&crash_backing, /*at_step=*/2, &pool8);

  EXPECT_EQ(resumed_service_->resumed_from_step(), 1);
  EXPECT_EQ(reference.SerializeParams(), resumed.SerializeParams());
  EXPECT_EQ(reference_service_->SerializedOptimizerState(),
            resumed_service_->SerializedOptimizerState());
}

TEST_F(TrainCheckpointTest, CrashBeforeFirstPeriodicCheckpointLosesNothing) {
  CheckpointBacking reference_backing(/*every_steps=*/4);
  CheckpointBacking crash_backing(/*every_steps=*/4);
  nn::Model reference = RunReference(&reference_backing);
  // Kill at the very first step: only the step-0 checkpoint exists.
  nn::Model resumed = RunCrashAndResume(&crash_backing, /*at_step=*/1);

  EXPECT_EQ(resumed_service_->resumed_from_step(), 0);
  EXPECT_EQ(reference.SerializeParams(), resumed.SerializeParams());
}

TEST_F(TrainCheckpointTest, CheckpointWriteCrashRollsBackThenResumes) {
  // Checkpoints themselves go through the journaled transaction: a kill
  // mid-checkpoint rolls back on reopen and resume continues from the
  // previous checkpoint.
  const std::string root = FreshRoot("ckpt-journal");
  CheckpointBacking reference_backing(/*every_steps=*/2);
  nn::Model reference = RunReference(&reference_backing);

  nn::Model model = FreshModel();
  {
    PersistentBacking backing;
    OpenBacking(root, &backing);
    core::CheckpointManager manager(backing.backends, /*every_steps=*/2);
    core::ImageTrainService service(dataset_.get(), config_);
    service.set_checkpoints(&manager, "run");
    // Hit 1 is the step-0 checkpoint; crash inside the second write.
    util::CrashPoint::Arm("savetxn.file.journaled", /*fire_on_hit=*/3);
    bool crashed = false;
    try {
      EXPECT_TRUE(service.Train(&model, true, 0).ok());
    } catch (const util::CrashException&) {
      crashed = true;
    }
    ASSERT_TRUE(crashed);
    util::CrashPoint::ResetAfterCrash();
    backing.Reset();
  }

  PersistentBacking reopened;
  OpenBacking(root, &reopened);
  EXPECT_EQ(reopened.journal->PendingRecordCount(), 0u);
  core::CheckpointManager manager(reopened.backends, /*every_steps=*/2);
  nn::Model restarted = FreshModel();
  core::ImageTrainService service(dataset_.get(), config_);
  service.set_checkpoints(&manager, "run");
  ASSERT_TRUE(service.Resume(&restarted).ok());
  EXPECT_EQ(service.resumed_from_step(), 0);  // half-written ckpt rolled back
  EXPECT_EQ(reference.SerializeParams(), restarted.SerializeParams());
}

TEST_F(TrainCheckpointTest, CrashInCheckpointWriteResumesBitIdentically) {
  CheckpointBacking reference_backing(/*every_steps=*/2);
  nn::Model reference = RunReference(&reference_backing);

  // Kill inside the save of the step-2 checkpoint (hit 1 is the step-0
  // save): training dies with its checkpoint half written.
  CheckpointBacking crash_backing(/*every_steps=*/2);
  nn::Model model = FreshModel();
  {
    core::ImageTrainService service(dataset_.get(), config_);
    service.set_checkpoints(&crash_backing.manager, "run");
    util::CrashPoint::Arm("checkpoint.write", /*fire_on_hit=*/2);
    bool crashed = false;
    try {
      EXPECT_TRUE(service.Train(&model, true, 0).ok());
    } catch (const util::CrashException& e) {
      crashed = true;
      EXPECT_EQ(e.site(), "checkpoint.write");
    }
    ASSERT_TRUE(crashed);
    util::CrashPoint::ResetAfterCrash();
  }
  // The interrupted save never committed: only step 0 is durable.
  EXPECT_EQ(crash_backing.manager.checkpoints_written(), 1u);

  nn::Model restarted = FreshModel();
  resumed_service_ =
      std::make_unique<core::ImageTrainService>(dataset_.get(), config_);
  resumed_service_->set_checkpoints(&crash_backing.manager, "run");
  ASSERT_TRUE(resumed_service_->Resume(&restarted).ok());
  EXPECT_EQ(resumed_service_->resumed_from_step(), 0);
  EXPECT_EQ(reference.SerializeParams(), restarted.SerializeParams());
  EXPECT_EQ(reference_service_->SerializedOptimizerState(),
            resumed_service_->SerializedOptimizerState());
  // Crash + resume converges on the reference checkpoint count (0, 2, 4).
  EXPECT_EQ(crash_backing.manager.checkpoints_written(), 3u);
}

TEST(CheckpointManagerTest, LoadLatestRestoresHighestCommittedStep) {
  docstore::InMemoryDocumentStore docs;
  filestore::InMemoryFileStore files;
  core::StorageBackends backends{&docs, &files, nullptr, nullptr};
  core::CheckpointManager manager(backends, /*every_steps=*/1);

  auto make = [](int64_t step) {
    core::TrainCheckpoint checkpoint;
    checkpoint.run_id = "run";
    checkpoint.step = step;
    checkpoint.epoch = step / 2;
    checkpoint.model_params = Bytes(16, static_cast<uint8_t>(step));
    checkpoint.optimizer_state = Bytes(8, static_cast<uint8_t>(step + 1));
    return checkpoint;
  };
  ASSERT_TRUE(manager.Write(make(0)).ok());
  ASSERT_TRUE(manager.Write(make(4)).ok());
  // A kill mid-prune leaves a stale lower-step checkpoint behind. Inserted
  // after the step-4 write, it is the latest insert: the latest *step* must
  // still win.
  auto stale_params = files.SaveFile(make(2).model_params);
  auto stale_state = files.SaveFile(make(2).optimizer_state);
  ASSERT_TRUE(stale_params.ok() && stale_state.ok());
  json::Value stale = json::Value::MakeObject();
  stale.Set("kind", "checkpoint");
  stale.Set("run_id", "run");
  stale.Set("step", int64_t{2});
  stale.Set("params_file", *stale_params);
  stale.Set("state_file", *stale_state);
  ASSERT_TRUE(docs.Insert(core::kCheckpointsCollection, std::move(stale)).ok());

  core::TrainCheckpoint loaded;
  auto found = manager.LoadLatest("run", &loaded);
  ASSERT_TRUE(found.ok()) << found.status();
  ASSERT_TRUE(found.value());
  EXPECT_EQ(loaded.step, 4);
  EXPECT_EQ(loaded.model_params, make(4).model_params);
  EXPECT_EQ(loaded.optimizer_state, make(4).optimizer_state);

  // The next write prunes the stale checkpoint along with its predecessor.
  ASSERT_TRUE(manager.Write(make(5)).ok());
  auto remaining =
      docs.FindByField(core::kCheckpointsCollection, "run_id", "run");
  ASSERT_TRUE(remaining.ok()) << remaining.status();
  EXPECT_EQ(remaining->size(), 1u);
  EXPECT_EQ(files.FileCount(), 2u);

  core::TrainCheckpoint missing;
  auto none = manager.LoadLatest("other-run", &missing);
  ASSERT_TRUE(none.ok()) << none.status();
  EXPECT_FALSE(none.value());
}

TEST(CheckpointManagerTest, ComputeIsChargedWhenReported) {
  // Identical Write sequences against a simulated storage link, with and
  // without ChargeCompute(c) after each Write. Reported compute is on the
  // clock as soon as ChargeCompute returns, so after round r the clock
  // reads the transfer time so far plus r * c.
  constexpr int kRounds = 4;
  constexpr double kCompute = 0.005;
  auto run = [](double compute) -> std::vector<double> {
    docstore::InMemoryDocumentStore docs_raw;
    filestore::InMemoryFileStore files_raw;
    simnet::Network network{simnet::Link{300e6, 0.2e-3}};
    docstore::RemoteDocumentStore docs{&docs_raw, &network};
    filestore::RemoteFileStore files{&files_raw, &network};
    core::StorageBackends backends{&docs, &files, &network};
    core::CheckpointManager manager(backends, /*every_steps=*/1);
    core::TrainCheckpoint checkpoint;
    checkpoint.run_id = "run";
    checkpoint.model_params = Bytes(3 << 20, 7);  // ~10 ms on the link
    std::vector<double> clock;
    for (int64_t step = 0; step < kRounds; ++step) {
      checkpoint.step = step;
      EXPECT_TRUE(manager.Write(checkpoint).ok());
      manager.ChargeCompute(compute);
      clock.push_back(network.TotalTransferSeconds());
    }
    return clock;
  };

  const std::vector<double> transfer = run(0.0);
  const std::vector<double> charged = run(kCompute);
  ASSERT_EQ(transfer.size(), static_cast<size_t>(kRounds));
  ASSERT_EQ(charged.size(), static_cast<size_t>(kRounds));
  EXPECT_GT(transfer[0], 0.0);
  for (int r = 0; r < kRounds; ++r) {
    EXPECT_NEAR(charged[r], transfer[r] + (r + 1) * kCompute, 1e-12)
        << "round " << r;
  }
}

// ---------------------------------------------------------------------------
// Node crash/restart in the evaluation flow
// ---------------------------------------------------------------------------

TEST(FlowCrashTest, CrashScheduleLandsBitIdenticalWithCountedRecovery) {
  dist::FlowConfig config;
  config.approach = dist::ApproachKind::kBaseline;
  config.model = TinyConfig();
  config.num_nodes = 2;
  config.u3_iterations = 2;
  config.dataset_divisor = 4096;
  config.training_mode = dist::TrainingMode::kReal;
  config.recover_models = false;
  config.train = TinyTrainConfig();
  config.train.epochs = 1;
  config.train.max_batches_per_epoch = 3;  // 3 optimizer steps per update
  config.train.sgd.momentum = 0.9f;
  // The flow chains ~5 momentum-SGD updates through the same model, so it
  // tolerates far less learning rate than the single-update matrix before
  // some content seeds in the CI sweep blow up to NaN.
  config.train.sgd.learning_rate = 2e-4f;
  config.checkpoint_every_steps = 2;

  auto run = [&](bool with_crash, docstore::InMemoryDocumentStore* docs,
                 filestore::InMemoryFileStore* files,
                 simnet::Network* network) -> dist::FlowResult {
    dist::FlowConfig run_config = config;
    if (with_crash) {
      // Kill node 0 in phase 2, iteration 1, at step 2: one step done,
      // resume from the step-0 checkpoint, one step retrained.
      run_config.crash_schedule.push_back(
          dist::NodeCrashEvent{/*phase=*/2, /*iteration=*/1, /*node=*/0,
                               /*at_step=*/2});
    }
    core::StorageBackends backends{docs, files, network, nullptr};
    dist::EvaluationFlow flow(run_config, backends);
    auto result = flow.Run();
    EXPECT_TRUE(result.ok()) << result.status();
    return std::move(result).value();
  };

  docstore::InMemoryDocumentStore clean_docs, crash_docs;
  filestore::InMemoryFileStore clean_files, crash_files;
  simnet::Network crash_network;
  const dist::FlowResult clean =
      run(false, &clean_docs, &clean_files, nullptr);
  const dist::FlowResult crashed =
      run(true, &crash_docs, &crash_files, &crash_network);

  // Counters: exactly one crash/restart on node 0, nothing on node 1.
  ASSERT_EQ(crashed.node_counters.size(), 2u);
  EXPECT_EQ(crashed.node_counters[0].crashes, 1u);
  EXPECT_EQ(crashed.node_counters[0].restarts, 1u);
  EXPECT_EQ(crashed.node_counters[0].retrained_steps, 1u);
  EXPECT_EQ(crashed.node_counters[1].crashes, 0u);
  EXPECT_EQ(crashed.TotalCrashes(), 1u);
  EXPECT_EQ(crashed.TotalRestarts(), 1u);
  EXPECT_EQ(crashed.TotalRetrainedSteps(), 1u);
  EXPECT_EQ(clean.TotalCrashes(), 0u);
  // The simulated cluster observed the outage and charged its cost.
  const simnet::MemberCounters node0 =
      crash_network.Counters(Space::kNode, 0).value();
  EXPECT_EQ(node0.crashes, 1u);
  EXPECT_EQ(node0.restarts, 1u);
  EXPECT_EQ(crash_network.Counters(Space::kNode, 1).value().crashes, 0u);
  EXPECT_TRUE(crash_network.IsUp(Space::kNode, 0));
  EXPECT_GT(crash_network.TotalTransferSeconds(), 0.0);

  // Crash + resume leaves the stores bit-identical to the crash-free run:
  // same records, same artifact counts, and the same final models.
  ASSERT_EQ(crashed.records.size(), clean.records.size());
  EXPECT_EQ(crash_files.FileCount(), clean_files.FileCount());
  EXPECT_EQ(crash_docs.DocumentCount(), clean_docs.DocumentCount());
  EXPECT_EQ(crash_files.TotalStoredBytes(), clean_files.TotalStoredBytes());
  for (size_t i = 0; i < clean.records.size(); ++i) {
    EXPECT_EQ(crashed.records[i].label, clean.records[i].label);
    EXPECT_EQ(crashed.records[i].storage_bytes,
              clean.records[i].storage_bytes)
        << clean.records[i].label;
  }
  core::StorageBackends clean_backends{&clean_docs, &clean_files, nullptr};
  core::StorageBackends crash_backends{&crash_docs, &crash_files, nullptr};
  core::ModelRecoverer clean_recoverer(clean_backends);
  core::ModelRecoverer crash_recoverer(crash_backends);
  for (size_t i = 0; i < clean.records.size(); ++i) {
    auto a = clean_recoverer.Recover(clean.records[i].model_id,
                                     core::RecoverOptions{});
    auto b = crash_recoverer.Recover(crashed.records[i].model_id,
                                     core::RecoverOptions{});
    ASSERT_TRUE(a.ok()) << a.status();
    ASSERT_TRUE(b.ok()) << b.status();
    EXPECT_EQ(a->model.ParamsHash(), b->model.ParamsHash())
        << clean.records[i].label;
  }
}

TEST(FlowCrashTest, RetrainedStepsFollowCheckpointInterval) {
  // One node, one 8-step update per phase, killed at the top of step 8 of
  // the first update (7 steps done). The node resumes from the highest
  // checkpoint step <= 7, so the checkpoint interval K pins exactly how
  // much work the crash destroys: 7 - K * floor(7 / K).
  dist::FlowConfig config;
  config.approach = dist::ApproachKind::kBaseline;
  config.model = TinyConfig();
  config.num_nodes = 1;
  config.u3_iterations = 1;
  config.dataset_divisor = 4096;
  config.training_mode = dist::TrainingMode::kReal;
  config.recover_models = false;
  config.train = TinyTrainConfig();
  config.train.epochs = 2;
  config.train.max_batches_per_epoch = 4;  // 8 optimizer steps per update
  config.train.sgd.momentum = 0.9f;
  config.train.sgd.learning_rate = 2e-4f;
  config.crash_schedule.push_back(
      dist::NodeCrashEvent{/*phase=*/1, /*iteration=*/1, /*node=*/0,
                           /*at_step=*/8});

  const struct {
    int64_t every_steps;
    uint64_t retrained;
  } expectations[] = {{1, 0}, {2, 1}, {4, 3}, {8, 7}};
  for (const auto& expected : expectations) {
    SCOPED_TRACE("K=" + std::to_string(expected.every_steps));
    dist::FlowConfig run_config = config;
    run_config.checkpoint_every_steps = expected.every_steps;
    docstore::InMemoryDocumentStore docs;
    filestore::InMemoryFileStore files;
    simnet::Network network;
    core::StorageBackends backends{&docs, &files, &network, nullptr};
    dist::EvaluationFlow flow(run_config, backends);
    auto result = flow.Run();
    ASSERT_TRUE(result.ok()) << result.status();
    EXPECT_EQ(result->TotalCrashes(), 1u);
    EXPECT_EQ(result->TotalRetrainedSteps(), expected.retrained);
  }
}

TEST(FlowCrashTest, CrashScheduleIsValidated) {
  dist::FlowConfig config;
  config.model = TinyConfig();
  config.dataset_divisor = 4096;
  config.crash_schedule.push_back(dist::NodeCrashEvent{});

  docstore::InMemoryDocumentStore docs;
  filestore::InMemoryFileStore files;
  core::StorageBackends backends{&docs, &files, nullptr};

  // Missing checkpoint interval.
  {
    dist::EvaluationFlow flow(config, backends);
    EXPECT_EQ(flow.Run().status().code(), StatusCode::kInvalidArgument);
  }
  // Simulated training has no steps to crash in.
  {
    dist::FlowConfig bad = config;
    bad.checkpoint_every_steps = 1;
    bad.training_mode = dist::TrainingMode::kSimulated;
    bad.recover_models = false;
    dist::EvaluationFlow flow(bad, backends);
    EXPECT_EQ(flow.Run().status().code(), StatusCode::kInvalidArgument);
  }
  // Out-of-range node.
  {
    dist::FlowConfig bad = config;
    bad.checkpoint_every_steps = 1;
    bad.crash_schedule[0].node = 7;
    dist::EvaluationFlow flow(bad, backends);
    EXPECT_EQ(flow.Run().status().code(), StatusCode::kInvalidArgument);
  }
}

/// Shared body for the crash-schedule edge cases: runs the two-node flow
/// once clean and once with `event` scheduled, then requires the crashed
/// run to land bit-identically (same records, same recovered parameter
/// hashes) with exactly one crash/restart and `expected_retrained` steps
/// redone on the crashed node.
void ExpectCrashLandsBitIdentical(const dist::NodeCrashEvent& event,
                                  uint64_t expected_retrained) {
  dist::FlowConfig config;
  config.approach = dist::ApproachKind::kBaseline;
  config.model = TinyConfig();
  config.num_nodes = 2;
  config.u3_iterations = 2;
  config.dataset_divisor = 4096;
  config.training_mode = dist::TrainingMode::kReal;
  config.recover_models = false;
  config.train = TinyTrainConfig();
  config.train.epochs = 1;
  config.train.max_batches_per_epoch = 3;  // 3 optimizer steps per update
  config.train.sgd.momentum = 0.9f;
  config.train.sgd.learning_rate = 2e-4f;
  config.checkpoint_every_steps = 2;

  auto run = [&](bool with_crash, docstore::InMemoryDocumentStore* docs,
                 filestore::InMemoryFileStore* files,
                 simnet::Network* network) -> dist::FlowResult {
    dist::FlowConfig run_config = config;
    if (with_crash) {
      run_config.crash_schedule.push_back(event);
    }
    core::StorageBackends backends{docs, files, network, nullptr};
    dist::EvaluationFlow flow(run_config, backends);
    auto result = flow.Run();
    EXPECT_TRUE(result.ok()) << result.status();
    return std::move(result).value();
  };

  docstore::InMemoryDocumentStore clean_docs, crash_docs;
  filestore::InMemoryFileStore clean_files, crash_files;
  simnet::Network crash_network;
  const dist::FlowResult clean = run(false, &clean_docs, &clean_files, nullptr);
  const dist::FlowResult crashed =
      run(true, &crash_docs, &crash_files, &crash_network);

  ASSERT_EQ(crashed.node_counters.size(), 2u);
  EXPECT_EQ(crashed.TotalCrashes(), 1u);
  EXPECT_EQ(crashed.TotalRestarts(), 1u);
  EXPECT_EQ(crashed.TotalRetrainedSteps(), expected_retrained);
  EXPECT_EQ(clean.TotalCrashes(), 0u);

  ASSERT_EQ(crashed.records.size(), clean.records.size());
  EXPECT_EQ(crash_files.FileCount(), clean_files.FileCount());
  EXPECT_EQ(crash_docs.DocumentCount(), clean_docs.DocumentCount());
  core::StorageBackends clean_backends{&clean_docs, &clean_files, nullptr};
  core::StorageBackends crash_backends{&crash_docs, &crash_files, nullptr};
  core::ModelRecoverer clean_recoverer(clean_backends);
  core::ModelRecoverer crash_recoverer(crash_backends);
  for (size_t i = 0; i < clean.records.size(); ++i) {
    auto a = clean_recoverer.Recover(clean.records[i].model_id,
                                     core::RecoverOptions{});
    auto b = crash_recoverer.Recover(crashed.records[i].model_id,
                                     core::RecoverOptions{});
    ASSERT_TRUE(a.ok()) << a.status();
    ASSERT_TRUE(b.ok()) << b.status();
    EXPECT_EQ(a->model.ParamsHash(), b->model.ParamsHash())
        << clean.records[i].label;
  }
}

TEST(FlowCrashTest, CrashAtStepOneRedoesTheWholeFirstStep) {
  // at_step = 1: the node dies at the top of the very first optimizer step
  // of the update, with zero steps completed. Recovery resumes from the
  // step-0 checkpoint written at training start, so nothing is retrained —
  // the degenerate "crashed before doing any work" edge must still land
  // bit-identically instead of, say, double-applying the first batch.
  ExpectCrashLandsBitIdentical(
      dist::NodeCrashEvent{/*phase=*/2, /*iteration=*/1, /*node=*/0,
                           /*at_step=*/1},
      /*expected_retrained=*/0);
}

TEST(FlowCrashTest, CrashInFinalIterationStillLandsBitIdentical) {
  // The last U3 iteration of the last phase, at the top of the final
  // optimizer step: the interrupted update is the one whose result the flow
  // is about to archive, so any recovery slip here would corrupt the final
  // saved model rather than an intermediate. 2 steps done, checkpoint
  // interval 2 => resume from step 2, nothing retrained.
  ExpectCrashLandsBitIdentical(
      dist::NodeCrashEvent{/*phase=*/2, /*iteration=*/2, /*node=*/1,
                           /*at_step=*/3},
      /*expected_retrained=*/0);
}

TEST(FlowCrashTest, CrashWhileReplicaPartitionIsActiveLandsBitIdentical) {
  // A node crash while the storage tier is itself degraded: replica 1 of a
  // 3-replica W=R=2 cluster is partitioned away for the whole run, so both
  // the checkpoints the node writes before dying and the recovery reads
  // after its restart go through a 2-of-3 quorum. The surviving majority
  // must carry the crash recovery to the same bits as a fully healthy,
  // crash-free cluster.
  auto run = [](bool with_crash, bool with_partition,
                std::vector<dist::UseCaseRecord>* records,
                std::vector<std::string>* hashes,
                dist::FlowResult* result_out) {
    simnet::Network network{simnet::Link{300e6, 0.2e-3}};
    network.Configure(Space::kReplica, 3);
    std::vector<std::unique_ptr<filestore::InMemoryFileStore>> file_backends;
    std::vector<std::unique_ptr<docstore::InMemoryDocumentStore>> doc_backends;
    std::vector<std::unique_ptr<filestore::RemoteFileStore>> file_transports;
    std::vector<std::unique_ptr<docstore::RemoteDocumentStore>> doc_transports;
    std::vector<filestore::RemoteFileStore*> file_ptrs;
    std::vector<docstore::RemoteDocumentStore*> doc_ptrs;
    for (size_t r = 0; r < 3; ++r) {
      file_backends.push_back(std::make_unique<filestore::InMemoryFileStore>());
      doc_backends.push_back(
          std::make_unique<docstore::InMemoryDocumentStore>());
      file_transports.push_back(std::make_unique<filestore::RemoteFileStore>(
          file_backends.back().get(), &network));
      file_transports.back()->BindReplica(r);
      doc_transports.push_back(std::make_unique<docstore::RemoteDocumentStore>(
          doc_backends.back().get(), &network));
      doc_transports.back()->BindReplica(r);
      file_ptrs.push_back(file_transports.back().get());
      doc_ptrs.push_back(doc_transports.back().get());
    }
    auto files =
        repl::ReplicatedFileStore::Create(file_ptrs, &network, {}).value();
    auto docs =
        repl::ReplicatedDocumentStore::Create(doc_ptrs, &network, {}).value();
    if (with_partition) {
      ASSERT_TRUE(network.Partition(Space::kReplica, {{1}}).ok());
    }

    dist::FlowConfig config;
    config.approach = dist::ApproachKind::kBaseline;
    config.model = TinyConfig();
    config.num_nodes = 2;
    config.u3_iterations = 2;
    config.dataset_divisor = 4096;
    config.training_mode = dist::TrainingMode::kReal;
    config.recover_models = false;
    config.train = TinyTrainConfig();
    config.train.epochs = 1;
    config.train.max_batches_per_epoch = 3;
    config.train.sgd.momentum = 0.9f;
    config.train.sgd.learning_rate = 2e-4f;
    config.checkpoint_every_steps = 2;
    if (with_crash) {
      config.crash_schedule.push_back(
          dist::NodeCrashEvent{/*phase=*/2, /*iteration=*/1, /*node=*/0,
                               /*at_step=*/2});
    }

    core::StorageBackends backends{docs.get(), files.get(), &network, nullptr};
    dist::EvaluationFlow flow(config, backends);
    auto result = flow.Run();
    ASSERT_TRUE(result.ok()) << result.status();
    *records = result->records;
    *result_out = *result;

    // Recover every saved model through the (still degraded, for the
    // partitioned run) quorum and hash its parameters.
    core::ModelRecoverer recoverer(backends);
    for (const dist::UseCaseRecord& record : result->records) {
      auto recovered = recoverer.Recover(record.model_id,
                                         core::RecoverOptions{});
      ASSERT_TRUE(recovered.ok()) << recovered.status();
      hashes->push_back(recovered->model.ParamsHash().ToHex());
    }
  };

  std::vector<dist::UseCaseRecord> clean_records, crashed_records;
  std::vector<std::string> clean_hashes, crashed_hashes;
  dist::FlowResult clean, crashed;
  run(/*with_crash=*/false, /*with_partition=*/false, &clean_records,
      &clean_hashes, &clean);
  run(/*with_crash=*/true, /*with_partition=*/true, &crashed_records,
      &crashed_hashes, &crashed);

  // The crash fired and the partition really degraded the cluster: every
  // write during the run skipped the unreachable replica 1.
  EXPECT_EQ(crashed.TotalCrashes(), 1u);
  EXPECT_EQ(crashed.TotalRestarts(), 1u);
  EXPECT_EQ(clean.TotalCrashes(), 0u);
  ASSERT_EQ(crashed.replica_counters.size(), 3u);
  EXPECT_GT(crashed.replica_counters[1].write_skips, 0u);
  EXPECT_EQ(crashed.replica_counters[0].write_skips, 0u);
  EXPECT_EQ(crashed.replica_counters[2].write_skips, 0u);

  ASSERT_EQ(crashed_records.size(), clean_records.size());
  ASSERT_EQ(crashed_hashes.size(), clean_hashes.size());
  for (size_t i = 0; i < clean_hashes.size(); ++i) {
    EXPECT_EQ(crashed_hashes[i], clean_hashes[i]) << clean_records[i].label;
  }
}

// ---------------------------------------------------------------------------
// Simulated network: a down member
// ---------------------------------------------------------------------------

// Crash/Restart status codes and clock charges are one contract for every
// node space (simnet_test MembershipTest); these cases drive a down member
// through the replica endpoint, the one a sender addresses directly.
TEST(SimnetDownMemberTest, RejectsWhileDownAndServesAfterRestart) {
  simnet::Network network;
  network.Configure(Space::kReplica, 2);
  EXPECT_TRUE(network.TryTransferToReplica(0, 1000).status.ok());
  ASSERT_TRUE(network.Crash(Space::kReplica, 0).ok());

  // Requests to the down replica fail Unavailable after one latency
  // charge; the other replica is untouched.
  const double before = network.TotalTransferSeconds();
  const auto attempt = network.TryTransferToReplica(0, 1000);
  EXPECT_EQ(attempt.status.code(), StatusCode::kUnavailable);
  EXPECT_NEAR(network.TotalTransferSeconds() - before,
              network.link().latency_seconds, 1e-12);
  EXPECT_EQ(network.Counters(Space::kReplica, 0).value().rejects, 1u);
  EXPECT_TRUE(network.TryTransferToReplica(1, 1000).status.ok());
  EXPECT_EQ(network.Counters(Space::kReplica, 1).value().rejects, 0u);

  ASSERT_TRUE(network.Restart(Space::kReplica, 0).ok());
  EXPECT_TRUE(network.TryTransferToReplica(0, 1000).status.ok());

  network.Reset();
  EXPECT_TRUE(network.IsUp(Space::kReplica, 0));
  EXPECT_EQ(network.Counters(Space::kReplica, 0).value().rejects, 0u);
}

TEST(SimnetDownMemberTest, RetrierRidesOutARestart) {
  simnet::Network network;
  network.Configure(Space::kReplica, 1);
  simnet::Retrier retrier(&network);
  ASSERT_TRUE(network.Crash(Space::kReplica, 0).ok());

  int attempts = 0;
  const Status status = retrier.Run([&]() -> Status {
    ++attempts;
    const auto attempt = network.TryTransferToReplica(0, 512);
    if (!attempt.status.ok() && !network.IsUp(Space::kReplica, 0)) {
      // The replica comes back while the sender backs off.
      EXPECT_TRUE(network.Restart(Space::kReplica, 0).ok());
    }
    return attempt.status;
  });
  EXPECT_TRUE(status.ok()) << status;
  EXPECT_EQ(attempts, 2);
  EXPECT_EQ(retrier.retry_count(), 1u);
  EXPECT_EQ(network.Counters(Space::kReplica, 0).value().rejects, 1u);
}

}  // namespace
}  // namespace mmlib
