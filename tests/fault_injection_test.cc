#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/baseline.h"
#include "core/fetch.h"
#include "core/model_code.h"
#include "core/param_update.h"
#include "core/probe.h"
#include "core/recover.h"
#include "core/save_txn.h"
#include "dist/flow.h"
#include "docstore/document_store.h"
#include "filestore/file_store.h"
#include "models/zoo.h"
#include "simnet/retry.h"
#include "tensor/tensor.h"
#include "util/fs.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace mmlib {
namespace {

/// Seed of the fault plans below; overridable from the environment so CI can
/// sweep several fault schedules over the same assertions
/// (MMLIB_FAULT_SEED=1 ctest -R fault_injection ...).
uint64_t FaultSeed() {
  const char* env = std::getenv("MMLIB_FAULT_SEED");
  if (env != nullptr && *env != '\0') {
    return std::strtoull(env, nullptr, 10);
  }
  return 0x5eedfa17;
}

// ---------------------------------------------------------------------------
// Retrier semantics
// ---------------------------------------------------------------------------

TEST(RetrierTest, TransientFailuresAreRetriedAndBackoffIsCharged) {
  simnet::Network network;
  simnet::Retrier retrier(&network);

  int calls = 0;
  auto outcome = retrier.Run([&]() -> Result<int> {
    if (++calls < 3) {
      return Status::Unavailable("flaky");
    }
    return 42;
  });
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome.value(), 42);
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(retrier.retry_count(), 2u);
  // Backoffs of 0.05 s and 0.1 s were charged, each jittered by at most
  // 20%.
  EXPECT_EQ(simnet::Retrier::kInitialBackoffSeconds, 0.05);
  EXPECT_EQ(simnet::Retrier::kJitterFraction, 0.2);
  EXPECT_GE(network.TotalTransferSeconds(), 0.15 * 0.8);
  EXPECT_LE(network.TotalTransferSeconds(), 0.15 * 1.2);
}

TEST(RetrierTest, NonRetryableErrorsPassThroughImmediately) {
  simnet::Network network;
  simnet::Retrier retrier(&network);

  int calls = 0;
  auto outcome = retrier.Run([&]() -> Result<int> {
    ++calls;
    return Status::NotFound("gone for good");
  });
  EXPECT_EQ(outcome.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(retrier.retry_count(), 0u);
  EXPECT_DOUBLE_EQ(network.TotalTransferSeconds(), 0.0);
}

TEST(RetrierTest, GivesUpAfterMaxAttempts) {
  // Both retryable codes are retried up to the attempt cap, and the last
  // attempt's own error surfaces unchanged.
  for (const Status& transient : {Status::DeadlineExceeded("always late"),
                                  Status::Unavailable("flaky")}) {
    simnet::Network network;
    simnet::Retrier retrier(&network);

    int calls = 0;
    const Status status = retrier.Run([&]() -> Status {
      ++calls;
      return transient;
    });
    EXPECT_EQ(status.code(), transient.code());
    EXPECT_EQ(simnet::Retrier::kMaxAttempts, 6);
    EXPECT_EQ(calls, 6);
    EXPECT_EQ(retrier.retry_count(), 5u);
  }
}

// ---------------------------------------------------------------------------
// Per-flow fault accounting
// ---------------------------------------------------------------------------

TEST(FaultAccountingTest, ResetZeroesTalliesWithoutTouchingClockOrStreams) {
  simnet::Network network(simnet::Link{1e6, 1e-3});
  simnet::FaultPlan plan;
  plan.drop_probability = 0.1;
  plan.timeout_probability = 0.1;
  plan.corrupt_probability = 0.1;
  plan.timeout_seconds = 0.01;
  plan.seed = FaultSeed();
  network.set_fault_plan(plan);

  {
    simnet::Network::OpScope scope(&network, "flow1.op");
    for (int i = 0; i < 300; ++i) {
      (void)network.TryTransfer(1000);
    }
  }
  ASSERT_GT(network.FaultCount(), 0u);
  ASSERT_EQ(network.PerOpFaultCounters().count("flow1.op"), 1u);
  const double clock_before = network.TotalTransferSeconds();
  const uint64_t messages_before = network.MessageCount();

  network.ResetFaultCounters();
  EXPECT_EQ(network.FaultCount(), 0u);
  EXPECT_EQ(network.DropCount(), 0u);
  EXPECT_EQ(network.TimeoutCount(), 0u);
  EXPECT_EQ(network.CorruptionCount(), 0u);
  EXPECT_TRUE(network.PerOpFaultCounters().empty());
  // The reset is accounting-only: virtual time, message counts, and the
  // fault-decision stream keep going (a second flow sees fresh counters but
  // the same simulated world).
  EXPECT_DOUBLE_EQ(network.TotalTransferSeconds(), clock_before);
  EXPECT_EQ(network.MessageCount(), messages_before);

  {
    simnet::Network::OpScope scope(&network, "flow2.op");
    for (int i = 0; i < 300; ++i) {
      (void)network.TryTransfer(1000);
    }
  }
  // The second flow's tallies stand alone: its label is present, the first
  // flow's is gone, and the totals reflect only post-reset faults.
  EXPECT_GT(network.FaultCount(), 0u);
  EXPECT_EQ(network.PerOpFaultCounters().count("flow1.op"), 0u);
  ASSERT_EQ(network.PerOpFaultCounters().count("flow2.op"), 1u);
  EXPECT_EQ(network.PerOpFaultCounters().at("flow2.op").Total(),
            network.FaultCount());
}

TEST(FaultAccountingTest, OpScopesNestWithInnermostLabelWinning) {
  simnet::Network network;
  simnet::FaultPlan plan;
  plan.drop_probability = 1.0;  // every message faults deterministically
  plan.seed = FaultSeed();
  network.set_fault_plan(plan);

  simnet::Network::OpScope outer(&network, "save.model");
  (void)network.TryTransfer(10);
  {
    simnet::Network::OpScope inner(&network, "file.write");
    (void)network.TryTransfer(10);
  }
  (void)network.TryTransfer(10);
  const auto& per_op = network.PerOpFaultCounters();
  ASSERT_EQ(per_op.count("save.model"), 1u);
  ASSERT_EQ(per_op.count("file.write"), 1u);
  EXPECT_EQ(per_op.at("save.model").drops, 2u);
  EXPECT_EQ(per_op.at("file.write").drops, 1u);
}

// ---------------------------------------------------------------------------
// Crash-safe local persistence
// ---------------------------------------------------------------------------

std::string FreshRoot(const std::string& tag) {
  const std::string root = ::testing::TempDir() + "/fault-" + tag;
  std::filesystem::remove_all(root);
  return root;
}

void WriteRaw(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary);
  out << content;
  ASSERT_TRUE(out.good()) << path;
}

TEST(CrashSafetyTest, InterruptedSaveLeavesStoreConsistent) {
  const std::string root = FreshRoot("interrupted");
  auto store = filestore::LocalDirFileStore::Open(root).value();
  const std::string id = store->SaveFile(Bytes(100, 7)).value();

  // Simulate a write interrupted mid-flight (leftover temporary) plus
  // foreign files sharing the directory.
  WriteRaw(root + "/file-dead.bin" + util::kTmpSuffix, "partial content");
  WriteRaw(root + "/README.txt", "not store data");

  // Accounting sees only committed *.bin entries.
  EXPECT_EQ(store->FileCount(), 1u);
  EXPECT_EQ(store->TotalStoredBytes(), 100u);
  // The committed file is intact, and the store keeps working after the
  // "crash": a reopened store saves and loads normally.
  EXPECT_EQ(store->LoadFile(id).value(), Bytes(100, 7));
  auto reopened = filestore::LocalDirFileStore::Open(root).value();
  const std::string id2 = reopened->SaveFile(Bytes(50, 8)).value();
  EXPECT_EQ(reopened->LoadFile(id2).value(), Bytes(50, 8));
  EXPECT_EQ(reopened->FileCount(), 2u);
  std::filesystem::remove_all(root);
}

TEST(CrashSafetyTest, FailedAtomicWriteCleansUpAndKeepsOldContent) {
  const std::string root = FreshRoot("atomic");
  std::filesystem::create_directories(root);
  const std::string path = root + "/target.bin";
  const Bytes old_content{1, 2, 3};
  ASSERT_TRUE(
      util::AtomicWriteFile(path, old_content.data(), old_content.size())
          .ok());

  // Writing into a non-existent directory fails before reaching `path`.
  const std::string bad_path = root + "/no/such/dir/target.bin";
  const Bytes next(10, 9);
  EXPECT_EQ(util::AtomicWriteFile(bad_path, next.data(), next.size()).code(),
            StatusCode::kIoError);
  EXPECT_FALSE(std::filesystem::exists(bad_path + util::kTmpSuffix));

  // The original destination still holds the old content.
  auto store = filestore::LocalDirFileStore::Open(root).value();
  EXPECT_EQ(store->TotalStoredBytes(), old_content.size());
  std::filesystem::remove_all(root);
}

TEST(CrashSafetyTest, DocumentStoreCountsOnlyJsonEntries) {
  const std::string root = FreshRoot("docjson");
  auto docs = docstore::PersistentDocumentStore::Open(root).value();
  json::Value doc = json::Value::MakeObject();
  doc.Set("kind", std::string("test"));
  const std::string id = docs->Insert("models", doc).value();
  const size_t committed_bytes = docs->TotalStoredBytes();
  ASSERT_GT(committed_bytes, 0u);

  WriteRaw(root + "/models/ghost.json" + util::kTmpSuffix, "{\"partial\":");
  WriteRaw(root + "/models/notes.md", "foreign file");

  EXPECT_EQ(docs->DocumentCount(), 1u);
  EXPECT_EQ(docs->TotalStoredBytes(), committed_bytes);
  EXPECT_EQ(docs->ListIds("models").value(), std::vector<std::string>{id});
  std::filesystem::remove_all(root);
}

TEST(CrashSafetyTest, DeleteDistinguishesIoErrorFromNotFound) {
  const std::string root = FreshRoot("delete");
  auto store = filestore::LocalDirFileStore::Open(root).value();

  // Nothing at the path: NotFound.
  EXPECT_EQ(store->Delete("absent").code(), StatusCode::kNotFound);

  // A non-empty directory squatting on the id's path: removal itself fails,
  // which must surface as IoError, not "was already gone".
  std::filesystem::create_directories(root + "/blocked.bin/child");
  WriteRaw(root + "/blocked.bin/child/data", "x");
  EXPECT_EQ(store->Delete("blocked").code(), StatusCode::kIoError);

  const std::string doc_root = FreshRoot("delete-docs");
  auto docs = docstore::PersistentDocumentStore::Open(doc_root).value();
  EXPECT_EQ(docs->Delete("models", "absent").code(), StatusCode::kNotFound);
  std::filesystem::create_directories(doc_root + "/models/stuck.json/child");
  WriteRaw(doc_root + "/models/stuck.json/child/data", "x");
  EXPECT_EQ(docs->Delete("models", "stuck").code(), StatusCode::kIoError);

  std::filesystem::remove_all(root);
  std::filesystem::remove_all(doc_root);
}

// ---------------------------------------------------------------------------
// Save rollback
// ---------------------------------------------------------------------------

models::ModelConfig TinyConfig() {
  models::ModelConfig config =
      models::DefaultConfig(models::Architecture::kMobileNetV2);
  config.channel_divisor = 8;
  config.image_size = 28;
  config.num_classes = 10;
  return config;
}

/// Document store failing every insert into one collection — models a
/// database becoming unreachable partway through a multi-step save.
class FailingDocumentStore : public docstore::DocumentStore {
 public:
  FailingDocumentStore(docstore::DocumentStore* backend,
                       std::string fail_collection)
      : backend_(backend), fail_collection_(std::move(fail_collection)) {}

  Result<std::string> Insert(const std::string& collection,
                             json::Value doc) override {
    if (collection == fail_collection_) {
      return Status::IoError("injected: insert into " + collection);
    }
    return backend_->Insert(collection, std::move(doc));
  }
  Result<json::Value> Get(const std::string& collection,
                          const std::string& id) override {
    return backend_->Get(collection, id);
  }
  Status Delete(const std::string& collection,
                const std::string& id) override {
    return backend_->Delete(collection, id);
  }
  Result<std::vector<std::string>> ListIds(
      const std::string& collection) override {
    return backend_->ListIds(collection);
  }
  size_t TotalStoredBytes() const override {
    return backend_->TotalStoredBytes();
  }
  size_t DocumentCount() const override { return backend_->DocumentCount(); }

 private:
  docstore::DocumentStore* backend_;
  std::string fail_collection_;
};

TEST(SaveRollbackTest, FailedSaveLeavesNoOrphanedWrites) {
  docstore::InMemoryDocumentStore docs;
  filestore::InMemoryFileStore files;
  // The model-document insert is the *last* step of a baseline save; by the
  // time it fails, the env doc, code doc, Merkle file, and parameter
  // payload have all been written — and must all be rolled back.
  FailingDocumentStore failing(&docs, core::kModelsCollection);
  core::StorageBackends backends{&failing, &files, nullptr, nullptr};

  auto model = models::BuildModel(TinyConfig()).value();
  core::SaveRequest request;
  request.model = &model;
  request.code = core::CodeDescriptorFor(TinyConfig());
  const env::EnvironmentInfo environment = env::CollectEnvironment();
  request.environment = &environment;

  core::BaselineSaveService service(backends);
  const auto result = service.SaveModel(request);
  EXPECT_EQ(result.status().code(), StatusCode::kIoError);
  EXPECT_EQ(files.FileCount(), 0u) << "orphaned files after failed save";
  EXPECT_EQ(files.TotalStoredBytes(), 0u);
  EXPECT_EQ(docs.DocumentCount(), 0u) << "orphaned docs after failed save";

  // The same save against healthy backends commits everything.
  core::StorageBackends healthy{&docs, &files, nullptr, nullptr};
  core::BaselineSaveService ok_service(healthy);
  ASSERT_TRUE(ok_service.SaveModel(request).ok());
  EXPECT_EQ(files.FileCount(), 2u);   // params payload + Merkle tree
  EXPECT_EQ(docs.DocumentCount(), 3u);  // env + code + model
}

TEST(SaveRollbackTest, TransactionKeepsWritesAfterCommit) {
  docstore::InMemoryDocumentStore docs;
  filestore::InMemoryFileStore files;
  core::StorageBackends backends{&docs, &files, nullptr, nullptr};
  {
    core::SaveTransaction txn(backends);
    ASSERT_TRUE(txn.SaveFile(Bytes(10, 1)).ok());
    json::Value doc = json::Value::MakeObject();
    doc.Set("k", std::string("v"));
    ASSERT_TRUE(txn.Insert("models", std::move(doc)).ok());
    EXPECT_EQ(txn.pending_writes(), 2u);
    ASSERT_TRUE(txn.Commit().ok());
    EXPECT_EQ(txn.pending_writes(), 0u);
  }
  EXPECT_EQ(files.FileCount(), 1u);
  EXPECT_EQ(docs.DocumentCount(), 1u);
  {
    core::SaveTransaction txn(backends);
    ASSERT_TRUE(txn.SaveFile(Bytes(10, 2)).ok());
    // No Commit: destruction rolls the write back.
  }
  EXPECT_EQ(files.FileCount(), 1u);
}

// ---------------------------------------------------------------------------
// Corruption re-fetch
// ---------------------------------------------------------------------------

/// File store that damages the first `corrupt_loads` LoadFile results by one
/// byte — the stored copy stays intact, exactly like in-flight corruption.
/// The flipped byte is at `offset`, or mid-payload by default.
class CorruptingFileStore : public filestore::FileStore {
 public:
  static constexpr size_t kMiddle = static_cast<size_t>(-1);

  CorruptingFileStore(filestore::FileStore* backend, int corrupt_loads,
                      size_t offset = kMiddle)
      : backend_(backend), remaining_(corrupt_loads), offset_(offset) {}

  Result<Bytes> LoadFile(const std::string& id) override {
    auto loaded = backend_->LoadFile(id);
    if (loaded.ok() && remaining_ > 0) {
      --remaining_;
      Bytes damaged = std::move(loaded).value();
      if (!damaged.empty()) {
        damaged[offset_ == kMiddle ? damaged.size() / 2
                                   : offset_ % damaged.size()] ^= 0x01;
      }
      return damaged;
    }
    return loaded;
  }
  Result<std::string> SaveFile(const Bytes& content) override {
    return backend_->SaveFile(content);
  }
  Status Delete(const std::string& id) override {
    return backend_->Delete(id);
  }
  Result<size_t> FileSize(const std::string& id) override {
    return backend_->FileSize(id);
  }
  size_t TotalStoredBytes() const override {
    return backend_->TotalStoredBytes();
  }
  size_t FileCount() const override { return backend_->FileCount(); }

 private:
  filestore::FileStore* backend_;
  int remaining_;
  size_t offset_;
};

class RefetchTest : public ::testing::Test {
 protected:
  void SetUp() override {
    backends_ = core::StorageBackends{&docs_, &files_, nullptr, nullptr};
    model_ = std::make_unique<nn::Model>(
        models::BuildModel(TinyConfig()).value());
    environment_ = env::CollectEnvironment();
  }

  core::SaveRequest MakeRequest(std::string base_id = "") {
    core::SaveRequest request;
    request.model = model_.get();
    request.code = core::CodeDescriptorFor(TinyConfig());
    request.environment = &environment_;
    request.base_model_id = std::move(base_id);
    return request;
  }

  docstore::InMemoryDocumentStore docs_;
  filestore::InMemoryFileStore files_;
  core::StorageBackends backends_;
  std::unique_ptr<nn::Model> model_;
  env::EnvironmentInfo environment_;
};

TEST_F(RefetchTest, RecovererRefetchesCorruptedChunks) {
  core::BaselineSaveService service(backends_);
  const std::string id = service.SaveModel(MakeRequest()).value().model_id;

  // The first two fetches of the parameter payload arrive damaged; the
  // per-chunk CRC-32 catches it and the recoverer re-requests.
  CorruptingFileStore flaky(&files_, /*corrupt_loads=*/2);
  core::StorageBackends flaky_backends{&docs_, &flaky, nullptr, nullptr};
  core::ModelRecoverer recoverer(flaky_backends);
  auto recovered = recoverer.Recover(id, core::RecoverOptions{});
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  EXPECT_TRUE(recovered->checksum_verified);
  EXPECT_EQ(recoverer.corruption_refetches(), 2u);
  EXPECT_EQ(recovered->model.ParamsHash().ToHex(),
            model_->ParamsHash().ToHex());
}

TEST_F(RefetchTest, RecovererRefetchesCorruptedFrameMagic) {
  core::BaselineSaveService service(backends_);
  const std::string id = service.SaveModel(MakeRequest()).value().model_id;

  // A flip inside the 4-byte frame magic must not pass the payload through
  // undecoded: it is Corruption like any other damage, and is re-fetched.
  CorruptingFileStore flaky(&files_, /*corrupt_loads=*/1, /*offset=*/0);
  core::StorageBackends flaky_backends{&docs_, &flaky, nullptr, nullptr};
  core::ModelRecoverer recoverer(flaky_backends);
  auto recovered = recoverer.Recover(id, core::RecoverOptions{});
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  EXPECT_TRUE(recovered->checksum_verified);
  EXPECT_EQ(recoverer.corruption_refetches(), 1u);
  EXPECT_EQ(recovered->model.ParamsHash().ToHex(),
            model_->ParamsHash().ToHex());
}

TEST_F(RefetchTest, PersistentCorruptionEventuallyFails) {
  core::BaselineSaveService service(backends_);
  const std::string id = service.SaveModel(MakeRequest()).value().model_id;

  // Every fetch is damaged — e.g. the stored copy itself rotted. After
  // kMaxFetchAttempts the recoverer gives up with Corruption.
  CorruptingFileStore rotten(&files_, /*corrupt_loads=*/1000);
  core::StorageBackends rotten_backends{&docs_, &rotten, nullptr, nullptr};
  core::ModelRecoverer recoverer(rotten_backends);
  auto recovered = recoverer.Recover(id, core::RecoverOptions{});
  EXPECT_EQ(recovered.status().code(), StatusCode::kCorruption);
  EXPECT_EQ(recoverer.corruption_refetches(),
            static_cast<uint64_t>(core::kMaxFetchAttempts - 1));
}

TEST_F(RefetchTest, ParamUpdateSaveRefetchesCorruptedBaseMerkleTree) {
  core::ParamUpdateSaveService service(backends_);
  const std::string base_id =
      service.SaveModel(MakeRequest()).value().model_id;

  // Saving the derived model loads the base's Merkle tree; the first copy
  // arrives damaged and is re-fetched instead of failing the save.
  CorruptingFileStore flaky(&files_, /*corrupt_loads=*/1);
  core::StorageBackends flaky_backends{&docs_, &flaky, nullptr, nullptr};
  core::ParamUpdateSaveService derived_service(flaky_backends);
  auto saved = derived_service.SaveModel(MakeRequest(base_id));
  ASSERT_TRUE(saved.ok()) << saved.status();
  EXPECT_EQ(derived_service.corruption_refetches(), 1u);
}

// ---------------------------------------------------------------------------
// Flaky-network determinism
// ---------------------------------------------------------------------------

struct WorkloadTrace {
  std::vector<StatusCode> op_codes;
  uint64_t file_retries = 0;
  uint64_t doc_retries = 0;
  uint64_t messages = 0;
  uint64_t faults = 0;
  double seconds = 0.0;

  bool operator==(const WorkloadTrace& other) const {
    return op_codes == other.op_codes &&
           file_retries == other.file_retries &&
           doc_retries == other.doc_retries && messages == other.messages &&
           faults == other.faults && seconds == other.seconds;
  }
};

/// A fixed store workload over a flaky link. Everything observable —
/// per-op outcomes, retry counts, message counts, virtual time — must be a
/// pure function of the fault seed.
WorkloadTrace RunFlakyWorkload(uint64_t seed) {
  filestore::InMemoryFileStore file_backend;
  docstore::InMemoryDocumentStore doc_backend;
  simnet::Network network(simnet::Link{1e6, 1e-3});
  simnet::FaultPlan plan;
  plan.drop_probability = 0.05;
  plan.timeout_probability = 0.05;
  plan.corrupt_probability = 0.05;
  plan.timeout_seconds = 0.01;
  plan.seed = seed;
  network.set_fault_plan(plan);

  filestore::RemoteFileStore files(&file_backend, &network);
  docstore::RemoteDocumentStore docs(&doc_backend, &network);

  WorkloadTrace trace;
  std::vector<std::string> file_ids;
  for (int i = 0; i < 15; ++i) {
    auto saved = files.SaveFile(Bytes(200 + 13 * i, uint8_t(i)));
    trace.op_codes.push_back(saved.status().code());
    if (saved.ok()) {
      file_ids.push_back(std::move(saved).value());
    }
    json::Value doc = json::Value::MakeObject();
    doc.Set("round", static_cast<int64_t>(i));
    trace.op_codes.push_back(docs.Insert("models", std::move(doc))
                                 .status()
                                 .code());
  }
  for (const std::string& id : file_ids) {
    trace.op_codes.push_back(files.LoadFile(id).status().code());
  }
  trace.op_codes.push_back(docs.ListIds("models").status().code());

  trace.file_retries = files.retry_count();
  trace.doc_retries = docs.retry_count();
  trace.messages = network.MessageCount();
  trace.faults = network.FaultCount();
  trace.seconds = network.TotalTransferSeconds();
  return trace;
}

TEST(FlakyNetworkTest, RetryCountsAreSeedDeterministic) {
  const uint64_t seed = FaultSeed();
  const WorkloadTrace first = RunFlakyWorkload(seed);
  const WorkloadTrace second = RunFlakyWorkload(seed);
  EXPECT_TRUE(first == second)
      << "same seed, different trace: retries " << first.file_retries << "/"
      << first.doc_retries << " vs " << second.file_retries << "/"
      << second.doc_retries << ", messages " << first.messages << " vs "
      << second.messages;
  // The fault rates are high enough that the workload actually retried.
  EXPECT_GT(first.faults, 0u);
  EXPECT_GT(first.file_retries + first.doc_retries, 0u);
}

// ---------------------------------------------------------------------------
// Remote store replies under corruption
// ---------------------------------------------------------------------------

/// A link whose only fault is a damaged delivery, so every count below is
/// exact for any fault seed.
simnet::FaultPlan CorruptionOnlyPlan() {
  simnet::FaultPlan plan;
  plan.corrupt_probability = 0.25;
  plan.seed = FaultSeed();
  return plan;
}

constexpr uint64_t kReplyCalls = 200;

TEST(RemoteReplyTest, CorruptedLoadReplyIsDeliveredDamaged) {
  filestore::InMemoryFileStore backend;
  Bytes content(64);
  for (size_t i = 0; i < content.size(); ++i) {
    content[i] = static_cast<uint8_t>(i);
  }
  const std::string id = backend.SaveFile(content).value();
  simnet::Network network;
  network.set_fault_plan(CorruptionOnlyPlan());
  filestore::RemoteFileStore remote(&backend, &network);

  uint64_t damaged = 0;
  uint64_t give_ups = 0;
  for (uint64_t call = 0; call < kReplyCalls; ++call) {
    auto loaded = remote.LoadFile(id);
    if (!loaded.ok()) {
      EXPECT_EQ(loaded.status().code(), StatusCode::kUnavailable);
      ++give_ups;
      continue;
    }
    ASSERT_EQ(loaded->size(), content.size());
    uint64_t flipped = 0;
    for (size_t i = 0; i < content.size(); ++i) {
      flipped += (*loaded)[i] != content[i] ? 1 : 0;
    }
    EXPECT_LE(flipped, 1u);
    damaged += flipped;
  }
  // A corrupted request is rejected and retried (the last attempt gives
  // up instead); a corrupted reply is delivered with one byte flipped and
  // never retried, leaving the chunk CRC to catch it.
  EXPECT_EQ(network.CorruptionCount(),
            remote.retry_count() + give_ups + damaged);
  EXPECT_GT(damaged, 0u);
}

TEST(RemoteReplyTest, CorruptedCheckedReplyIsRetried) {
  filestore::InMemoryFileStore backend;
  const std::string id = backend.SaveFile(Bytes(64, 7)).value();
  simnet::Network network;
  network.set_fault_plan(CorruptionOnlyPlan());
  filestore::RemoteFileStore remote(&backend, &network);

  uint64_t give_ups = 0;
  for (uint64_t call = 0; call < kReplyCalls; ++call) {
    auto size = remote.FileSize(id);
    if (!size.ok()) {
      EXPECT_EQ(size.status().code(), StatusCode::kUnavailable);
      ++give_ups;
      continue;
    }
    EXPECT_EQ(size.value(), 64u);
  }
  // Every corruption, of the request or of the reply, costs one retry (or
  // ends the call on its last attempt).
  const uint64_t corruptions = network.CorruptionCount();
  EXPECT_EQ(corruptions, remote.retry_count() + give_ups);
  // An attempt whose request was rejected sends one message, any other
  // sends two; the rest of the corruptions hit replies.
  const uint64_t attempts = kReplyCalls + remote.retry_count();
  const uint64_t rejected_requests = 2 * attempts - network.MessageCount();
  EXPECT_GT(corruptions, rejected_requests);
}

TEST(RemoteReplyTest, CorruptedUploadNeverMutatesBackend) {
  filestore::InMemoryFileStore file_backend;
  docstore::InMemoryDocumentStore doc_backend;
  simnet::Network network;
  network.set_fault_plan(CorruptionOnlyPlan());
  filestore::RemoteFileStore files(&file_backend, &network);
  docstore::RemoteDocumentStore docs(&doc_backend, &network);

  uint64_t saves = 0;
  uint64_t inserts = 0;
  uint64_t give_ups = 0;
  for (uint64_t call = 0; call < kReplyCalls / 2; ++call) {
    const Bytes content(32, static_cast<uint8_t>(call));
    auto saved = files.SaveFile(content);
    if (saved.ok()) {
      ++saves;
      EXPECT_EQ(file_backend.LoadFile(*saved).value(), content);
    } else {
      ++give_ups;
    }
    json::Value doc = json::Value::MakeObject();
    doc.Set("round", static_cast<int64_t>(call));
    if (docs.Insert("runs", std::move(doc)).ok()) {
      ++inserts;
    } else {
      ++give_ups;
    }
  }
  // Acknowledgements are reliable, so every corruption hit an upload, and
  // each was rejected before the backend saw it: the backends hold exactly
  // one entry per acknowledged write.
  EXPECT_EQ(network.CorruptionCount(),
            files.retry_count() + docs.retry_count() + give_ups);
  EXPECT_GT(network.CorruptionCount(), 0u);
  EXPECT_EQ(file_backend.FileCount(), saves);
  EXPECT_EQ(doc_backend.DocumentCount(), inserts);
}

// ---------------------------------------------------------------------------
// DIST flow under faults
// ---------------------------------------------------------------------------

struct FlowOutcome {
  uint64_t file_retries = 0;
  uint64_t doc_retries = 0;
  uint64_t messages = 0;
  uint64_t faults = 0;
  size_t model_count = 0;
  std::string last_params_hash;
};

/// Runs a 5-node DIST evaluation flow over a faulty link and recovers the
/// final model. Every count and the recovered parameter hash must be
/// independent of the thread-pool size and reproducible for a fixed seed.
FlowOutcome RunFaultyDistFlow(size_t pool_size, uint64_t seed) {
  docstore::InMemoryDocumentStore doc_backend;
  filestore::InMemoryFileStore file_backend;
  simnet::Network network;
  simnet::FaultPlan plan;
  plan.drop_probability = 0.03;
  plan.timeout_probability = 0.02;
  plan.corrupt_probability = 0.02;
  plan.timeout_seconds = 0.01;
  plan.seed = seed;
  network.set_fault_plan(plan);
  docstore::RemoteDocumentStore docs(&doc_backend, &network);
  filestore::RemoteFileStore files(&file_backend, &network);
  util::ThreadPool pool(pool_size);
  core::StorageBackends backends{&docs, &files, &network, &pool};

  dist::FlowConfig config;
  config.approach = dist::ApproachKind::kBaseline;
  config.model = models::DefaultConfig(models::Architecture::kMobileNetV2);
  config.model.channel_divisor = 8;
  config.model.image_size = 28;
  config.model.num_classes = 125;
  config.num_nodes = 5;
  config.u3_iterations = 2;
  config.dataset_divisor = 4096;
  config.training_mode = dist::TrainingMode::kSimulated;
  config.recover_models = true;

  dist::EvaluationFlow flow(config, backends);
  auto result = flow.Run();
  EXPECT_TRUE(result.ok()) << result.status();

  FlowOutcome outcome;
  if (result.ok()) {
    outcome.model_count = result->records.size();
    for (const dist::UseCaseRecord& record : result->records) {
      EXPECT_TRUE(record.recovered) << record.label;
    }
    core::ModelRecoverer recoverer(backends);
    auto last = recoverer.Recover(result->records.back().model_id,
                                  core::RecoverOptions{});
    EXPECT_TRUE(last.ok()) << last.status();
    if (last.ok()) {
      outcome.last_params_hash = last->model.ParamsHash().ToHex();
      // The recovered model still executes bit-reproducibly.
      Rng rng(7);
      const data::Batch batch{
          Tensor::Gaussian(Shape{2, 3, 28, 28}, 1.0f, &rng), {0, 1}};
      auto comparison = core::CheckReproducibility(
          &last->model, batch, /*deterministic=*/true, /*seed=*/3);
      EXPECT_TRUE(comparison.ok() && comparison->equal);
    }
  }
  outcome.file_retries = files.retry_count();
  outcome.doc_retries = docs.retry_count();
  outcome.messages = network.MessageCount();
  outcome.faults = network.FaultCount();
  return outcome;
}

TEST(FaultyFlowTest, Dist5FlowIsDeterministicAcrossRunsAndPoolSizes) {
  const uint64_t seed = FaultSeed();
  const FlowOutcome serial = RunFaultyDistFlow(/*pool_size=*/1, seed);
  ASSERT_EQ(serial.model_count, 22u);  // 2 + 5 nodes * 2 phases * 2 iters
  EXPECT_FALSE(serial.last_params_hash.empty());
  // The plan's rates make faults (and therefore retries) actually happen.
  EXPECT_GT(serial.faults, 0u);

  const FlowOutcome repeat = RunFaultyDistFlow(/*pool_size=*/1, seed);
  EXPECT_EQ(serial.file_retries, repeat.file_retries);
  EXPECT_EQ(serial.doc_retries, repeat.doc_retries);
  EXPECT_EQ(serial.messages, repeat.messages);
  EXPECT_EQ(serial.faults, repeat.faults);
  EXPECT_EQ(serial.last_params_hash, repeat.last_params_hash);

  const FlowOutcome parallel = RunFaultyDistFlow(/*pool_size=*/8, seed);
  EXPECT_EQ(serial.file_retries, parallel.file_retries);
  EXPECT_EQ(serial.doc_retries, parallel.doc_retries);
  EXPECT_EQ(serial.messages, parallel.messages);
  EXPECT_EQ(serial.faults, parallel.faults);
  EXPECT_EQ(serial.last_params_hash, parallel.last_params_hash);
}

}  // namespace
}  // namespace mmlib
