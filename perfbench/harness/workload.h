#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "bench_common.h"
#include "core/catalog.h"
#include "core/recover.h"
#include "core/save_service.h"
#include "core/train_service.h"
#include "data/dataset.h"
#include "docstore/document_store.h"
#include "filestore/file_store.h"
#include "hash/sha256.h"
#include "models/zoo.h"
#include "nn/model.h"
#include "simnet/network.h"
#include "trace.h"
#include "traced_stores.h"
#include "util/thread_pool.h"

namespace perfbench {

/// The three save/recover workloads (see README.md for why each exists).
enum class WorkloadKind {
  kBaSnapshot,
  kPuaChain,
  kMpaReplay,
};

mmlib::Result<WorkloadKind> ParseWorkload(std::string_view name);
std::string_view WorkloadName(WorkloadKind kind);

/// The TTS/TTR figures' storage set-up (bench::RemoteBacking: in-memory
/// document and file stores behind simnet remote clients on the
/// storage-service link). A traced instance puts TracedDocumentStore and
/// TracedFileStore between core and the remote clients.
class Stores {
 public:
  Stores(mmlib::util::ThreadPool* pool, bool traced);

  Stores(const Stores&) = delete;
  Stores& operator=(const Stores&) = delete;

  /// What core is given: the (traced) remote stores, the network, the pool.
  const mmlib::core::StorageBackends& backends() const { return backends_; }
  /// The stores without simnet in front: bookkeeping through them (stored
  /// bytes, clean-up) charges no virtual time.
  const mmlib::core::StorageBackends& local() const { return local_; }

  const mmlib::simnet::Network& network() const { return remote_.network; }
  /// Null when untraced.
  Tracer* tracer() const { return tracer_.get(); }
  /// Zero when untraced.
  StoreCounters file_counters() const;
  StoreCounters doc_counters() const;

 private:
  mmlib::bench::RemoteBacking remote_;
  std::unique_ptr<Tracer> tracer_;
  std::unique_ptr<TracedDocumentStore> docs_traced_;
  std::unique_ptr<TracedFileStore> files_traced_;
  mmlib::core::StorageBackends backends_;
  mmlib::core::StorageBackends local_;
};

/// Cost of one timed operation. Wall and virtual time are kept apart.
struct OpSample {
  uint64_t wall_ns = 0;
  /// simnet virtual time (Network::TotalTransferSeconds delta).
  uint64_t virtual_ns = 0;
  /// simnet bytes moved (Network::TotalBytes delta).
  uint64_t net_bytes = 0;
  /// Bytes added to both stores.
  int64_t stored_bytes = 0;
  /// Traced runs: the operation's span and the store work inside it.
  uint64_t span_id = 0;
  StoreCounters files;
  StoreCounters docs;
};

/// One closed-loop iteration: a timed save, then a timed recover of what
/// was saved. `failed` counts operations that errored or recovered a model
/// that does not match what was saved.
struct Iteration {
  OpSample save;
  OpSample recover;
  uint64_t raw_param_bytes = 0;
  int attempted = 0;
  int failed = 0;
  std::string error;

  /// The numbers that must repeat exactly for one seed, traced or not
  /// (virtual time, simnet bytes, stored bytes, parameter bytes).
  std::vector<int64_t> Deterministic() const;
  /// The store calls and bytes the traced decorators counted (all 0 when
  /// untraced); they too must repeat exactly for one seed.
  std::vector<int64_t> StoreWork() const;
};

/// One workload: the saved chain a timed operation builds on, and a few
/// pre-generated model versions the timed loop saves and recovers in turn.
class Workload {
 public:
  /// Depth (links below the initial snapshot) of every timed recovery.
  static size_t ChainDepth(WorkloadKind kind);

  /// Builds the model, its versions and the saved chain on `stores`.
  static mmlib::Result<std::unique_ptr<Workload>> Create(
      WorkloadKind kind, uint64_t seed, mmlib::util::ThreadPool* pool,
      Stores* stores);

  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  /// Saves version `index % versions` as a child of the chain's base,
  /// recovers it, checks it, and deletes it again (untimed).
  Iteration Run(size_t index);

  WorkloadKind kind() const { return kind_; }
  const mmlib::models::ModelConfig& model_config() const { return config_; }
  const mmlib::nn::Model& version_model(size_t v) const {
    return versions_[v].model;
  }
  /// Training inputs of the MPA workload; null / unused elsewhere.
  const mmlib::data::Dataset* dataset() const { return dataset_.get(); }
  const mmlib::core::TrainConfig& train_config() const { return train_; }

 private:
  struct Version {
    mmlib::nn::Model model{""};
    mmlib::Digest expected_hash;
    mmlib::core::ProvenanceData provenance;
  };

  Workload(WorkloadKind kind, uint64_t seed, mmlib::util::ThreadPool* pool,
           Stores* stores);

  mmlib::Status Build();
  mmlib::Result<mmlib::nn::Model> NewModel() const;
  mmlib::Result<mmlib::nn::Model> CopyModel(const mmlib::nn::Model& source)
      const;
  mmlib::core::TrainConfig TrainConfigFor(uint64_t train_seed) const;
  /// Trains `model` in place (MPA) and returns the captured provenance.
  mmlib::Result<mmlib::core::ProvenanceData> Train(mmlib::nn::Model* model,
                                                   uint64_t train_seed) const;
  /// Makes the model a new version (perturbation or training).
  mmlib::Status Update(mmlib::nn::Model* model, uint64_t update_seed,
                       mmlib::core::ProvenanceData* provenance) const;
  mmlib::Result<std::string> Save(mmlib::nn::Model* model,
                                  const std::string& base_id,
                                  const mmlib::core::ProvenanceData* prov);

  WorkloadKind kind_;
  uint64_t seed_;
  mmlib::util::ThreadPool* pool_;
  Stores* stores_;
  mmlib::models::ModelConfig config_;
  mmlib::core::TrainConfig train_;
  std::unique_ptr<mmlib::data::InMemoryDataset> dataset_;
  mmlib::env::EnvironmentInfo environment_;
  mmlib::json::Value code_;
  std::unique_ptr<mmlib::core::SaveService> service_;
  mmlib::core::ModelRecoverer recoverer_;
  mmlib::core::ModelCatalog local_catalog_;
  std::string base_id_;
  std::vector<Version> versions_;
};

}  // namespace perfbench
