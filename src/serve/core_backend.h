#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/recover.h"
#include "core/save_service.h"
#include "docstore/document_store.h"
#include "env/environment.h"
#include "json/json.h"
#include "nn/model.h"
#include "repl/replicated_store.h"
#include "serve/backend.h"

namespace mmlib::serve {

/// Everything a CoreBackend borrows from the hosting flow. All pointers are
/// non-owning; `save_service`, `recoverer`, `docs`, and `network` are
/// required, `files` is optional (hedged inference reads need it).
struct CoreBackendContext {
  core::SaveService* save_service = nullptr;
  core::ModelRecoverer* recoverer = nullptr;
  docstore::DocumentStore* docs = nullptr;
  repl::ReplicatedFileStore* files = nullptr;
  simnet::Network* network = nullptr;
  /// Template model + metadata for save requests.
  nn::Model* model = nullptr;
  const env::EnvironmentInfo* environment = nullptr;
  json::Value code;
  /// Pre-saved model ids (recover / probe targets, picked by request hash).
  std::vector<std::string> model_ids;
  /// File ids of parameter payloads (hedged inference reads).
  std::vector<std::string> file_ids;
  uint64_t seed = 0xc0debac0;
};

/// The real thing behind the front end: requests execute against the
/// actual core services over replicated stores on simnet. Saves run the
/// configured save approach, recovers run ModelRecoverer, probes read model
/// metadata, inference does a hedged parameter read
/// (repl::ReplicatedFileStore::LoadFileHedged) plus an arithmetic forward
/// cost. Each op runs under a simnet::Network::DeadlineScope carrying the
/// request's deadline, so the store clients' Retriers abandon work whose
/// client has already hung up.
class CoreBackend : public ServeBackend {
 public:
  explicit CoreBackend(const CoreBackendContext& context);

  BackendOutcome Execute(const Request& request, size_t batch_size,
                         double now_seconds) override;

  /// Save and recover ops this backend ran.
  uint64_t core_ops() const { return core_ops_; }
  /// Hedged-read traffic of the inference path (mirrors the store's own
  /// counters, scoped to this backend's lifetime).
  uint64_t hedged_reads() const;
  uint64_t hedge_wins() const;

 private:
  BackendOutcome ExecuteSave(const Request& request);
  BackendOutcome ExecuteRecover(const Request& request);
  BackendOutcome ExecuteProbe(const Request& request);
  BackendOutcome ExecuteInference(const Request& request, size_t batch_size);
  /// Counts one save or recover op in core_ops(); returns its status code.
  StatusCode CountCoreOp(const Status& status);

  CoreBackendContext context_;
  uint64_t core_ops_ = 0;
  uint64_t base_hedged_reads_ = 0;
  uint64_t base_hedge_wins_ = 0;
};

}  // namespace mmlib::serve
