#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/types.h"
#include "data/dataset.h"
#include "env/environment.h"
#include "nn/model.h"
#include "util/result.h"

namespace mmlib::core {

/// Resolves externally managed datasets by name and content hash (used only
/// when models were saved with ProvenanceOptions::external_dataset_manager).
class DatasetResolver {
 public:
  virtual ~DatasetResolver() = default;
  virtual Result<std::unique_ptr<data::Dataset>> Resolve(
      const std::string& dataset_name,
      const std::string& content_hash_hex) = 0;
};

/// A recovered model together with verification outcomes and the per-step
/// timing breakdown of paper Figure 12.
struct RecoveredModel {
  nn::Model model{""};
  std::string model_id;
  RecoverBreakdown breakdown;
  /// True when RecoverOptions::verify_checksum was set and the recovered
  /// parameter hash matched the stored checksum.
  bool checksum_verified = false;
  /// True when RecoverOptions::check_environment was set and the current
  /// environment matched the saved one.
  bool environment_matches = false;
  std::vector<std::string> environment_diffs;
};

/// Recovers models saved by any of the three approaches. Recovery of
/// derived models saved with the PUA or MPA is a recursive process: the
/// base model is recovered first, then the parameter update is merged (PUA)
/// or the training reproduced (MPA) — paper Sections 3.2/3.3.
class ModelRecoverer {
 public:
  explicit ModelRecoverer(StorageBackends backends) : backends_(backends) {}

  /// Sets the resolver for externally managed datasets; optional.
  void set_dataset_resolver(DatasetResolver* resolver) {
    dataset_resolver_ = resolver;
  }

  /// Payloads re-fetched because their per-chunk CRC-32 (or structural)
  /// check failed — the copy in the store is intact, so a payload damaged
  /// in flight is simply requested again instead of aborting the recovery.
  uint64_t corruption_refetches() const { return corruption_refetches_; }

  /// Recovers the model with `id`, verifying according to `options`.
  /// Verification failures surface as Corruption/FailedPrecondition errors;
  /// the flags in RecoveredModel report what was checked.
  Result<RecoveredModel> Recover(const std::string& id,
                                 const RecoverOptions& options);

  /// Returns the number of models in the transitive base chain of `id`
  /// (0 for an initial model).
  Result<size_t> BaseChainLength(const std::string& id);

 private:
  Result<nn::Model> RecoverInternal(const std::string& id,
                                    RecoverBreakdown* breakdown, int depth);

  /// Loads a parameter payload (snapshot or layer update), decoding chunked
  /// frames and re-fetching when a chunk checksum fails.
  Result<Bytes> FetchParamsPayload(const std::string& file_id);

  StorageBackends backends_;
  DatasetResolver* dataset_resolver_ = nullptr;
  uint64_t corruption_refetches_ = 0;
};

}  // namespace mmlib::core

