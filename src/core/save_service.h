#pragma once

#include <memory>
#include <string>

#include "core/save_txn.h"
#include "core/train_service.h"
#include "core/types.h"
#include "hash/merkle_tree.h"
#include "env/environment.h"
#include "json/json.h"
#include "nn/model.h"
#include "util/bytes.h"
#include "util/result.h"

namespace mmlib::core {

/// One save operation's inputs.
struct SaveRequest {
  /// The model to save, in its post-training state. Not owned.
  nn::Model* model = nullptr;
  /// Code descriptor of the model architecture (see core/model_code.h).
  json::Value code;
  /// Environment the model was produced in. Not owned.
  const env::EnvironmentInfo* environment = nullptr;
  /// Id of the base model; empty for an initial model (use case U1).
  std::string base_model_id;
  /// Provenance of the training that produced this model; required by the
  /// model provenance approach for derived models, ignored otherwise.
  const ProvenanceData* provenance = nullptr;
};

/// Common interface of the three approaches (paper Section 3): the baseline
/// approach (BA), the parameter update approach (PUA), and the model
/// provenance approach (MPA). All approaches cover the same operations:
/// saving a model and producing metadata that a ModelRecoverer can turn back
/// into an equal model.
class SaveService {
 public:
  explicit SaveService(StorageBackends backends) : backends_(backends) {}
  virtual ~SaveService() = default;

  SaveService(const SaveService&) = delete;
  SaveService& operator=(const SaveService&) = delete;

  /// Approach tag stored in model documents ("baseline", "param_update",
  /// "provenance").
  virtual std::string_view approach() const = 0;

  /// Saves a model and returns its generated id together with the measured
  /// time-to-save and storage consumption (excluding the base model).
  virtual Result<SaveResult> SaveModel(const SaveRequest& request) = 0;

  const StorageBackends& backends() const { return backends_; }

 protected:
  /// Encodes a parameter payload into a chunked frame (see
  /// compress/chunked.h) on the backends' pool. Frames use the identity
  /// codec: the payload bytes stay uncompressed but gain per-chunk
  /// checksums, and the frame bytes are identical for every pool size.
  Result<Bytes> EncodeParams(const Bytes& params) const;

  /// Persists the environment document through `txn`; returns its id.
  Result<std::string> SaveEnvironment(const env::EnvironmentInfo& info,
                                      SaveTransaction& txn);

  /// Persists the code descriptor document through `txn`; returns its id.
  Result<std::string> SaveCode(const json::Value& code, SaveTransaction& txn);

  /// Builds the common part of a model document: approach, base reference,
  /// code/env references, the persisted layer-hash Merkle tree, and
  /// checksums of the saved model. Every write goes through `txn` so a save
  /// that fails later rolls them back. When `tree_out` is non-null it
  /// receives the computed Merkle tree (avoids recomputing layer hashes).
  Result<json::Value> MakeModelDoc(const SaveRequest& request,
                                   SaveTransaction& txn,
                                   MerkleTree* tree_out = nullptr);

  StorageBackends backends_;
};

}  // namespace mmlib::core

