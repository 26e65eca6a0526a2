#pragma once

#include "compress/codec.h"
#include "core/save_service.h"

namespace mmlib::core {

/// Options of the model provenance approach.
struct ProvenanceOptions {
  /// Codec used to archive training datasets to a single file.
  CodecKind dataset_codec = CodecKind::kLz77;
  /// When set, datasets are assumed to be managed by a dedicated external
  /// system (paper Section 3.3 "Managing Data sets", citing Agrawal et al.):
  /// only a content-hash reference is stored instead of the archive.
  /// Recovery then resolves the reference through a DatasetResolver.
  bool external_dataset_manager = false;
};

/// Model provenance approach (MPA, paper Section 3.3): an initial model is
/// saved like the baseline; a derived model is represented by (1) the
/// training process (TrainService and wrapper documents), (2) the training
/// environment, (3) the training data (archived to one file), and (4) a
/// reference to the base model — instead of any parameters.
class ProvenanceSaveService : public SaveService {
 public:
  ProvenanceSaveService(StorageBackends backends, ProvenanceOptions options)
      : SaveService(backends), options_(options) {}
  explicit ProvenanceSaveService(StorageBackends backends)
      : ProvenanceSaveService(backends, ProvenanceOptions{}) {}

  std::string_view approach() const override { return kApproachProvenance; }

  /// For derived models, request.provenance must be set and captured
  /// *before* the training that produced request.model ran.
  Result<SaveResult> SaveModel(const SaveRequest& request) override;

 private:
  ProvenanceOptions options_;
};

}  // namespace mmlib::core

