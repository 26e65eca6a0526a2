#pragma once

#include <string>

#include "compress/codec.h"
#include "core/save_service.h"
#include "hash/sha256.h"
#include "util/bytes.h"

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
///
/// The service memoises the archive of the most recent dataset, keyed by
/// (name, content hash): the archive is a pure function of those and of the
/// fixed codec, so derived saves that train on one dataset compress it once
/// and every save still writes its own, byte-identical dataset file. The
/// memo makes SaveModel non-reentrant; no caller shares one service across
/// threads (flows and the serving backend save from one thread each).
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
  // Archive of the last archived dataset; empty until the first archive.
  std::string memo_name_;
  Digest memo_hash_{};
  Bytes memo_archive_;
};

}  // namespace mmlib::core

