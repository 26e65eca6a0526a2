#pragma once

#include <memory>

#include "core/baseline.h"
#include "core/param_update.h"
#include "core/provenance.h"
#include "core/save_service.h"

namespace mmlib::core {

/// Adaptive approach (the future-work direction sketched in paper Section
/// 4.7): chooses per model whichever approach (BA, PUA, or MPA) is expected
/// to consume the least storage, based on the observation that the BA and
/// PUA costs depend on the (changed) model parameters while the MPA cost
/// depends on the training dataset.
///
/// All three underlying approaches share the same document schema, so a
/// single ModelRecoverer recovers adaptive chains transparently — including
/// chains that mix approaches.
class AdaptiveSaveService : public SaveService {
 public:
  /// `provenance` configures the MPA path.
  AdaptiveSaveService(StorageBackends backends, ProvenanceOptions provenance);
  explicit AdaptiveSaveService(StorageBackends backends)
      : AdaptiveSaveService(backends, ProvenanceOptions{}) {}

  std::string_view approach() const override { return "adaptive"; }

  Result<SaveResult> SaveModel(const SaveRequest& request) override;

  /// The approach selected by the most recent SaveModel call.
  std::string_view last_choice() const { return last_choice_; }

  /// Storage estimates computed for the most recent SaveModel call (bytes).
  struct Estimates {
    size_t baseline = 0;
    size_t param_update = 0;
    size_t provenance = 0;  // 0 when no provenance data was supplied
  };
  const Estimates& last_estimates() const { return last_estimates_; }

 private:
  /// Estimates the parameter-update payload by diffing against the base
  /// model's persisted Merkle tree; falls back to the full size when the
  /// base has no usable tree.
  Result<size_t> EstimateUpdateBytes(const SaveRequest& request);

  BaselineSaveService baseline_;
  ParamUpdateSaveService param_update_;
  ProvenanceSaveService provenance_service_;
  std::string_view last_choice_ = "";
  Estimates last_estimates_;
};

}  // namespace mmlib::core

