#pragma once

#include <cstdint>

#include "core/save_service.h"
#include "hash/merkle_tree.h"

namespace mmlib::core {

/// Parameter update approach (PUA, paper Section 3.2): an initial model is
/// saved exactly like the baseline; a derived model is saved as a reference
/// to its base model plus only the layers whose parameters changed.
///
/// Changed layers are found by comparing Merkle trees of per-layer hashes
/// (Figure 4), so saving never has to recover the base model's parameters —
/// only the base's persisted Merkle tree is loaded.
class ParamUpdateSaveService : public SaveService {
 public:
  explicit ParamUpdateSaveService(StorageBackends backends)
      : SaveService(backends) {}

  std::string_view approach() const override { return kApproachParamUpdate; }

  Result<SaveResult> SaveModel(const SaveRequest& request) override;

  /// Statistics of the most recent derived save.
  struct DiffStats {
    size_t changed_layers = 0;
    size_t total_layers = 0;
    size_t merkle_comparisons = 0;
  };
  const DiffStats& last_diff_stats() const { return last_diff_stats_; }

  /// Base Merkle trees re-fetched because the payload arrived corrupted.
  uint64_t corruption_refetches() const { return corruption_refetches_; }

 private:
  DiffStats last_diff_stats_;
  uint64_t corruption_refetches_ = 0;
};

}  // namespace mmlib::core

