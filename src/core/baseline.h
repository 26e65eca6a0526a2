#pragma once

#include "core/save_service.h"

namespace mmlib::core {

/// Baseline approach (BA, paper Section 3.1): saves a complete snapshot of
/// every model — metadata, architecture code, environment, and the full
/// serialized parameters — ignoring any similarity to the base model.
class BaselineSaveService : public SaveService {
 public:
  explicit BaselineSaveService(StorageBackends backends)
      : SaveService(backends) {}

  std::string_view approach() const override { return kApproachBaseline; }

  Result<SaveResult> SaveModel(const SaveRequest& request) override;
};

}  // namespace mmlib::core

