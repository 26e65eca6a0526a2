#pragma once

#include <cstdint>
#include <string>

#include "docstore/document_store.h"
#include "filestore/file_store.h"
#include "simnet/network.h"
#include "util/clock.h"

namespace mmlib::util {
class ThreadPool;
}

namespace mmlib::core {

/// Document collections used by all approaches.
inline constexpr const char* kModelsCollection = "models";
inline constexpr const char* kCodeCollection = "code";
inline constexpr const char* kEnvironmentsCollection = "environments";
inline constexpr const char* kProvenanceCollection = "provenance";

/// Approach tags stored in model documents.
inline constexpr const char* kApproachBaseline = "baseline";
inline constexpr const char* kApproachParamUpdate = "param_update";
inline constexpr const char* kApproachProvenance = "provenance";

/// The storage backends a save service operates against: a document database
/// for metadata and a shared file store for binary payloads (paper Section
/// 3.1 "Model Storage"). `network` is optional; when set, its virtual
/// transfer time is included in measured durations (distributed setups).
struct StorageBackends {
  docstore::DocumentStore* docs = nullptr;
  filestore::FileStore* files = nullptr;
  simnet::Network* network = nullptr;
  /// Pool for parallel payload encoding/decoding and Merkle-leaf hashing;
  /// the process-wide pool when null.
  util::ThreadPool* pool = nullptr;
  /// Write-ahead save journal. When set, SaveTransaction logs every write
  /// intent durably before writing, and the persistent stores roll
  /// half-finished saves back on reopen (crash consistency). Null keeps the
  /// in-process-rollback-only behavior (fine for in-memory stores).
  persist::SaveJournal* journal = nullptr;

  size_t TotalStoredBytes() const {
    return docs->TotalStoredBytes() + files->TotalStoredBytes();
  }
};

/// Times one operation or phase of it: wall-clock seconds plus any
/// simulated network transfer seconds consumed while the timer ran.
class PhaseTimer {
 public:
  explicit PhaseTimer(simnet::Network* network)
      : network_(network),
        start_network_seconds_(
            network != nullptr ? network->TotalTransferSeconds() : 0.0) {}

  /// Elapsed seconds: wall time + network virtual time.
  double ElapsedSeconds() const {
    double seconds = stopwatch_.ElapsedSeconds();
    if (network_ != nullptr) {
      seconds += network_->TotalTransferSeconds() - start_network_seconds_;
    }
    return seconds;
  }

 private:
  Stopwatch stopwatch_;
  simnet::Network* network_;
  double start_network_seconds_;
};

/// Measures the cost of one save/recover operation: its elapsed seconds
/// (see PhaseTimer) and the bytes it added to the stores.
class CostMeter {
 public:
  explicit CostMeter(const StorageBackends& backends)
      : start_bytes_(backends.TotalStoredBytes()),
        timer_(backends.network),
        backends_(backends) {}

  double ElapsedSeconds() const { return timer_.ElapsedSeconds(); }

  /// Bytes added to (or removed from) the stores since construction.
  int64_t StoredBytesDelta() const {
    return static_cast<int64_t>(backends_.TotalStoredBytes()) -
           static_cast<int64_t>(start_bytes_);
  }

 private:
  // Declared before the timer: remote stores charge the stats query to the
  // network, and that charge is not part of the measured operation.
  size_t start_bytes_;
  PhaseTimer timer_;
  StorageBackends backends_;
};

/// Outcome of saving one model.
struct SaveResult {
  std::string model_id;
  /// Time-to-save: extraction + persistence (paper Section 4.3).
  double tts_seconds = 0.0;
  /// Storage consumed by this model, excluding its base model (Section 4.2).
  int64_t storage_bytes = 0;
};

/// Per-step timing of a recovery (paper Figure 12): loading the model data,
/// recovering the model from it, verifying the environment, verifying the
/// recovered parameters.
struct RecoverBreakdown {
  double load_seconds = 0.0;
  double recover_seconds = 0.0;
  double check_env_seconds = 0.0;
  double verify_seconds = 0.0;

  double TotalSeconds() const {
    return load_seconds + recover_seconds + check_env_seconds +
           verify_seconds;
  }
};

/// Controls optional recovery steps.
struct RecoverOptions {
  /// Compare the recovered parameter hash against the stored checksum.
  bool verify_checksum = true;
  /// Compare the current environment against the saved one.
  bool check_environment = true;
};

}  // namespace mmlib::core

