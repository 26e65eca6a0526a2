#pragma once

#include <cstdint>
#include <string>

#include "core/types.h"
#include "util/bytes.h"
#include "util/random.h"
#include "util/result.h"

namespace mmlib::core {

/// Collection holding checkpoint metadata documents.
inline constexpr const char* kCheckpointsCollection = "checkpoints";

/// Everything a deterministic training run needs to continue mid-stream and
/// land bit-identically on the uninterrupted result: the model parameters,
/// the optimizer's accumulated state (SGD momentum *and* the scheduled
/// learning rate), the execution context's RNG cursor (dropout and
/// augmentation draws consumed so far), and the data-loader position.
/// The loader itself is stateless given (seed, epoch, batch), so its
/// position is just the two indices.
struct TrainCheckpoint {
  std::string run_id;
  /// Optimizer steps completed.
  int64_t step = 0;
  /// Epoch the run was in when the checkpoint was taken.
  int64_t epoch = 0;
  /// Next batch index within `epoch` (may equal the batch count, meaning
  /// the epoch's batches are done but its LR decay has not applied yet —
  /// resume re-applies it, exactly like the uninterrupted run would have).
  int64_t next_batch = 0;
  Bytes model_params;
  Bytes optimizer_state;
  RngState rng;
  float last_loss = 0.0f;
};

/// Persists and restores training checkpoints through the storage backends.
/// Writes go through a SaveTransaction, so with a journal attached a crash
/// mid-checkpoint rolls back cleanly on reopen and can never corrupt the
/// latest complete checkpoint — the write-ahead guarantee extends to
/// training state. Every Write stalls the caller for the whole save.
///
/// Virtual-time accounting: callers report training compute through
/// ChargeCompute, which charges it to the network's virtual clock at once,
/// so a run's clock reads transfer time plus compute in execution order.
class CheckpointManager {
 public:
  /// Persists a checkpoint every `every_steps` optimizer steps (plus one at
  /// step zero when a run starts, so even an immediate crash loses nothing
  /// that was handed to the run).
  CheckpointManager(const StorageBackends& backends, int64_t every_steps);

  int64_t every_steps() const { return every_steps_; }

  /// Persists one checkpoint (params file + binary state file + metadata
  /// document), then deletes the run's older checkpoints: only the latest
  /// is ever needed, and pruning keeps checkpoint storage O(1). Returns the
  /// checkpoint document id. Crash site "checkpoint.write".
  Result<std::string> Write(const TrainCheckpoint& checkpoint);

  /// Loads the run's checkpoint with the highest step into `out`; returns
  /// false when the run has none.
  Result<bool> LoadLatest(const std::string& run_id, TrainCheckpoint* out);

  /// Removes every checkpoint of a run (files and documents); call once
  /// the run's result is durably saved and the checkpoints are dead weight.
  Status DeleteRun(const std::string& run_id);

  /// Charges `seconds` of virtual training compute to the network's
  /// virtual clock. No-op without a network backend.
  void ChargeCompute(double seconds);

  /// Checkpoints successfully written by this manager.
  uint64_t checkpoints_written() const { return checkpoints_written_; }

 private:
  Status DeleteCheckpointDoc(const std::string& doc_id);

  StorageBackends backends_;
  int64_t every_steps_;
  uint64_t checkpoints_written_ = 0;
};

}  // namespace mmlib::core
