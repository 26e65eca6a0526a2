#pragma once

#include <atomic>
#include <cstdint>
#include <exception>
#include <mutex>
#include <string>

#include "core/types.h"
#include "util/bytes.h"
#include "util/random.h"
#include "util/result.h"
#include "util/worker_thread.h"

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

struct CheckpointOptions {
  /// Persist a checkpoint every this many optimizer steps (plus one at step
  /// zero when a run starts, so even an immediate crash loses nothing that
  /// was handed to the run).
  int64_t every_steps = 1;
  /// Delete a run's older checkpoints after each successful write; only the
  /// latest is ever needed, and pruning keeps checkpoint storage O(1).
  bool prune_previous = true;
  /// Hand each Write to a background worker so the save overlaps the next
  /// training steps instead of stalling them. At most one save is in flight:
  /// the next Write (and any read) first waits for the previous save, so
  /// storage traffic keeps exactly the synchronous order and every flow
  /// stays bit-identical to the synchronous run. The environment variable
  /// MMLIB_ASYNC_CHECKPOINTS ("1"/"0") overrides this at manager
  /// construction, so whole test suites can be swept in either mode.
  bool async_write = false;
};

/// Persists and restores training checkpoints through the storage backends.
/// Writes go through a SaveTransaction, so with a journal attached a crash
/// mid-checkpoint rolls back cleanly on reopen and can never corrupt the
/// latest complete checkpoint — the write-ahead guarantee extends to
/// training state.
///
/// Synchronous mode stalls the caller for the whole save. Asynchronous mode
/// (CheckpointOptions::async_write) takes the snapshot the caller already
/// built and hands it to a single background worker; the caller keeps
/// training while the save runs. Ordering discipline keeps the house
/// bit-identity invariant: at most one save is in flight, the next Write
/// waits for the previous one, and every read path (LoadLatest, DeleteRun)
/// drains first — so the storage backends (and the seeded fault RNG, whose
/// draws depend only on transfer order) see exactly the synchronous
/// sequence of operations.
///
/// Virtual-time accounting makes the overlap measurable on the simulated
/// clock: callers report training compute through ChargeCompute, and at
/// each settle point (the next Write, or Drain) the async manager absorbs
/// up to the previous save's cost before charging the remainder — each
/// save window costs max(save, compute) instead of save + compute.
///
/// Crash semantics (simulated kills): crash sites cover both halves of the
/// async path. "checkpoint.enqueue" fires on the training thread before the
/// snapshot is handed off; "checkpoint.write" fires inside the save itself,
/// which in async mode runs on the worker — the worker catches the
/// CrashException there, the save is left exactly as a kill would leave it
/// (no rollback), and the exception resurfaces on the training thread at
/// the next Write/Drain, modeling the moment the training process notices
/// it is being killed.
class CheckpointManager {
 public:
  CheckpointManager(const StorageBackends& backends,
                    CheckpointOptions options);
  ~CheckpointManager();

  int64_t every_steps() const { return options_.every_steps; }
  bool async_write() const { return options_.async_write; }

  /// Persists one checkpoint (params file + binary state file + metadata
  /// document) and prunes the run's older checkpoints. Returns the
  /// checkpoint document id — in async mode a placeholder; the save
  /// completes in the background and errors surface at the next
  /// Write/Drain.
  Result<std::string> Write(TrainCheckpoint checkpoint);

  /// Loads the run's checkpoint with the highest step into `out`; returns
  /// false when the run has none. Drains any in-flight async save first.
  Result<bool> LoadLatest(const std::string& run_id, TrainCheckpoint* out);

  /// Removes every checkpoint of a run (files and documents); call once
  /// the run's result is durably saved and the checkpoints are dead weight.
  /// Drains any in-flight async save first.
  Status DeleteRun(const std::string& run_id);

  /// Reports virtual training-compute seconds spent since the last settle
  /// point. Settled lazily: in async mode, compute that overlapped an
  /// in-flight save is absorbed into the save's already-charged cost; the
  /// remainder (and all of it in sync mode) is charged to the network's
  /// virtual clock. No-op without a network backend.
  void ChargeCompute(double seconds);

  /// Waits for any in-flight async save, settles compute accounting, and
  /// surfaces deferred outcomes: rethrows a CrashException a crash site
  /// raised on the worker, and returns the first async save error.
  Status Drain();

  /// Crash-path drain: waits for any in-flight async save to finish (the
  /// background I/O a kill races with), settles compute accounting, and
  /// discards deferred worker outcomes — the caller is already unwinding a
  /// crash of its own. Never throws.
  void FinishInFlight();

  /// Checkpoints successfully written by this manager.
  uint64_t checkpoints_written() const {
    return checkpoints_written_.load(std::memory_order_acquire);
  }

  /// Virtual compute seconds absorbed into async save windows so far — the
  /// stall time the non-blocking pipeline saved versus synchronous writes.
  double overlapped_seconds() const;

 private:
  /// The actual save (both modes); contains crash site "checkpoint.write".
  Result<std::string> WriteNow(const TrainCheckpoint& checkpoint);
  /// Hands one snapshot to the background worker (async mode). Callers must
  /// have awaited the previous save; reached only behind the
  /// "checkpoint.enqueue" crash site in Write.
  void SubmitCheckpointSave(TrainCheckpoint checkpoint);
  /// Waits for the worker and rethrows/returns its deferred outcome.
  Status AwaitInFlight();
  /// Charges unabsorbed pending compute to the virtual clock.
  void SettleCompute();
  Status DeleteCheckpointDoc(const std::string& doc_id);

  StorageBackends backends_;
  CheckpointOptions options_;
  std::atomic<uint64_t> checkpoints_written_{0};

  // Async state. `async_mu_` guards the deferred-outcome fields written by
  // the worker; the worker is quiet outside Submit..Drain windows, so the
  // accounting fields are only ever touched by one thread at a time.
  mutable std::mutex async_mu_;
  std::exception_ptr pending_crash_;
  Status async_status_ = Status::OK();
  /// Virtual cost of the last async save, not yet used to absorb compute.
  double unabsorbed_save_seconds_ = 0.0;
  /// Compute reported since the last settle point.
  double pending_compute_seconds_ = 0.0;
  double overlapped_seconds_ = 0.0;
  util::WorkerThread worker_;
};

}  // namespace mmlib::core
