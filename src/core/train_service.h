#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>

#include "core/checkpoint.h"
#include "data/archive.h"
#include "data/dataloader.h"
#include "data/dataset.h"
#include "json/json.h"
#include "nn/model.h"
#include "nn/optimizer.h"
#include "util/result.h"

namespace mmlib::core {

/// Everything a training run depends on besides the base model and code:
/// hyperparameters, epoch/batch limits, the seed for intentional randomness,
/// SGD and dataloader configuration. Serializable to JSON — this is
/// the static part of the provenance data (paper Section 3.3).
struct TrainConfig {
  int64_t epochs = 2;
  /// Limit on batches per epoch; -1 trains on the full dataset. The paper's
  /// evaluation "ran the model training only for two epochs with two
  /// batches" to keep the extensive evaluation feasible (Section 4.4).
  int64_t max_batches_per_epoch = 2;
  uint64_t seed = 42;
  nn::SgdOptions sgd;
  /// Step learning-rate schedule: every `lr_decay_every_epochs` epochs the
  /// learning rate is multiplied by `lr_decay_gamma`. Gamma 1 disables the
  /// schedule. Scheduling is pure training logic — it is replayed from this
  /// config on recovery, not stored as state.
  double lr_decay_gamma = 1.0;
  int64_t lr_decay_every_epochs = 1;
  data::DataLoaderOptions loader;

  json::Value ToJson() const;
  static Result<TrainConfig> FromJson(const json::Value& doc);
};

/// The dynamic inputs of one upcoming training run, captured *before* the
/// training starts (paper: "For every object referenced as part of the
/// training process, we save its state before the training starts").
struct ProvenanceData {
  /// Serialized TrainService: class name, config, wrapper objects.
  json::Value train_service_doc;
  /// State file of the stateful optimizer wrapper; empty when the optimizer
  /// has no accumulated state yet.
  Bytes optimizer_state;
  /// The dataset that will be trained on; archived by the save service.
  const data::Dataset* dataset = nullptr;
};

/// Defines the logic to train a given model (paper Section 3.3, Figure 5).
/// A TrainService references the objects relevant for training (optimizer,
/// dataloader, dataset) wrapped in serializable wrapper objects.
class TrainService {
 public:
  virtual ~TrainService() = default;

  /// Stable class name used to restore the service from provenance data.
  virtual std::string_view class_name() const = 0;

  /// Trains `model` in place. With `deterministic` set, the run is
  /// bit-reproducible from the captured provenance; otherwise
  /// `scheduler_seed` perturbs kernel reduction orders (modeling an
  /// uncontrolled parallel device). Returns per-phase timings.
  virtual Result<nn::PhaseTimes> Train(nn::Model* model, bool deterministic,
                                       uint64_t scheduler_seed) = 0;

  /// Captures the provenance of the *next* Train call.
  virtual Result<ProvenanceData> CaptureProvenance() = 0;
};

/// Trains an image classifier with SGD over a DataLoader — the reproduction
/// of the paper's ImageNetTrainService example (Figure 5).
class ImageTrainService : public TrainService {
 public:
  /// `dataset` must outlive the service.
  ImageTrainService(const data::Dataset* dataset, TrainConfig config);

  /// Restores a service from its provenance documents; takes ownership of
  /// the extracted dataset.
  static Result<std::unique_ptr<ImageTrainService>> FromProvenance(
      const json::Value& train_service_doc, Bytes optimizer_state,
      std::unique_ptr<data::Dataset> dataset);

  std::string_view class_name() const override { return "ImageTrainService"; }

  Result<nn::PhaseTimes> Train(nn::Model* model, bool deterministic,
                               uint64_t scheduler_seed) override;

  /// Continues an interrupted deterministic Train of `run_id` (see
  /// set_checkpoints) from its latest checkpoint: restores the model
  /// parameters, optimizer state (including the scheduled learning rate),
  /// RNG cursor, and data-loader position, then trains the remaining steps.
  /// The final state dict is bit-identical to the uninterrupted run, at any
  /// pool size. Falls back to a full Train when the run has no checkpoint.
  Result<nn::PhaseTimes> Resume(nn::Model* model);

  Result<ProvenanceData> CaptureProvenance() override;

  const TrainConfig& config() const { return config_; }
  const data::Dataset* dataset() const { return dataset_; }

  /// Loss observed in the most recent Train call (last batch).
  float last_loss() const { return last_loss_; }

  /// Thread pool used by the training ExecutionContexts; the process-wide
  /// pool when unset. Deterministic chunking makes the choice pure
  /// performance configuration — deterministic replays are bit-identical
  /// for any pool size. The pool must outlive the service's Train calls.
  void set_thread_pool(util::ThreadPool* pool) { pool_ = pool; }

  /// Attaches checkpointing: every subsequent *deterministic* Train call
  /// writes a checkpoint under `run_id` at step 0 and then every
  /// `manager->every_steps()` optimizer steps, and Resume() restarts from
  /// the run's latest checkpoint. Pass nullptr to detach. The manager must
  /// outlive the service's Train/Resume calls. Crash site "train.step"
  /// fires at the top of every optimizer step.
  void set_checkpoints(CheckpointManager* manager, std::string run_id) {
    checkpoints_ = manager;
    checkpoint_run_id_ = std::move(run_id);
  }

  /// Virtual-clock cost charged per optimizer step through the checkpoint
  /// manager (simnet flows only; 0 disables). Makes training compute
  /// visible on the simulated clock so checkpoint stalls and retrained
  /// steps have measurable cost. Requires set_checkpoints.
  void set_step_compute_seconds(double seconds) {
    step_compute_seconds_ = seconds;
  }

  /// Synchronization barrier of a data-parallel step: called between
  /// Backward and the optimizer step with the 1-based index of the step
  /// about to be applied. The hook may rewrite the model's gradients (ring
  /// all-reduce); a non-OK status aborts the run, and a CrashException
  /// thrown inside the hook unwinds like any armed crash point. Pass an
  /// empty function to detach.
  using StepSyncHook = std::function<Status(nn::Model*, int64_t step)>;
  void set_step_sync_hook(StepSyncHook hook) {
    step_sync_hook_ = std::move(hook);
  }

  /// Step the most recent Resume() continued from (0 when it fell back to a
  /// full Train); `completed steps before the crash - resumed_from_step()`
  /// is the work the crash destroyed.
  int64_t resumed_from_step() const { return resumed_from_step_; }

  /// Serialized state of the current optimizer; the pending (restored but
  /// not yet applied) state before the first Train, empty when neither
  /// exists. Lets tests compare optimizer state across runs byte for byte.
  Bytes SerializedOptimizerState() const {
    if (optimizer_.has_value()) {
      return optimizer_->SerializeState();
    }
    return pending_optimizer_state_;
  }

 private:
  Result<nn::PhaseTimes> RunTraining(nn::Model* model, bool deterministic,
                                     uint64_t scheduler_seed,
                                     const TrainCheckpoint* resume_from);
  Status WriteCheckpoint(nn::Model* model, const Rng& rng, int64_t step,
                         int64_t epoch, int64_t next_batch);
  std::unique_ptr<data::Dataset> owned_dataset_;
  const data::Dataset* dataset_;
  TrainConfig config_;
  std::optional<nn::SgdOptimizer> optimizer_;
  nn::Model* bound_model_ = nullptr;
  Bytes pending_optimizer_state_;
  float last_loss_ = 0.0f;
  util::ThreadPool* pool_ = nullptr;
  CheckpointManager* checkpoints_ = nullptr;
  std::string checkpoint_run_id_;
  double step_compute_seconds_ = 0.0;
  StepSyncHook step_sync_hook_;
  int64_t resumed_from_step_ = 0;
};

/// Restores any registered TrainService implementation from its provenance
/// documents. Dispatches on the stored class name — the reproduction of the
/// paper's wrapper mechanism ("its class name; the code or ... the import
/// command").
Result<std::unique_ptr<TrainService>> RestoreTrainService(
    const json::Value& train_service_doc, Bytes optimizer_state,
    std::unique_ptr<data::Dataset> dataset);

}  // namespace mmlib::core

