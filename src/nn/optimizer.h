#pragma once

#include <vector>

#include "nn/model.h"
#include "util/bytes.h"

namespace mmlib::nn {

/// Hyperparameters of the SGD optimizer.
struct SgdOptions {
  float learning_rate = 0.01f;
  float momentum = 0.9f;
  float weight_decay = 0.0f;
};

/// SGD with momentum over a model's trainable parameters. It is the paper's
/// canonical *stateful* object: with non-zero momentum its velocity buffers
/// cannot be recovered from the constructor arguments, so the model
/// provenance approach snapshots them to a state file (Section 3.3,
/// Figure 5). Without momentum the state file holds only the
/// hyperparameters and parameter names.
class SgdOptimizer {
 public:
  SgdOptimizer(Model* model, SgdOptions options);

  /// Applies one update step from the accumulated gradients.
  void Step();
  /// Zeroes all parameter gradients.
  void ZeroGrad() { model_->ZeroGrad(); }
  /// Serializes the optimizer's internal state (the "state file").
  Bytes SerializeState() const;
  /// Restores state produced by SerializeState; the model's trainable
  /// parameter set must match.
  Status LoadState(const Bytes& data);

  /// Current learning rate; adjustable by learning-rate schedules. The rate
  /// is part of the serialized state, so a restored optimizer resumes with
  /// the scheduled value.
  float learning_rate() const { return options_.learning_rate; }
  void SetLearningRate(float learning_rate) {
    options_.learning_rate = learning_rate;
  }

 private:
  struct Slot {
    size_t node_index;
    size_t param_index;
    Tensor velocity;
  };

  void RebuildSlots();

  Model* model_;
  SgdOptions options_;
  std::vector<Slot> slots_;
};

}  // namespace mmlib::nn

