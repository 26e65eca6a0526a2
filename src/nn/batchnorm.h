#pragma once

#include <string>
#include <vector>

#include "nn/layer.h"

namespace mmlib::nn {

/// Batch normalization over NCHW inputs (per-channel statistics).
///
/// Parameters: weight (gamma), bias (beta). Buffers: running_mean,
/// running_var — the buffers are part of the model state and are saved and
/// recovered together with the parameters (a model is only *equal* after
/// recovery if the buffers match too, paper Section 2.1).
class BatchNorm2d : public Layer {
 public:
  BatchNorm2d(std::string name, int64_t channels, float momentum = 0.1f,
              float epsilon = 1e-5f);

  std::string_view type() const override { return "batchnorm2d"; }

  Result<Tensor> Forward(const std::vector<const Tensor*>& inputs,
                         ExecutionContext* ctx) override;
  Result<std::vector<Tensor>> Backward(
      const std::vector<const Tensor*>& inputs, const Tensor& grad_output,
      ExecutionContext* ctx) override;

 private:
  /// OK iff there is one NCHW input with channels_ channels.
  Status ValidateInput(const std::vector<const Tensor*>& inputs) const;

  int64_t channels_;
  float momentum_;
  float epsilon_;
  // Per-channel batch statistics of the last Forward, read by Backward,
  // and the batch size and plane size (H * W) they were taken over; -1
  // before the first Forward.
  std::vector<float> batch_mean_;
  std::vector<float> batch_inv_std_;
  int64_t forward_batch_ = -1;
  int64_t forward_plane_ = -1;
};

}  // namespace mmlib::nn

