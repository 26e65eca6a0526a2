#pragma once

#include <memory>
#include <string>
#include <vector>

#include "kernels/conv_plan.h"
#include "nn/layer.h"

namespace mmlib::nn {

/// 2D convolution over NCHW inputs, optionally grouped (groups == in_channels
/// gives a depthwise convolution as used by MobileNetV2). No bias — all zoo
/// architectures follow conv → batch-norm, where a bias is redundant.
///
/// Both execution modes run every shape through a kernels::ConvPlan
/// (im2col + cache-blocked GEMM, or the direct kernel for depthwise/tiny
/// shapes). Deterministic mode keeps the plan's fixed reduction order, so
/// results are bit-identical at any pool size; non-deterministic mode lets
/// the GEMMs split their reductions at scheduler-drawn points (split-K,
/// the CPU counterpart of the GPU kernels paper Figure 13 measures).
///
/// The weight is Kaiming-normal initialized from `rng`; a null `rng` leaves
/// it zero and draws nothing (models::BuildModelWithParams, which loads a
/// snapshot over it straight away).
class Conv2d : public Layer {
 public:
  Conv2d(std::string name, int64_t in_channels, int64_t out_channels,
         int64_t kernel_size, int64_t stride, int64_t padding, int64_t groups,
         Rng* rng);

  std::string_view type() const override { return "conv2d"; }

  Result<Tensor> Forward(const std::vector<const Tensor*>& inputs,
                         ExecutionContext* ctx) override;
  Result<std::vector<Tensor>> Backward(
      const std::vector<const Tensor*>& inputs, const Tensor& grad_output,
      ExecutionContext* ctx) override;

  int64_t in_channels() const { return in_channels_; }
  int64_t out_channels() const { return out_channels_; }
  int64_t kernel_size() const { return kernel_size_; }

 private:
  /// Points plan_ at the PlanCache plan for this input geometry.
  void RefreshPlan(int64_t batch, int64_t height, int64_t width,
                   int64_t out_h, int64_t out_w);

  int64_t in_channels_;
  int64_t out_channels_;
  int64_t kernel_size_;
  int64_t stride_;
  int64_t padding_;
  int64_t groups_;
  /// Plan for the last Forward geometry; refreshed from the PlanCache when
  /// the input shape changes. Null until the first Forward.
  std::shared_ptr<const kernels::ConvPlan> plan_;
};

}  // namespace mmlib::nn

