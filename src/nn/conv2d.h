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
/// Determinism: in deterministic mode every shape runs through a
/// kernels::ConvPlan (im2col + cache-blocked GEMM, or the direct kernel for
/// depthwise/tiny shapes) whose reduction order is a pure function of the
/// shape, so results are bit-identical at any pool size. Only
/// non-deterministic executions use the layer's own loop, with its
/// scheduler-driven reduction splits (the mechanism behind paper Figure
/// 13's determinism overhead comparison).
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
  Result<std::vector<Tensor>> Backward(const Tensor& grad_output,
                                       ExecutionContext* ctx) override;

  int64_t in_channels() const { return in_channels_; }
  int64_t out_channels() const { return out_channels_; }
  int64_t kernel_size() const { return kernel_size_; }

 private:
  /// Copies the receptive field at (oy, ox) for group `g` of sample `n`
  /// into `patch` (zero-padded borders).
  void GatherPatch(const float* input, int64_t height, int64_t width,
                   int64_t n, int64_t g, int64_t oy, int64_t ox,
                   float* patch) const;

  /// Points plan_ at the PlanCache plan for this input geometry.
  void RefreshPlan(int64_t batch, int64_t height, int64_t width,
                   int64_t out_h, int64_t out_w);

  int64_t in_channels_;
  int64_t out_channels_;
  int64_t kernel_size_;
  int64_t stride_;
  int64_t padding_;
  int64_t groups_;
  int64_t group_in_;   // in channels per group
  int64_t group_out_;  // out channels per group
  Tensor cached_input_;
  int64_t cached_out_h_ = 0;  // output extent of the last Forward
  int64_t cached_out_w_ = 0;
  bool has_forward_ = false;
  /// Plan for the last Forward geometry; refreshed from the PlanCache when
  /// the input shape changes. Null until the first deterministic Forward.
  std::shared_ptr<const kernels::ConvPlan> plan_;
};

}  // namespace mmlib::nn

