#pragma once

#include <string>
#include <vector>

#include "nn/layer.h"

namespace mmlib::nn {

/// Max pooling over NCHW inputs.
class MaxPool2d : public Layer {
 public:
  MaxPool2d(std::string name, int64_t kernel_size, int64_t stride,
            int64_t padding = 0);

  std::string_view type() const override { return "maxpool2d"; }

  Result<Tensor> Forward(const std::vector<const Tensor*>& inputs,
                         ExecutionContext* ctx) override;
  Result<std::vector<Tensor>> Backward(
      const std::vector<const Tensor*>& inputs, const Tensor& grad_output,
      ExecutionContext* ctx) override;

 private:
  /// The output shape for one NCHW input; InvalidArgument for another
  /// rank or an input smaller than the window.
  Result<Shape> OutputShape(const std::vector<const Tensor*>& inputs) const;

  int64_t kernel_size_;
  int64_t stride_;
  int64_t padding_;
  std::vector<int64_t> argmax_;  // flat input index per output element
};

/// Global average pooling: [N, C, H, W] -> [N, C].
class GlobalAvgPool : public Layer {
 public:
  explicit GlobalAvgPool(std::string name) : Layer(std::move(name)) {}

  std::string_view type() const override { return "global_avg_pool"; }

  Result<Tensor> Forward(const std::vector<const Tensor*>& inputs,
                         ExecutionContext* ctx) override;
  Result<std::vector<Tensor>> Backward(
      const std::vector<const Tensor*>& inputs, const Tensor& grad_output,
      ExecutionContext* ctx) override;
};

}  // namespace mmlib::nn

