#pragma once

#include <string>
#include <vector>

#include "nn/layer.h"

namespace mmlib::nn {

/// Rectified linear unit, optionally clipped at 6 (ReLU6, MobileNetV2).
class ReLU : public Layer {
 public:
  ReLU(std::string name, float clip = 0.0f)
      : Layer(std::move(name)), clip_(clip) {}

  std::string_view type() const override { return "relu"; }

  Result<Tensor> Forward(const std::vector<const Tensor*>& inputs,
                         ExecutionContext* ctx) override;
  Result<std::vector<Tensor>> Backward(
      const std::vector<const Tensor*>& inputs, const Tensor& grad_output,
      ExecutionContext* ctx) override;

 private:
  float clip_;  // 0 => unbounded
};

/// Dropout with rate `p`. The mask is drawn from the execution context's
/// seeded PRNG, so training is reproducible when seeded (paper Section 2.3,
/// "Intentional Randomness"). Identity when not training.
class Dropout : public Layer {
 public:
  Dropout(std::string name, float p) : Layer(std::move(name)), p_(p) {}

  std::string_view type() const override { return "dropout"; }

  Result<Tensor> Forward(const std::vector<const Tensor*>& inputs,
                         ExecutionContext* ctx) override;
  Result<std::vector<Tensor>> Backward(
      const std::vector<const Tensor*>& inputs, const Tensor& grad_output,
      ExecutionContext* ctx) override;

 private:
  float p_;
  std::vector<uint8_t> mask_;
};

/// Elementwise sum of two or more inputs (residual connections).
class Add : public Layer {
 public:
  Add(std::string name, size_t arity) : Layer(std::move(name)), arity_(arity) {}

  std::string_view type() const override { return "add"; }
  size_t arity() const override { return arity_; }

  Result<Tensor> Forward(const std::vector<const Tensor*>& inputs,
                         ExecutionContext* ctx) override;
  Result<std::vector<Tensor>> Backward(
      const std::vector<const Tensor*>& inputs, const Tensor& grad_output,
      ExecutionContext* ctx) override;

 private:
  size_t arity_;
};

/// Channel-dimension concatenation of NCHW inputs (inception blocks).
class Concat : public Layer {
 public:
  Concat(std::string name, size_t arity)
      : Layer(std::move(name)), arity_(arity) {}

  std::string_view type() const override { return "concat"; }
  size_t arity() const override { return arity_; }

  Result<Tensor> Forward(const std::vector<const Tensor*>& inputs,
                         ExecutionContext* ctx) override;
  Result<std::vector<Tensor>> Backward(
      const std::vector<const Tensor*>& inputs, const Tensor& grad_output,
      ExecutionContext* ctx) override;

 private:
  /// The output shape (inputs stacked along C); InvalidArgument unless
  /// there are arity() NCHW inputs that agree in N, H and W.
  Result<Shape> OutputShape(const std::vector<const Tensor*>& inputs) const;

  size_t arity_;
};

}  // namespace mmlib::nn

