#include "nn/activations.h"

#include "check/validators.h"
#include "kernels/activation.h"
#include "tensor/validate.h"

namespace mmlib::nn {

Result<Tensor> ReLU::Forward(const std::vector<const Tensor*>& inputs,
                             ExecutionContext* ctx) {
  (void)ctx;
  MMLIB_RETURN_IF_ERROR(check::ValidateArity(inputs, 1, name_));
  const Tensor& x = *inputs[0];
  Tensor y(x.shape());
  kernels::ReluForward(x.data(), y.data(), y.numel(), clip_);
  return y;
}

Result<std::vector<Tensor>> ReLU::Backward(
    const std::vector<const Tensor*>& inputs, const Tensor& grad_output,
    ExecutionContext* ctx) {
  (void)ctx;
  MMLIB_RETURN_IF_ERROR(check::ValidateArity(inputs, 1, name_));
  const Tensor& x = *inputs[0];
  MMLIB_RETURN_IF_ERROR(check::ValidateShapesMatch(
      grad_output.shape(), x.shape(), "relu " + name_ + " grad_output"));
  Tensor grad_input(x.shape());
  kernels::ReluBackward(x.data(), grad_output.data(), grad_input.data(),
                        grad_input.numel(), clip_);
  std::vector<Tensor> grads;
  grads.push_back(std::move(grad_input));
  return grads;
}

Result<Tensor> Dropout::Forward(const std::vector<const Tensor*>& inputs,
                                ExecutionContext* ctx) {
  MMLIB_RETURN_IF_ERROR(check::ValidateArity(inputs, 1, name_));
  const Tensor& x = *inputs[0];
  if (!ctx->training() || p_ <= 0.0f) {
    mask_.clear();
    return x;
  }
  mask_.resize(static_cast<size_t>(x.numel()));
  Tensor y(x.shape());
  const float scale = 1.0f / (1.0f - p_);
  for (int64_t i = 0; i < x.numel(); ++i) {
    const bool keep = ctx->rng()->NextFloat() >= p_;
    mask_[i] = keep ? 1 : 0;
    y.data()[i] = keep ? x.data()[i] * scale : 0.0f;
  }
  return y;
}

Result<std::vector<Tensor>> Dropout::Backward(
    const std::vector<const Tensor*>& inputs, const Tensor& grad_output,
    ExecutionContext* ctx) {
  (void)ctx;
  MMLIB_RETURN_IF_ERROR(check::ValidateArity(inputs, 1, name_));
  const Tensor& x = *inputs[0];
  MMLIB_RETURN_IF_ERROR(check::ValidateShapesMatch(
      grad_output.shape(), x.shape(), "dropout " + name_ + " grad_output"));
  std::vector<Tensor> grads;
  if (mask_.empty()) {
    grads.push_back(grad_output);
    return grads;
  }
  if (mask_.size() != static_cast<size_t>(x.numel())) {
    return Status::InvalidArgument("dropout " + name_ +
                                   ": input does not match the forward mask");
  }
  Tensor grad_input(x.shape());
  const float scale = 1.0f / (1.0f - p_);
  for (int64_t i = 0; i < grad_output.numel(); ++i) {
    grad_input.data()[i] = mask_[i] ? grad_output.data()[i] * scale : 0.0f;
  }
  grads.push_back(std::move(grad_input));
  return grads;
}

Result<Tensor> Add::Forward(const std::vector<const Tensor*>& inputs,
                            ExecutionContext* ctx) {
  (void)ctx;
  MMLIB_RETURN_IF_ERROR(check::ValidateArity(inputs, arity_, name_));
  MMLIB_RETURN_IF_ERROR(
      check::ValidatePositive(static_cast<int64_t>(arity_), name_));
  Tensor y = *inputs[0];
  for (size_t i = 1; i < inputs.size(); ++i) {
    if (inputs[i]->shape() != y.shape()) {
      return Status::InvalidArgument("add " + name_ + ": shape mismatch");
    }
    y.AddInPlace(*inputs[i]);
  }
  return y;
}

Result<std::vector<Tensor>> Add::Backward(
    const std::vector<const Tensor*>& inputs, const Tensor& grad_output,
    ExecutionContext* ctx) {
  (void)ctx;
  MMLIB_RETURN_IF_ERROR(check::ValidateArity(inputs, arity_, name_));
  MMLIB_RETURN_IF_ERROR(
      check::ValidatePositive(static_cast<int64_t>(arity_), name_));
  MMLIB_RETURN_IF_ERROR(check::ValidateShapesMatch(
      grad_output.shape(), inputs[0]->shape(),
      "add " + name_ + " grad_output"));
  return std::vector<Tensor>(arity_, grad_output);
}

Result<Shape> Concat::OutputShape(
    const std::vector<const Tensor*>& inputs) const {
  MMLIB_RETURN_IF_ERROR(check::ValidateArity(inputs, arity_, name_));
  MMLIB_RETURN_IF_ERROR(
      check::ValidatePositive(static_cast<int64_t>(arity_), name_));
  const Shape& first = inputs[0]->shape();
  if (first.rank() != 4) {
    return Status::InvalidArgument("concat " + name_ + ": expects NCHW");
  }
  int64_t total_channels = 0;
  for (const Tensor* t : inputs) {
    if (t->shape().rank() != 4 || t->shape().dim(0) != first.dim(0) ||
        t->shape().dim(2) != first.dim(2) ||
        t->shape().dim(3) != first.dim(3)) {
      return Status::InvalidArgument("concat " + name_ +
                                     ": incompatible input shapes");
    }
    total_channels += t->shape().dim(1);
  }
  return Shape{first.dim(0), total_channels, first.dim(2), first.dim(3)};
}

Result<Tensor> Concat::Forward(const std::vector<const Tensor*>& inputs,
                               ExecutionContext* ctx) {
  (void)ctx;
  MMLIB_ASSIGN_OR_RETURN(const Shape output_shape, OutputShape(inputs));
  const int64_t batch = output_shape.dim(0);
  const int64_t total_channels = output_shape.dim(1);
  const int64_t plane = output_shape.dim(2) * output_shape.dim(3);
  Tensor y(output_shape);
  for (int64_t n = 0; n < batch; ++n) {
    int64_t channel_offset = 0;
    for (size_t k = 0; k < inputs.size(); ++k) {
      const int64_t c_in = inputs[k]->shape().dim(1);
      const float* src = inputs[k]->data() + n * c_in * plane;
      float* dst =
          y.data() + (n * total_channels + channel_offset) * plane;
      std::copy(src, src + c_in * plane, dst);
      channel_offset += c_in;
    }
  }
  return y;
}

Result<std::vector<Tensor>> Concat::Backward(
    const std::vector<const Tensor*>& inputs, const Tensor& grad_output,
    ExecutionContext* ctx) {
  (void)ctx;
  MMLIB_ASSIGN_OR_RETURN(const Shape output_shape, OutputShape(inputs));
  MMLIB_RETURN_IF_ERROR(check::ValidateShapesMatch(
      grad_output.shape(), output_shape, "concat " + name_ + " grad_output"));
  const int64_t batch = output_shape.dim(0);
  const int64_t total_channels = output_shape.dim(1);
  const int64_t plane = output_shape.dim(2) * output_shape.dim(3);
  std::vector<Tensor> grads;
  grads.reserve(arity_);
  int64_t channel_offset = 0;
  for (size_t k = 0; k < arity_; ++k) {
    const int64_t c_in = inputs[k]->shape().dim(1);
    Tensor g(inputs[k]->shape());
    for (int64_t n = 0; n < batch; ++n) {
      const float* src =
          grad_output.data() + (n * total_channels + channel_offset) * plane;
      float* dst = g.data() + n * c_in * plane;
      std::copy(src, src + c_in * plane, dst);
    }
    grads.push_back(std::move(g));
    channel_offset += c_in;
  }
  return grads;
}

}  // namespace mmlib::nn
