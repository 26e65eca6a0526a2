#include "nn/activations.h"

#include "check/validators.h"
#include "kernels/activation.h"
#include "tensor/validate.h"

namespace mmlib::nn {

Result<Tensor> ReLU::Forward(const std::vector<const Tensor*>& inputs,
                             ExecutionContext* ctx) {
  (void)ctx;
  MMLIB_RETURN_IF_ERROR(check::ValidateArity(inputs, 1, name_));
  cached_input_ = *inputs[0];
  Tensor y(cached_input_.shape());
  kernels::ReluForward(cached_input_.data(), y.data(), y.numel(), clip_);
  return y;
}

Result<std::vector<Tensor>> ReLU::Backward(const Tensor& grad_output,
                                           ExecutionContext* ctx) {
  (void)ctx;
  Tensor grad_input(cached_input_.shape());
  kernels::ReluBackward(cached_input_.data(), grad_output.data(),
                        grad_input.data(), grad_input.numel(), clip_);
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

Result<std::vector<Tensor>> Dropout::Backward(const Tensor& grad_output,
                                              ExecutionContext* ctx) {
  (void)ctx;
  Tensor grad_input(grad_output.shape());
  if (mask_.empty()) {
    grad_input = grad_output;
  } else {
    const float scale = 1.0f / (1.0f - p_);
    for (int64_t i = 0; i < grad_output.numel(); ++i) {
      grad_input.data()[i] = mask_[i] ? grad_output.data()[i] * scale : 0.0f;
    }
  }
  std::vector<Tensor> grads;
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

Result<std::vector<Tensor>> Add::Backward(const Tensor& grad_output,
                                          ExecutionContext* ctx) {
  (void)ctx;
  return std::vector<Tensor>(arity_, grad_output);
}

Result<Tensor> Concat::Forward(const std::vector<const Tensor*>& inputs,
                               ExecutionContext* ctx) {
  (void)ctx;
  MMLIB_RETURN_IF_ERROR(check::ValidateArity(inputs, arity_, name_));
  MMLIB_RETURN_IF_ERROR(
      check::ValidatePositive(static_cast<int64_t>(arity_), name_));
  const Shape& first = inputs[0]->shape();
  if (first.rank() != 4) {
    return Status::InvalidArgument("concat " + name_ + ": expects NCHW");
  }
  input_channels_.clear();
  int64_t total_channels = 0;
  for (const Tensor* t : inputs) {
    if (t->shape().rank() != 4 || t->shape().dim(0) != first.dim(0) ||
        t->shape().dim(2) != first.dim(2) ||
        t->shape().dim(3) != first.dim(3)) {
      return Status::InvalidArgument("concat " + name_ +
                                     ": incompatible input shapes");
    }
    input_channels_.push_back(t->shape().dim(1));
    total_channels += t->shape().dim(1);
  }
  const int64_t batch = first.dim(0);
  const int64_t plane = first.dim(2) * first.dim(3);
  output_shape_ = Shape{batch, total_channels, first.dim(2), first.dim(3)};
  Tensor y(output_shape_);
  for (int64_t n = 0; n < batch; ++n) {
    int64_t channel_offset = 0;
    for (size_t k = 0; k < inputs.size(); ++k) {
      const int64_t c_in = input_channels_[k];
      const float* src = inputs[k]->data() + n * c_in * plane;
      float* dst =
          y.data() + (n * total_channels + channel_offset) * plane;
      std::copy(src, src + c_in * plane, dst);
      channel_offset += c_in;
    }
  }
  return y;
}

Result<std::vector<Tensor>> Concat::Backward(const Tensor& grad_output,
                                             ExecutionContext* ctx) {
  (void)ctx;
  const int64_t batch = output_shape_.dim(0);
  const int64_t total_channels = output_shape_.dim(1);
  const int64_t plane = output_shape_.dim(2) * output_shape_.dim(3);
  std::vector<Tensor> grads;
  grads.reserve(arity_);
  int64_t channel_offset = 0;
  for (size_t k = 0; k < arity_; ++k) {
    const int64_t c_in = input_channels_[k];
    Tensor g(Shape{batch, c_in, output_shape_.dim(2), output_shape_.dim(3)});
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
