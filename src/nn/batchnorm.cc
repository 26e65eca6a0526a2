#include "nn/batchnorm.h"

#include "kernels/batchnorm.h"
#include "tensor/validate.h"

namespace mmlib::nn {

namespace {

kernels::BatchNormDims Dims(const Tensor& x) {
  return {x.shape().dim(0), x.shape().dim(1),
          x.shape().dim(2) * x.shape().dim(3)};
}

}  // namespace

BatchNorm2d::BatchNorm2d(std::string name, int64_t channels, float momentum,
                         float epsilon)
    : Layer(std::move(name)),
      channels_(channels),
      momentum_(momentum),
      epsilon_(epsilon) {
  AddParam("weight", Tensor::Full(Shape{channels}, 1.0f));
  AddParam("bias", Tensor::Zeros(Shape{channels}));
  AddParam("running_mean", Tensor::Zeros(Shape{channels}),
           /*trainable=*/false, /*is_buffer=*/true);
  AddParam("running_var", Tensor::Full(Shape{channels}, 1.0f),
           /*trainable=*/false, /*is_buffer=*/true);
}

Status BatchNorm2d::ValidateInput(
    const std::vector<const Tensor*>& inputs) const {
  MMLIB_RETURN_IF_ERROR(check::ValidateArity(inputs, 1, name_));
  const Shape& shape = inputs[0]->shape();
  if (shape.rank() != 4 || shape.dim(1) != channels_) {
    return Status::InvalidArgument("batchnorm " + name_ +
                                   ": bad input shape " + shape.ToString());
  }
  return Status::OK();
}

Result<Tensor> BatchNorm2d::Forward(const std::vector<const Tensor*>& inputs,
                                    ExecutionContext* ctx) {
  MMLIB_RETURN_IF_ERROR(ValidateInput(inputs));
  const Tensor& x = *inputs[0];
  batch_mean_.resize(channels_);
  batch_inv_std_.resize(channels_);
  Tensor y(x.shape());
  // A frozen batch-norm layer (fine-tuning a partially updated model
  // version) behaves as in eval mode: it uses its running statistics and
  // does not update its buffers, so frozen layers stay bit-identical
  // across training — the property the PUA's layer diff relies on.
  const bool batch_stats = ctx->training() && params_[0].trainable;
  kernels::BatchNormForward(
      Dims(x), x.data(), params_[0].value.data(), params_[1].value.data(),
      batch_stats, momentum_, epsilon_, params_[2].value.data(),
      params_[3].value.data(), y.data(), batch_mean_.data(),
      batch_inv_std_.data(), ctx->pool());
  return y;
}

Result<std::vector<Tensor>> BatchNorm2d::Backward(
    const std::vector<const Tensor*>& inputs, const Tensor& grad_output,
    ExecutionContext* ctx) {
  MMLIB_RETURN_IF_ERROR(ValidateInput(inputs));
  if (batch_mean_.size() != static_cast<size_t>(channels_)) {
    return Status::InvalidArgument("batchnorm " + name_ +
                                   ": Backward called before Forward");
  }
  const Tensor& x = *inputs[0];
  MMLIB_RETURN_IF_ERROR(check::ValidateShapesMatch(
      grad_output.shape(), x.shape(), "batchnorm " + name_ + " grad_output"));
  Tensor grad_input(x.shape());
  kernels::BatchNormBackward(Dims(x), x.data(), grad_output.data(),
                             params_[0].value.data(), batch_mean_.data(),
                             batch_inv_std_.data(), grad_input.data(),
                             params_[0].grad.data(), params_[1].grad.data(),
                             ctx->pool());
  std::vector<Tensor> grads;
  grads.push_back(std::move(grad_input));
  return grads;
}

}  // namespace mmlib::nn
