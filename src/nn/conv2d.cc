#include "nn/conv2d.h"

#include "kernels/plan_cache.h"
#include "tensor/validate.h"
#include <cmath>

namespace mmlib::nn {

Conv2d::Conv2d(std::string name, int64_t in_channels, int64_t out_channels,
               int64_t kernel_size, int64_t stride, int64_t padding,
               int64_t groups, Rng* rng)
    : Layer(std::move(name)),
      in_channels_(in_channels),
      out_channels_(out_channels),
      kernel_size_(kernel_size),
      stride_(stride),
      padding_(padding),
      groups_(groups) {
  // Kaiming-normal initialization: std = sqrt(2 / fan_in).
  const int64_t group_in = in_channels / groups;
  const int64_t fan_in = group_in * kernel_size * kernel_size;
  const float stddev = std::sqrt(2.0f / static_cast<float>(fan_in));
  Shape shape{out_channels, group_in, kernel_size, kernel_size};
  AddParam("weight", rng == nullptr
                         ? Tensor::Zeros(std::move(shape))
                         : Tensor::Gaussian(std::move(shape), stddev, rng));
}

Result<Tensor> Conv2d::Forward(const std::vector<const Tensor*>& inputs,
                               ExecutionContext* ctx) {
  MMLIB_RETURN_IF_ERROR(check::ValidateArity(inputs, 1, name_));
  const Tensor& x = *inputs[0];
  if (x.shape().rank() != 4 || x.shape().dim(1) != in_channels_) {
    return Status::InvalidArgument("conv2d " + name_ + ": bad input shape " +
                                   x.shape().ToString());
  }
  const int64_t batch = x.shape().dim(0);
  const int64_t height = x.shape().dim(2);
  const int64_t width = x.shape().dim(3);
  const int64_t out_h = (height + 2 * padding_ - kernel_size_) / stride_ + 1;
  const int64_t out_w = (width + 2 * padding_ - kernel_size_) / stride_ + 1;
  if (out_h <= 0 || out_w <= 0) {
    return Status::InvalidArgument("conv2d " + name_ +
                                   ": input too small for kernel");
  }
  RefreshPlan(batch, height, width, out_h, out_w);

  // Both execution modes run the shape's kernel plan; a non-deterministic
  // context only hands it a split-K scheduler.
  Tensor y(Shape{batch, out_channels_, out_h, out_w});
  plan_->Forward(x.data(), params_[0].value.data(), y.data(), ctx->pool(),
                 ctx->scheduler());
  return y;
}

Result<std::vector<Tensor>> Conv2d::Backward(
    const std::vector<const Tensor*>& inputs, const Tensor& grad_output,
    ExecutionContext* ctx) {
  if (plan_ == nullptr) {
    return Status::InvalidArgument("conv2d " + name_ +
                                   ": Backward called before Forward");
  }
  MMLIB_RETURN_IF_ERROR(check::ValidateArity(inputs, 1, name_));
  const Tensor& x = *inputs[0];
  const kernels::ConvGeom& geom = plan_->geom();
  MMLIB_RETURN_IF_ERROR(check::ValidateShapesMatch(
      x.shape(), Shape{geom.batch, in_channels_, geom.height, geom.width},
      "conv2d " + name_ + " input"));
  MMLIB_RETURN_IF_ERROR(check::ValidateShapesMatch(
      grad_output.shape(),
      Shape{geom.batch, out_channels_, geom.out_h, geom.out_w},
      "conv2d " + name_ + " grad_output"));

  Tensor grad_input(x.shape());
  plan_->Backward(x.data(), params_[0].value.data(),
                  grad_output.data(), grad_input.data(),
                  params_[0].grad.data(), ctx->pool(), ctx->scheduler());
  std::vector<Tensor> grads;
  grads.push_back(std::move(grad_input));
  return grads;
}

void Conv2d::RefreshPlan(int64_t batch, int64_t height, int64_t width,
                         int64_t out_h, int64_t out_w) {
  if (plan_ && plan_->geom().batch == batch &&
      plan_->geom().height == height && plan_->geom().width == width) {
    return;
  }
  const kernels::ConvGeom geom{batch,        in_channels_, out_channels_,
                               kernel_size_, stride_,      padding_,
                               groups_,      height,       width,
                               out_h,        out_w};
  plan_ = kernels::PlanCache::Instance().GetConvPlan(geom);
}

}  // namespace mmlib::nn
