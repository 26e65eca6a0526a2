#include "nn/pooling.h"

#include "tensor/validate.h"
#include <limits>

namespace mmlib::nn {

MaxPool2d::MaxPool2d(std::string name, int64_t kernel_size, int64_t stride,
                     int64_t padding)
    : Layer(std::move(name)),
      kernel_size_(kernel_size),
      stride_(stride),
      padding_(padding) {}

Result<Shape> MaxPool2d::OutputShape(
    const std::vector<const Tensor*>& inputs) const {
  MMLIB_RETURN_IF_ERROR(check::ValidateArity(inputs, 1, name_));
  const Shape& x = inputs[0]->shape();
  if (x.rank() != 4) {
    return Status::InvalidArgument("maxpool " + name_ + ": bad input shape");
  }
  const int64_t out_h = (x.dim(2) + 2 * padding_ - kernel_size_) / stride_ + 1;
  const int64_t out_w = (x.dim(3) + 2 * padding_ - kernel_size_) / stride_ + 1;
  if (out_h <= 0 || out_w <= 0) {
    return Status::InvalidArgument("maxpool " + name_ + ": input too small");
  }
  return Shape{x.dim(0), x.dim(1), out_h, out_w};
}

Result<Tensor> MaxPool2d::Forward(const std::vector<const Tensor*>& inputs,
                                  ExecutionContext* ctx) {
  (void)ctx;
  MMLIB_ASSIGN_OR_RETURN(const Shape output_shape, OutputShape(inputs));
  const Tensor& x = *inputs[0];
  const int64_t batch = x.shape().dim(0);
  const int64_t channels = x.shape().dim(1);
  const int64_t height = x.shape().dim(2);
  const int64_t width = x.shape().dim(3);
  const int64_t out_h = output_shape.dim(2);
  const int64_t out_w = output_shape.dim(3);

  Tensor y(output_shape);
  argmax_.assign(static_cast<size_t>(y.numel()), -1);
  int64_t out_idx = 0;
  for (int64_t n = 0; n < batch; ++n) {
    for (int64_t c = 0; c < channels; ++c) {
      const float* plane = x.data() + ((n * channels + c) * height) * width;
      const int64_t plane_base = ((n * channels + c) * height) * width;
      for (int64_t oy = 0; oy < out_h; ++oy) {
        for (int64_t ox = 0; ox < out_w; ++ox) {
          float best = -std::numeric_limits<float>::infinity();
          int64_t best_idx = -1;
          for (int64_t ky = 0; ky < kernel_size_; ++ky) {
            const int64_t yy = oy * stride_ - padding_ + ky;
            if (yy < 0 || yy >= height) {
              continue;
            }
            for (int64_t kx = 0; kx < kernel_size_; ++kx) {
              const int64_t xx = ox * stride_ - padding_ + kx;
              if (xx < 0 || xx >= width) {
                continue;
              }
              const float v = plane[yy * width + xx];
              if (v > best) {
                best = v;
                best_idx = plane_base + yy * width + xx;
              }
            }
          }
          y.data()[out_idx] = best;
          argmax_[out_idx] = best_idx;
          ++out_idx;
        }
      }
    }
  }
  return y;
}

Result<std::vector<Tensor>> MaxPool2d::Backward(
    const std::vector<const Tensor*>& inputs, const Tensor& grad_output,
    ExecutionContext* ctx) {
  (void)ctx;
  MMLIB_ASSIGN_OR_RETURN(const Shape output_shape, OutputShape(inputs));
  MMLIB_RETURN_IF_ERROR(check::ValidateShapesMatch(
      grad_output.shape(), output_shape, "maxpool " + name_ + " grad_output"));
  if (argmax_.size() != static_cast<size_t>(grad_output.numel())) {
    return Status::InvalidArgument("maxpool " + name_ +
                                   ": input does not match the forward argmax");
  }
  Tensor grad_input(inputs[0]->shape());
  for (int64_t i = 0; i < grad_output.numel(); ++i) {
    const int64_t src = argmax_[i];
    if (src < 0) {
      continue;  // the window covered padding only
    }
    // Two input heights can give one output height; an argmax taken on the
    // taller input may lie past the end of the shorter one.
    if (src >= grad_input.numel()) {
      return Status::InvalidArgument(
          "maxpool " + name_ + ": input does not match the forward argmax");
    }
    grad_input.data()[src] += grad_output.data()[i];
  }
  std::vector<Tensor> grads;
  grads.push_back(std::move(grad_input));
  return grads;
}

Result<Tensor> GlobalAvgPool::Forward(const std::vector<const Tensor*>& inputs,
                                      ExecutionContext* ctx) {
  (void)ctx;
  MMLIB_RETURN_IF_ERROR(check::ValidateArity(inputs, 1, name_));
  const Tensor& x = *inputs[0];
  if (x.shape().rank() != 4) {
    return Status::InvalidArgument("global_avg_pool " + name_ +
                                   ": bad input shape");
  }
  const int64_t batch = x.shape().dim(0);
  const int64_t channels = x.shape().dim(1);
  const int64_t plane = x.shape().dim(2) * x.shape().dim(3);
  Tensor y(Shape{batch, channels});
  for (int64_t n = 0; n < batch; ++n) {
    for (int64_t c = 0; c < channels; ++c) {
      const float* p = x.data() + (n * channels + c) * plane;
      double sum = 0.0;
      for (int64_t i = 0; i < plane; ++i) {
        sum += p[i];
      }
      y.data()[n * channels + c] = static_cast<float>(sum / plane);
    }
  }
  return y;
}

Result<std::vector<Tensor>> GlobalAvgPool::Backward(
    const std::vector<const Tensor*>& inputs, const Tensor& grad_output,
    ExecutionContext* ctx) {
  (void)ctx;
  MMLIB_RETURN_IF_ERROR(check::ValidateArity(inputs, 1, name_));
  const Shape& input_shape = inputs[0]->shape();
  MMLIB_RETURN_IF_ERROR(check::ValidateRank(input_shape, 4,
                                            "global_avg_pool " + name_));
  const int64_t batch = input_shape.dim(0);
  const int64_t channels = input_shape.dim(1);
  const int64_t plane = input_shape.dim(2) * input_shape.dim(3);
  MMLIB_RETURN_IF_ERROR(
      check::ValidateShapesMatch(grad_output.shape(), Shape{batch, channels},
                                 "global_avg_pool " + name_ + " grad_output"));
  Tensor grad_input(input_shape);
  for (int64_t n = 0; n < batch; ++n) {
    for (int64_t c = 0; c < channels; ++c) {
      const float g =
          grad_output.data()[n * channels + c] / static_cast<float>(plane);
      float* q = grad_input.data() + (n * channels + c) * plane;
      for (int64_t i = 0; i < plane; ++i) {
        q[i] = g;
      }
    }
  }
  std::vector<Tensor> grads;
  grads.push_back(std::move(grad_input));
  return grads;
}

}  // namespace mmlib::nn
