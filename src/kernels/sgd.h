#pragma once

#include <cstdint>

namespace mmlib::kernels {

/// One SGD-with-momentum step over n independent elements, in float and in
/// this order: g = grad + weight_decay * value; velocity = momentum *
/// velocity + g; value -= learning_rate * velocity. The formula holds at
/// momentum 0 too (0 * velocity is kept, so a non-finite velocity still
/// shows). Vectorised across elements with no fused multiply-add, so it is
/// bit-identical to the scalar loop.
void SgdStep(float* value, const float* grad, float* velocity, int64_t n,
             float learning_rate, float momentum, float weight_decay);

/// data[0, n) = +0.
void ZeroFill(float* data, int64_t n);

}  // namespace mmlib::kernels
