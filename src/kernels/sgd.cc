#include "kernels/sgd.h"

#include <algorithm>

namespace mmlib::kernels {

void SgdStep(float* __restrict value, const float* __restrict grad,
             float* __restrict velocity, int64_t n, float learning_rate,
             float momentum, float weight_decay) {
  for (int64_t i = 0; i < n; ++i) {
    const float g = grad[i] + weight_decay * value[i];
    velocity[i] = momentum * velocity[i] + g;
    value[i] -= learning_rate * velocity[i];
  }
}

void ZeroFill(float* data, int64_t n) { std::fill(data, data + n, 0.0f); }

}  // namespace mmlib::kernels
