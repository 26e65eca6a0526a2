#include "kernels/activation.h"

#include <bit>

namespace mmlib::kernels {

namespace {

/// `a` if `take_a`, else `b`, as a bit blend: no branch on the data, so
/// random-sign activations cost no mispredictions and the loops vectorise.
inline float Select(bool take_a, float a, float b) {
  const uint32_t mask = 0u - static_cast<uint32_t>(take_a);
  return std::bit_cast<float>((std::bit_cast<uint32_t>(a) & mask) |
                              (std::bit_cast<uint32_t>(b) & ~mask));
}

}  // namespace

void ReluForward(const float* x, float* y, int64_t n, float clip) {
  if (clip > 0.0f) {
    for (int64_t i = 0; i < n; ++i) {
      const float v = Select(x[i] < 0.0f, 0.0f, x[i]);
      y[i] = Select(v > clip, clip, v);
    }
  } else {
    for (int64_t i = 0; i < n; ++i) {
      y[i] = Select(x[i] < 0.0f, 0.0f, x[i]);
    }
  }
}

void ReluBackward(const float* x, const float* gout, float* gin, int64_t n,
                  float clip) {
  if (clip > 0.0f) {
    for (int64_t i = 0; i < n; ++i) {
      gin[i] = Select((x[i] > 0.0f) & (x[i] < clip), gout[i], 0.0f);
    }
  } else {
    for (int64_t i = 0; i < n; ++i) {
      gin[i] = Select(x[i] > 0.0f, gout[i], 0.0f);
    }
  }
}

}  // namespace mmlib::kernels
