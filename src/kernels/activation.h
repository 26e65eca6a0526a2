#pragma once

#include <cstdint>

namespace mmlib::kernels {

/// ReLU over n floats, clipped at `clip` when clip > 0 (ReLU6): y = 0 where
/// x < 0, clip where x > clip, else x — so -0 and NaN pass through
/// unchanged. Branch-free selects; x and y may be the same buffer.
void ReluForward(const float* x, float* y, int64_t n, float clip);

/// gin = gout where 0 < x (and x < clip when clip > 0), else 0.
void ReluBackward(const float* x, const float* gout, float* gin, int64_t n,
                  float clip);

}  // namespace mmlib::kernels
