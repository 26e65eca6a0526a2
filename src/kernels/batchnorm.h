#pragma once

#include <cstdint>

#include "util/thread_pool.h"

namespace mmlib::kernels {

/// Shape of a batch-norm call over NCHW data: statistics per channel over
/// (n, y, x).
struct BatchNormDims {
  int64_t batch = 0;
  int64_t channels = 0;
  /// Pixels per channel plane (height * width).
  int64_t plane = 0;
};

/// Batch-norm forward. Arithmetic contract, per channel c, with count =
/// batch * plane:
///
///  - batch_stats: mean = float(S1 / count) and var = float(S2 / count),
///    where S1 sums double(x) and S2 sums d * d for d = double(x - mean),
///    both serially from 0 in (n, y, x) order; then running_mean and
///    running_var become (1 - momentum) * r + momentum * stat in float.
///    Otherwise (eval, or a frozen layer) mean and var are the running
///    stats, which stay untouched;
///  - inv_std = 1 / sqrt(var + epsilon), scale = gamma * inv_std, shift =
///    beta - mean * scale, y = x * scale + shift.
///
/// `mean` and `inv_std` (channels floats each) receive the values used,
/// for BatchNormBackward. Up to eight channels' sums run side by side as
/// independent chains; blocks of channels are split over `pool`, so
/// results are bit-identical at every pool size.
void BatchNormForward(const BatchNormDims& dims, const float* x,
                      const float* gamma, const float* beta, bool batch_stats,
                      float momentum, float epsilon, float* running_mean,
                      float* running_var, float* y, float* mean,
                      float* inv_std, util::ThreadPool* pool);

/// Batch-norm backward through the batch statistics forward recorded in
/// `mean` and `inv_std`. Per channel, with xhat = (x - mean) * inv_std in
/// float: Sg sums double(g) and Sgx sums double(g * xhat), serially from 0
/// in (n, y, x) order; grad_beta += float(Sg), grad_gamma += float(Sgx);
/// grad_input = gamma * inv_std * (g - float(Sg / count) - xhat *
/// float(Sgx / count)), overwritten.
void BatchNormBackward(const BatchNormDims& dims, const float* x,
                       const float* grad_output, const float* gamma,
                       const float* mean, const float* inv_std,
                       float* grad_input, float* grad_gamma, float* grad_beta,
                       util::ThreadPool* pool);

}  // namespace mmlib::kernels
