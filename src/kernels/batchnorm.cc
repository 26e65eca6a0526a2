#include "kernels/batchnorm.h"

#include <algorithm>
#include <cmath>
#include <type_traits>

namespace mmlib::kernels {

namespace {

/// Most channels whose serial sums run side by side: independent
/// dependency chains that hide the latency of each double add.
constexpr int64_t kMaxLanes = 8;

/// Floats a parallel chunk covers at least, so small layers stay on one
/// thread.
constexpr int64_t kMinChunkFloats = 1 << 14;

/// Runs fn(c0) for each block of kMaxLanes channels starting at c0, blocks
/// split over `pool`. Channels are independent, so the split changes no
/// result.
template <typename Fn>
void ForEachBlock(const BatchNormDims& d, util::ThreadPool* pool,
                  const Fn& fn) {
  const int64_t blocks = (d.channels + kMaxLanes - 1) / kMaxLanes;
  const int64_t block_floats =
      std::max<int64_t>(1, kMaxLanes * d.batch * d.plane);
  const int64_t grain = std::max<int64_t>(1, kMinChunkFloats / block_floats);
  util::ParallelFor(pool, blocks, grain,
                    [&](int64_t begin, int64_t end, size_t /*chunk_index*/) {
                      for (int64_t b = begin; b < end; ++b) {
                        fn(b * kMaxLanes);
                      }
                    });
}

/// Forward statistics of L channels from c0: mean and var as in the
/// contract, each lane its own serial chain.
template <int L>
void BatchStats(const BatchNormDims& d, const float* x, int64_t c0,
                float* mean, float* var) {
  const int64_t count = d.batch * d.plane;
  double sum[L] = {};
  for (int64_t n = 0; n < d.batch; ++n) {
    const float* p = x + (n * d.channels + c0) * d.plane;
    for (int64_t i = 0; i < d.plane; ++i) {
      for (int j = 0; j < L; ++j) {
        sum[j] += p[j * d.plane + i];
      }
    }
  }
  float m[L];
  for (int j = 0; j < L; ++j) {
    m[j] = static_cast<float>(sum[j] / count);
    mean[j] = m[j];
  }
  double var_sum[L] = {};
  for (int64_t n = 0; n < d.batch; ++n) {
    const float* p = x + (n * d.channels + c0) * d.plane;
    for (int64_t i = 0; i < d.plane; ++i) {
      for (int j = 0; j < L; ++j) {
        const double dev = p[j * d.plane + i] - m[j];
        var_sum[j] += dev * dev;
      }
    }
  }
  for (int j = 0; j < L; ++j) {
    var[j] = static_cast<float>(var_sum[j] / count);
  }
}

/// Backward sums of L channels from c0: Sg and Sgx as in the contract.
template <int L>
void GradSums(const BatchNormDims& d, const float* x, const float* grad,
              int64_t c0, const float* mean, const float* inv_std,
              double* sum_g, double* sum_gx) {
  float m[L];
  float is[L];
  double sg[L] = {};
  double sgx[L] = {};
  for (int j = 0; j < L; ++j) {
    m[j] = mean[c0 + j];
    is[j] = inv_std[c0 + j];
  }
  for (int64_t n = 0; n < d.batch; ++n) {
    const float* p = x + (n * d.channels + c0) * d.plane;
    const float* g = grad + (n * d.channels + c0) * d.plane;
    for (int64_t i = 0; i < d.plane; ++i) {
      for (int j = 0; j < L; ++j) {
        const float xhat = (p[j * d.plane + i] - m[j]) * is[j];
        sg[j] += g[j * d.plane + i];
        sgx[j] += g[j * d.plane + i] * xhat;
      }
    }
  }
  for (int j = 0; j < L; ++j) {
    sum_g[j] = sg[j];
    sum_gx[j] = sgx[j];
  }
}

/// dst[i] = src[i] * scale + shift for i < len. The restrict parameters
/// spare the loop a run-time overlap check.
inline void ScaleShift(int64_t len, const float* __restrict src, float scale,
                       float shift, float* __restrict dst) {
  for (int64_t i = 0; i < len; ++i) {
    dst[i] = src[i] * scale + shift;
  }
}

/// Input gradient of one plane: dst[i] = scale * (g[i] - mean_g - xhat *
/// mean_gx), xhat = (x[i] - mean) * inv_std.
inline void InputGrad(int64_t len, const float* __restrict x,
                      const float* __restrict g, float mean, float inv_std,
                      float scale, float mean_g, float mean_gx,
                      float* __restrict dst) {
  for (int64_t i = 0; i < len; ++i) {
    const float xhat = (x[i] - mean) * inv_std;
    dst[i] = scale * (g[i] - mean_g - xhat * mean_gx);
  }
}

/// Runs fn(std::integral_constant<int, L>, j) over lanes [0, lanes) of a
/// block, in runs of 8, 4, 2 and 1 lanes from j = 0.
template <typename Fn>
void ByLaneRuns(int64_t lanes, const Fn& fn) {
  int64_t j = 0;
  for (; j + 8 <= lanes; j += 8) {
    fn(std::integral_constant<int, 8>(), j);
  }
  for (; j + 4 <= lanes; j += 4) {
    fn(std::integral_constant<int, 4>(), j);
  }
  for (; j + 2 <= lanes; j += 2) {
    fn(std::integral_constant<int, 2>(), j);
  }
  for (; j < lanes; ++j) {
    fn(std::integral_constant<int, 1>(), j);
  }
}

}  // namespace

void BatchNormForward(const BatchNormDims& dims, const float* x,
                      const float* gamma, const float* beta, bool batch_stats,
                      float momentum, float epsilon, float* running_mean,
                      float* running_var, float* y, float* mean,
                      float* inv_std, util::ThreadPool* pool) {
  ForEachBlock(dims, pool, [&](int64_t c0) {
    const int64_t lanes = std::min(kMaxLanes, dims.channels - c0);
    float block_mean[kMaxLanes];
    float block_var[kMaxLanes];
    if (batch_stats) {
      ByLaneRuns(lanes, [&](auto run, int64_t j) {
        BatchStats<run()>(dims, x, c0 + j, block_mean + j, block_var + j);
      });
      for (int64_t k = 0; k < lanes; ++k) {
        const int64_t c = c0 + k;
        running_mean[c] =
            (1.0f - momentum) * running_mean[c] + momentum * block_mean[k];
        running_var[c] =
            (1.0f - momentum) * running_var[c] + momentum * block_var[k];
      }
    } else {
      for (int64_t k = 0; k < lanes; ++k) {
        block_mean[k] = running_mean[c0 + k];
        block_var[k] = running_var[c0 + k];
      }
    }
    float scale[kMaxLanes];
    float shift[kMaxLanes];
    for (int64_t k = 0; k < lanes; ++k) {
      const int64_t c = c0 + k;
      const float is = 1.0f / std::sqrt(block_var[k] + epsilon);
      mean[c] = block_mean[k];
      inv_std[c] = is;
      scale[k] = gamma[c] * is;
      shift[k] = beta[c] - block_mean[k] * scale[k];
    }
    if (dims.plane == 1) {
      // One pixel per plane: a sample's channels are contiguous.
      for (int64_t n = 0; n < dims.batch; ++n) {
        const int64_t offset = n * dims.channels + c0;
        for (int64_t k = 0; k < lanes; ++k) {
          y[offset + k] = x[offset + k] * scale[k] + shift[k];
        }
      }
      return;
    }
    for (int64_t k = 0; k < lanes; ++k) {
      for (int64_t n = 0; n < dims.batch; ++n) {
        const int64_t offset = (n * dims.channels + c0 + k) * dims.plane;
        ScaleShift(dims.plane, x + offset, scale[k], shift[k], y + offset);
      }
    }
  });
}

void BatchNormBackward(const BatchNormDims& dims, const float* x,
                       const float* grad_output, const float* gamma,
                       const float* mean, const float* inv_std,
                       float* grad_input, float* grad_gamma, float* grad_beta,
                       util::ThreadPool* pool) {
  const int64_t count = dims.batch * dims.plane;
  ForEachBlock(dims, pool, [&](int64_t c0) {
    const int64_t lanes = std::min(kMaxLanes, dims.channels - c0);
    double sum_g[kMaxLanes];
    double sum_gx[kMaxLanes];
    ByLaneRuns(lanes, [&](auto run, int64_t j) {
      GradSums<run()>(dims, x, grad_output, c0 + j, mean, inv_std,
                      sum_g + j, sum_gx + j);
    });
    float mean_g[kMaxLanes];
    float mean_gx[kMaxLanes];
    float scale[kMaxLanes];
    for (int64_t k = 0; k < lanes; ++k) {
      const int64_t c = c0 + k;
      grad_beta[c] += static_cast<float>(sum_g[k]);
      grad_gamma[c] += static_cast<float>(sum_gx[k]);
      mean_g[k] = static_cast<float>(sum_g[k] / count);
      mean_gx[k] = static_cast<float>(sum_gx[k] / count);
      scale[k] = gamma[c] * inv_std[c];
    }
    if (dims.plane == 1) {
      // One pixel per plane: a sample's channels are contiguous.
      const float* m = mean + c0;
      const float* is = inv_std + c0;
      for (int64_t n = 0; n < dims.batch; ++n) {
        const int64_t offset = n * dims.channels + c0;
        for (int64_t k = 0; k < lanes; ++k) {
          const float xhat = (x[offset + k] - m[k]) * is[k];
          grad_input[offset + k] =
              scale[k] * (grad_output[offset + k] - mean_g[k] -
                          xhat * mean_gx[k]);
        }
      }
      return;
    }
    for (int64_t k = 0; k < lanes; ++k) {
      const int64_t c = c0 + k;
      for (int64_t n = 0; n < dims.batch; ++n) {
        const int64_t offset = (n * dims.channels + c) * dims.plane;
        InputGrad(dims.plane, x + offset, grad_output + offset, mean[c],
                  inv_std[c], scale[k], mean_g[k], mean_gx[k],
                  grad_input + offset);
      }
    }
  });
}

}  // namespace mmlib::kernels
