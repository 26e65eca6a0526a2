// Batch-norm and SGD kernels against scalar copies of the per-channel and
// per-element loops they replaced in nn/: every output must match bit for
// bit, at every pool size.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "kernels/batchnorm.h"
#include "kernels/sgd.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace mmlib {
namespace {

using kernels::BatchNormDims;

/// Same bits, except that any two NaNs match: which NaN payload survives an
/// operation on two NaNs follows operand order, which the compiler may swap
/// for a commutative add.
bool SameBits(const std::vector<float>& a, const std::vector<float>& b) {
  if (a.size() != b.size()) {
    return false;
  }
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::bit_cast<uint32_t>(a[i]) != std::bit_cast<uint32_t>(b[i]) &&
        !(std::isnan(a[i]) && std::isnan(b[i]))) {
      return false;
    }
  }
  return true;
}

std::vector<float> Random(size_t n, float lo, float hi, uint64_t seed) {
  Rng rng(seed);
  std::vector<float> v(n);
  for (float& x : v) {
    x = rng.NextUniform(lo, hi);
  }
  return v;
}

// ---------------------------------------------------------------------------
// Scalar reference: the loops nn::BatchNorm2d ran before the kernel.

void ScalarForward(const BatchNormDims& d, const std::vector<float>& x,
                   const std::vector<float>& gamma,
                   const std::vector<float>& beta, bool batch_stats,
                   float momentum, float epsilon,
                   std::vector<float>* running_mean,
                   std::vector<float>* running_var, std::vector<float>* y,
                   std::vector<float>* mean_out,
                   std::vector<float>* inv_std_out) {
  const int64_t count = d.batch * d.plane;
  for (int64_t c = 0; c < d.channels; ++c) {
    float mean;
    float var;
    if (batch_stats) {
      double sum = 0.0;
      for (int64_t n = 0; n < d.batch; ++n) {
        const float* p = x.data() + ((n * d.channels + c) * d.plane);
        for (int64_t i = 0; i < d.plane; ++i) {
          sum += p[i];
        }
      }
      mean = static_cast<float>(sum / count);
      double var_sum = 0.0;
      for (int64_t n = 0; n < d.batch; ++n) {
        const float* p = x.data() + ((n * d.channels + c) * d.plane);
        for (int64_t i = 0; i < d.plane; ++i) {
          const double dev = p[i] - mean;
          var_sum += dev * dev;
        }
      }
      var = static_cast<float>(var_sum / count);
      (*running_mean)[c] =
          (1.0f - momentum) * (*running_mean)[c] + momentum * mean;
      (*running_var)[c] =
          (1.0f - momentum) * (*running_var)[c] + momentum * var;
    } else {
      mean = (*running_mean)[c];
      var = (*running_var)[c];
    }
    const float inv_std = 1.0f / std::sqrt(var + epsilon);
    (*mean_out)[c] = mean;
    (*inv_std_out)[c] = inv_std;
    const float scale = gamma[c] * inv_std;
    const float shift = beta[c] - mean * scale;
    for (int64_t n = 0; n < d.batch; ++n) {
      const float* p = x.data() + ((n * d.channels + c) * d.plane);
      float* q = y->data() + ((n * d.channels + c) * d.plane);
      for (int64_t i = 0; i < d.plane; ++i) {
        q[i] = p[i] * scale + shift;
      }
    }
  }
}

void ScalarBackward(const BatchNormDims& d, const std::vector<float>& x,
                    const std::vector<float>& grad_output,
                    const std::vector<float>& gamma,
                    const std::vector<float>& mean,
                    const std::vector<float>& inv_std,
                    std::vector<float>* grad_input,
                    std::vector<float>* grad_gamma,
                    std::vector<float>* grad_beta) {
  const int64_t count = d.batch * d.plane;
  for (int64_t c = 0; c < d.channels; ++c) {
    double sum_g = 0.0;
    double sum_gx = 0.0;
    for (int64_t n = 0; n < d.batch; ++n) {
      const float* p = x.data() + ((n * d.channels + c) * d.plane);
      const float* g = grad_output.data() + ((n * d.channels + c) * d.plane);
      for (int64_t i = 0; i < d.plane; ++i) {
        const float xhat = (p[i] - mean[c]) * inv_std[c];
        sum_g += g[i];
        sum_gx += g[i] * xhat;
      }
    }
    (*grad_beta)[c] += static_cast<float>(sum_g);
    (*grad_gamma)[c] += static_cast<float>(sum_gx);
    const float mean_g = static_cast<float>(sum_g / count);
    const float mean_gx = static_cast<float>(sum_gx / count);
    const float scale = gamma[c] * inv_std[c];
    for (int64_t n = 0; n < d.batch; ++n) {
      const float* p = x.data() + ((n * d.channels + c) * d.plane);
      const float* g = grad_output.data() + ((n * d.channels + c) * d.plane);
      float* q = grad_input->data() + ((n * d.channels + c) * d.plane);
      for (int64_t i = 0; i < d.plane; ++i) {
        const float xhat = (p[i] - mean[c]) * inv_std[c];
        q[i] = scale * (g[i] - mean_g - xhat * mean_gx);
      }
    }
  }
}

/// Runs the kernel and the scalar loops on the same data, forward then
/// backward, and expects every output and buffer bit-identical.
void ExpectBatchNormMatches(const BatchNormDims& d, bool batch_stats,
                            std::vector<float> x, size_t threads) {
  SCOPED_TRACE("batch=" + std::to_string(d.batch) +
               " channels=" + std::to_string(d.channels) +
               " plane=" + std::to_string(d.plane) +
               " batch_stats=" + std::to_string(batch_stats) +
               " threads=" + std::to_string(threads));
  const size_t numel = static_cast<size_t>(d.batch * d.channels * d.plane);
  const size_t channels = static_cast<size_t>(d.channels);
  const uint64_t seed = static_cast<uint64_t>(d.channels * 131 + d.plane);
  const std::vector<float> gamma = Random(channels, 0.5f, 1.5f, seed + 1);
  const std::vector<float> beta = Random(channels, -0.5f, 0.5f, seed + 2);
  const std::vector<float> gout = Random(numel, -1.0f, 1.0f, seed + 3);
  const float momentum = 0.1f;
  const float epsilon = 1e-5f;

  std::vector<float> want_rm = Random(channels, -0.2f, 0.2f, seed + 4);
  std::vector<float> want_rv = Random(channels, 0.5f, 2.0f, seed + 5);
  std::vector<float> want_y(numel), want_mean(channels), want_is(channels);
  std::vector<float> got_rm = want_rm, got_rv = want_rv;
  std::vector<float> got_y(numel), got_mean(channels), got_is(channels);
  ScalarForward(d, x, gamma, beta, batch_stats, momentum, epsilon, &want_rm,
                &want_rv, &want_y, &want_mean, &want_is);
  util::ThreadPool pool(threads);
  kernels::BatchNormForward(d, x.data(), gamma.data(), beta.data(),
                            batch_stats, momentum, epsilon, got_rm.data(),
                            got_rv.data(), got_y.data(), got_mean.data(),
                            got_is.data(), &pool);
  EXPECT_TRUE(SameBits(got_y, want_y));
  EXPECT_TRUE(SameBits(got_mean, want_mean));
  EXPECT_TRUE(SameBits(got_is, want_is));
  EXPECT_TRUE(SameBits(got_rm, want_rm));
  EXPECT_TRUE(SameBits(got_rv, want_rv));

  // Parameter gradients add into nonzero existing values.
  std::vector<float> want_gg = Random(channels, -1.0f, 1.0f, seed + 6);
  std::vector<float> want_gb = Random(channels, -1.0f, 1.0f, seed + 7);
  std::vector<float> want_gin(numel);
  std::vector<float> got_gg = want_gg, got_gb = want_gb;
  std::vector<float> got_gin(numel, 7.0f);
  ScalarBackward(d, x, gout, gamma, want_mean, want_is, &want_gin, &want_gg,
                 &want_gb);
  kernels::BatchNormBackward(d, x.data(), gout.data(), gamma.data(),
                             got_mean.data(), got_is.data(), got_gin.data(),
                             got_gg.data(), got_gb.data(), &pool);
  EXPECT_TRUE(SameBits(got_gin, want_gin));
  EXPECT_TRUE(SameBits(got_gg, want_gg));
  EXPECT_TRUE(SameBits(got_gb, want_gb));
}

TEST(BatchNormKernelTest, MatchesScalarLoopsOnShapeGrid) {
  for (int64_t batch : {1, 4}) {
    for (int64_t channels : {1, 3, 7, 8, 9, 17, 160}) {
      for (int64_t plane : {1, 4, 49, 196}) {
        const BatchNormDims d{batch, channels, plane};
        const std::vector<float> x = Random(
            static_cast<size_t>(batch * channels * plane), -2.0f, 3.0f,
            static_cast<uint64_t>(batch * 1000 + channels * 10 + plane));
        for (bool batch_stats : {true, false}) {
          for (size_t threads : {1, 2, 8}) {
            ExpectBatchNormMatches(d, batch_stats, x, threads);
          }
        }
      }
    }
  }
}

TEST(BatchNormKernelTest, SpecialValuesMatchScalarLoops) {
  const float inf = std::numeric_limits<float>::infinity();
  const float specials[] = {std::numeric_limits<float>::quiet_NaN(),
                            inf,
                            -inf,
                            std::numeric_limits<float>::denorm_min(),
                            -std::numeric_limits<float>::denorm_min(),
                            1e-40f,
                            -0.0f,
                            0.0f};
  for (int64_t channels : {3, 9, 17}) {
    const BatchNormDims d{4, channels, 49};
    std::vector<float> x =
        Random(static_cast<size_t>(4 * channels * 49), -2.0f, 2.0f,
               static_cast<uint64_t>(channels));
    // Channel 0 stays finite; the others get one special value each, so
    // finite and non-finite lanes share a block.
    for (int64_t c = 1; c < channels; ++c) {
      const float v = specials[(c - 1) % 8];
      x[static_cast<size_t>((2 * channels + c) * 49 + 5)] = v;
    }
    for (bool batch_stats : {true, false}) {
      for (size_t threads : {1, 2, 8}) {
        ExpectBatchNormMatches(d, batch_stats, x, threads);
      }
    }
  }
  // Denormal and signed-zero channels throughout: statistics near zero.
  const BatchNormDims tiny{2, 5, 4};
  std::vector<float> x(40);
  for (size_t i = 0; i < x.size(); ++i) {
    x[i] = (i % 3 == 0)   ? -0.0f
           : (i % 3 == 1) ? std::numeric_limits<float>::denorm_min()
                          : -1e-39f;
  }
  for (bool batch_stats : {true, false}) {
    ExpectBatchNormMatches(tiny, batch_stats, x, 2);
  }
}

TEST(BatchNormKernelTest, FrozenPathLeavesRunningStatsUntouched) {
  const BatchNormDims d{4, 9, 16};
  const std::vector<float> x = Random(4 * 9 * 16, -1.0f, 1.0f, 3);
  const std::vector<float> gamma(9, 1.0f), beta(9, 0.0f);
  std::vector<float> rm = Random(9, -0.1f, 0.1f, 4);
  std::vector<float> rv = Random(9, 0.9f, 1.1f, 5);
  const std::vector<float> rm0 = rm, rv0 = rv;
  std::vector<float> y(x.size()), mean(9), inv_std(9);
  util::ThreadPool pool(2);
  kernels::BatchNormForward(d, x.data(), gamma.data(), beta.data(),
                            /*batch_stats=*/false, 0.1f, 1e-5f, rm.data(),
                            rv.data(), y.data(), mean.data(), inv_std.data(),
                            &pool);
  EXPECT_TRUE(SameBits(rm, rm0));
  EXPECT_TRUE(SameBits(rv, rv0));
  EXPECT_TRUE(SameBits(mean, rm0));
}

// ---------------------------------------------------------------------------
// SGD

void ScalarSgd(std::vector<float>* value, const std::vector<float>& grad,
               std::vector<float>* velocity, float lr, float mu, float wd) {
  for (size_t i = 0; i < value->size(); ++i) {
    const float g = grad[i] + wd * (*value)[i];
    (*velocity)[i] = mu * (*velocity)[i] + g;
    (*value)[i] -= lr * (*velocity)[i];
  }
}

TEST(SgdKernelTest, StepMatchesScalarLoop) {
  for (float momentum : {0.0f, 0.9f}) {
    for (size_t n : {0, 1, 3, 4, 5, 17, 1000}) {
      SCOPED_TRACE("momentum=" + std::to_string(momentum) +
                   " n=" + std::to_string(n));
      std::vector<float> want_value = Random(n, -1.0f, 1.0f, n + 1);
      std::vector<float> want_velocity = Random(n, -0.1f, 0.1f, n + 2);
      if (n > 3) {
        // Non-finite and signed-zero lanes: at momentum 0 the 0 * velocity
        // term must still turn an infinite velocity into NaN.
        want_velocity[1] = std::numeric_limits<float>::infinity();
        want_value[2] = -0.0f;
        want_velocity[3] = -0.0f;
      }
      std::vector<float> grad = Random(n, -1.0f, 1.0f, n + 3);
      if (n > 3) {
        grad[3] = -0.0f;
      }
      std::vector<float> got_value = want_value;
      std::vector<float> got_velocity = want_velocity;
      for (int step = 0; step < 3; ++step) {
        ScalarSgd(&want_value, grad, &want_velocity, 0.01f, momentum, 1e-3f);
        kernels::SgdStep(got_value.data(), grad.data(), got_velocity.data(),
                         static_cast<int64_t>(n), 0.01f, momentum, 1e-3f);
      }
      EXPECT_TRUE(SameBits(got_value, want_value));
      EXPECT_TRUE(SameBits(got_velocity, want_velocity));
    }
  }
}

TEST(SgdKernelTest, ZeroFillWritesPositiveZero) {
  std::vector<float> v = {1.0f, -0.0f, std::numeric_limits<float>::quiet_NaN(),
                          -3.0f, 5.0f};
  kernels::ZeroFill(v.data(), 4);
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(std::bit_cast<uint32_t>(v[i]), 0u) << i;
  }
  EXPECT_EQ(v[4], 5.0f);
}

}  // namespace
}  // namespace mmlib
