#pragma once

#include <cstdint>

#include "util/random.h"
#include "util/scratch_pool.h"
#include "util/thread_pool.h"

namespace mmlib::kernels {

/// Strategy chosen for a Linear (fully connected) shape.
enum class LinearAlgo {
  /// Keep the layer's direct dot-product loop (tiny shapes, where packing
  /// costs more than it saves). Serial sums in both execution modes.
  kDirect,
  /// Packed cache-blocked GEMM over output-feature tiles.
  kGemm,
};

/// An executable plan for one Linear shape (batch, in_features,
/// out_features). Forward computes y = x W^T + b; backward computes the
/// input, weight, and bias gradients. Both gradients parallelize over
/// disjoint output-feature column tiles with the full reduction inside
/// each GEMM in fixed batch order, so no cross-chunk scratch reduction is
/// needed and results are bit-identical at any pool size.
class LinearPlan {
 public:
  LinearPlan(int64_t batch, int64_t in_features, int64_t out_features);

  LinearAlgo algo() const { return algo_; }
  int64_t batch() const { return batch_; }
  int64_t in_features() const { return in_features_; }
  int64_t out_features() const { return out_features_; }
  /// Column-tile width over the parallelized feature dimension.
  int64_t nc() const { return nc_; }

  util::ScratchPool* scratch() const { return &scratch_; }

  /// y(batch, out) = x(batch, in) . W^T(in, out) + bias. Overwrites y.
  /// Requires algo() == kGemm. A non-null `scheduler` gives each GEMM role
  /// (forward; data gradient; weight gradient) a drawn split-K point
  /// (DrawKc, kernels/gemm.h); null keeps the fixed order.
  void Forward(const float* x, const float* weight, const float* bias,
               float* y, util::ThreadPool* pool, Rng* scheduler) const;

  /// grad_input = gout . W (overwritten), grad_weight += gout^T . x,
  /// grad_bias += column sums of gout. Requires algo() == kGemm.
  void Backward(const float* x, const float* weight, const float* grad_output,
                float* grad_input, float* grad_weight, float* grad_bias,
                util::ThreadPool* pool, Rng* scheduler) const;

 private:
  int64_t batch_;
  int64_t in_features_;
  int64_t out_features_;
  LinearAlgo algo_ = LinearAlgo::kDirect;
  int64_t nc_ = 0;
  int64_t kc_forward_ = 0;
  bool rows_outer_ = false;
  mutable util::ScratchPool scratch_;
};

}  // namespace mmlib::kernels
