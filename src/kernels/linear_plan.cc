#include "kernels/linear_plan.h"

#include <algorithm>

#include "kernels/gemm.h"

namespace mmlib::kernels {

namespace {

/// Below this many multiply-adds, the direct loop wins over packing.
constexpr int64_t kMinGemmWork = 16384;

/// Chunk cap over column tiles; a constant so chunk boundaries (and the
/// implicit ownership of output columns) never depend on the pool size.
constexpr int64_t kMaxChunks = 64;

}  // namespace

LinearPlan::LinearPlan(int64_t batch, int64_t in_features,
                       int64_t out_features)
    : batch_(batch), in_features_(in_features), out_features_(out_features) {
  if (batch * in_features * out_features < kMinGemmWork) {
    algo_ = LinearAlgo::kDirect;
    return;
  }
  algo_ = LinearAlgo::kGemm;
  nc_ = std::min<int64_t>(256, CeilDiv(out_features, kGemmNR) * kGemmNR);
  kc_forward_ = std::min<int64_t>(kGemmKC, in_features);
  // A = packed activations (batch x in); keep the smaller operand resident.
  rows_outer_ = batch > nc_;
}

void LinearPlan::Forward(const float* x, const float* weight,
                         const float* bias, float* y,
                         util::ThreadPool* pool, Rng* scheduler) const {
  const int64_t b = batch_;
  const int64_t in = in_features_;
  const int64_t out = out_features_;
  const int64_t kc = DrawKc(kc_forward_, scheduler);

  // Call-level packs, shared read-only by all chunks:
  //   A = x strips (batch rows, k dim = in)
  //   B = W^T panels (k dim = in, columns = out features).
  const int64_t a_floats = PackedStripFloats(b, in);
  const int64_t b_floats = PackedPanelFloats(in, out);
  util::ScratchPool::Lease lease =
      scratch_.Acquire(static_cast<size_t>(a_floats + b_floats));
  float* a_pack = lease.data();
  float* b_pack = a_pack + a_floats;
  PackStrips(x, b, in, 0, in, a_pack);
  PackPanelsTransposed(weight, out, in, in, 0, out, b_pack);

  const int64_t tiles = CeilDiv(out, nc_);
  const int64_t grain = util::GrainForMaxChunks(tiles, kMaxChunks);
  util::ParallelFor(
      pool, tiles, grain,
      [&](int64_t begin, int64_t end, size_t /*chunk_index*/) {
        for (int64_t tile = begin; tile < end; ++tile) {
          const int64_t col_begin = tile * nc_;
          const int64_t ncols = std::min(nc_, out - col_begin);
          GemmPacked(a_pack, b_pack + (col_begin / kGemmNR) * in * kGemmNR,
                     b, ncols, in, kc, y + col_begin, out,
                     /*accumulate=*/false, rows_outer_, bias + col_begin);
        }
      });
}

void LinearPlan::Backward(const float* x, const float* weight,
                          const float* grad_output, float* grad_input,
                          float* grad_weight, float* grad_bias,
                          util::ThreadPool* pool, Rng* scheduler) const {
  const int64_t b = batch_;
  const int64_t in = in_features_;
  const int64_t out = out_features_;

  // Call-level packs:
  //   A1 = gout strips (batch rows, k = out)     for grad_input
  //   B1 = W panels (k = out, columns = in)      for grad_input
  //   A2 = gout^T strips (out rows, k = batch)   for grad_weight
  //   B2 = x panels (k = batch, columns = in)    for grad_weight
  const int64_t a1_floats = PackedStripFloats(b, out);
  const int64_t b1_floats = PackedPanelFloats(out, in);
  const int64_t a2_floats = PackedStripFloats(out, b);
  const int64_t b2_floats = PackedPanelFloats(b, in);
  util::ScratchPool::Lease lease = scratch_.Acquire(
      static_cast<size_t>(a1_floats + b1_floats + a2_floats + b2_floats));
  float* a1 = lease.data();
  float* b1 = a1 + a1_floats;
  float* a2 = b1 + b1_floats;
  float* b2 = a2 + a2_floats;
  PackStrips(grad_output, b, out, 0, out, a1);
  PackPanels(weight, out, in, 0, in, b1);
  PackStripsTransposed(grad_output, b, out, out, a2);
  PackPanels(x, b, in, 0, in, b2);

  // Both gradients tile over the in-feature dimension: every output column
  // is owned by exactly one chunk and its batch reduction runs inside the
  // GEMM in fixed batch order, so no scratch reduction is needed and the
  // result is bit-identical at any pool size.
  const int64_t tiles = CeilDiv(in, nc_);
  const int64_t grain = util::GrainForMaxChunks(tiles, kMaxChunks);
  const int64_t kc_out = DrawKc(std::min<int64_t>(kGemmKC, out), scheduler);
  const int64_t kc_b = DrawKc(std::min<int64_t>(kGemmKC, b), scheduler);
  util::ParallelFor(
      pool, tiles, grain,
      [&](int64_t begin, int64_t end, size_t /*chunk_index*/) {
        for (int64_t tile = begin; tile < end; ++tile) {
          const int64_t col_begin = tile * nc_;
          const int64_t ncols = std::min(nc_, in - col_begin);
          GemmPacked(a1, b1 + (col_begin / kGemmNR) * out * kGemmNR, b,
                     ncols, out, kc_out, grad_input + col_begin, in,
                     /*accumulate=*/false, rows_outer_, /*bias=*/nullptr);
          GemmPacked(a2, b2 + (col_begin / kGemmNR) * b * kGemmNR, out,
                     ncols, b, kc_b, grad_weight + col_begin, in,
                     /*accumulate=*/true, /*rows_outer=*/out > ncols,
                     /*bias=*/nullptr);
        }
      });

  // Bias gradient: small, serial, fixed batch order.
  for (int64_t o = 0; o < out; ++o) {
    float sum = 0.0f;
    for (int64_t s = 0; s < b; ++s) {
      sum += grad_output[s * out + o];
    }
    grad_bias[o] += sum;
  }
}

}  // namespace mmlib::kernels
