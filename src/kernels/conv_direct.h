#pragma once

#include <cstdint>

#include "kernels/im2col.h"
#include "util/thread_pool.h"

namespace mmlib::kernels {

/// Forward chunk cap of every convolution plan, GEMM and direct: enough
/// slack for 16-way pools, small enough that per-chunk set-up stays
/// amortized. Forward outputs never depend on chunking.
inline constexpr int64_t kConvMaxForwardChunks = 64;

/// Backward chunk cap of the direct kernel: chunks run over samples, and
/// each carries a full weight-gradient buffer, so this also bounds scratch
/// memory. A constant, never the thread count: chunk boundaries fix the
/// weight-gradient reduction order.
inline constexpr int64_t kDirectMaxBackwardChunks = 8;

/// Deterministic direct convolution: the ConvAlgo::kDirect kernel, for
/// every shape the plan does not run as a GEMM (depthwise, tiny, any
/// groups, kernel, stride or padding). Arithmetic contract, fixed by the
/// shape alone and identical at every pool size:
///
///  - forward: each output sums w * x over its taps in (c, ky, kx) order,
///    padded taps included as zero products; plain serial sums from 0 when
///    kernel == 1 && padding == 0, Kahan summation from 0 otherwise;
///  - weight gradient: samples split into GrainForMaxChunks(batch,
///    kDirectMaxBackwardChunks) chunks; each chunk accumulates gout * x in
///    (n, oy, ox) order per weight element, skipping gout == 0 (Kahan with
///    per-chunk compensation, except plain sums for kernel 1 / padding 0);
///    the chunk buffers are added into grad_weight in chunk order;
///  - input gradient: each input element receives Acc_oc(w * gout) (same
///    Kahan / serial choice, from 0) once per covering output pixel, in
///    ascending (oy, ox) order; out-of-bounds taps are dropped.
///
/// Vectorisation runs only across independent outputs, never across a
/// reduction. Scratch comes from one pool shared by all direct plans;
/// nothing allocates per call once it is warm.
void DirectConvForward(const ConvGeom& geom, const float* input,
                       const float* weight, float* output,
                       util::ThreadPool* pool);

/// grad_input += dL/dx (expects grad_input zero-filled) and grad_weight +=
/// dL/dw under the contract above.
void DirectConvBackward(const ConvGeom& geom, const float* input,
                        const float* weight, const float* grad_output,
                        float* grad_input, float* grad_weight,
                        util::ThreadPool* pool);

}  // namespace mmlib::kernels
