#pragma once

#include <cstdint>

#include "util/random.h"

namespace mmlib::kernels {

/// Cache-blocked single-precision GEMM on packed operands.
///
/// This is the compute core of the kernel-plan layer (DESIGN.md "Kernel
/// plan layer"). The design is BLIS-shaped: both operands are repacked
/// into register-tile-friendly panels, and a fully unrolled MR x NR
/// microkernel accumulates C tiles held in registers.
///
/// Determinism contract: every C element accumulates its K products in
/// strictly increasing k order — the microkernel vectorizes ACROSS
/// independent output columns, never across the reduction dimension, so
/// the floating-point association order is a pure function of the operand
/// shapes and the plan's KC block size. It does not depend on the thread
/// count, the chunking, the compiler's vector width, or the ISA, which is
/// what keeps planned kernels bit-identical at any pool size.
///
/// Non-deterministic executions take exactly one freedom: split-K. Each
/// GEMM role of a plan call runs with a reduction block drawn by DrawKc,
/// which changes where the register tile is flushed into C (and so the
/// association order) and nothing else.

/// Microkernel register tile: MR rows x NR columns of C.
inline constexpr int64_t kGemmMR = 4;
inline constexpr int64_t kGemmNR = 8;

/// Default reduction block: a KC x NR B panel slice (kKC * kNR * 4 bytes =
/// 32 KiB) stays L1-resident while every row strip streams past it.
inline constexpr int64_t kGemmKC = 1024;

/// Reduction block for one GEMM role of a plan call. A null `scheduler`
/// returns `kc`: the plan's fixed order. Otherwise, for kc >= 2, it returns
/// a split point drawn from [ceil(kc/2), kc-1], so each kc-long block runs
/// as exactly two partial sums. Call it on the launching thread, once per
/// role and call, never inside a chunk: a scheduler seed then yields the
/// same bits at every pool size.
int64_t DrawKc(int64_t kc, Rng* scheduler);

inline constexpr int64_t CeilDiv(int64_t a, int64_t b) {
  return (a + b - 1) / b;
}

/// Floats needed for a packed A (strip-major) operand: ceil(rows/MR)
/// strips, each nk * MR floats (edge rows zero-filled).
inline constexpr int64_t PackedStripFloats(int64_t rows, int64_t nk) {
  return CeilDiv(rows, kGemmMR) * kGemmMR * nk;
}

/// Floats needed for a packed B (panel-major) operand: ceil(cols/NR)
/// panels, each nk * NR floats (edge columns zero-filled).
inline constexpr int64_t PackedPanelFloats(int64_t nk, int64_t cols) {
  return CeilDiv(cols, kGemmNR) * kGemmNR * nk;
}

/// Packs rows of `src` (row-major rows x cols, leading dimension ld) into
/// strip-major layout: strip s holds rows [s*MR, s*MR+MR), k-major —
/// dst[s*(nk*MR) + k*MR + i] = src[(s*MR+i)*ld + k_begin + k]. Rows past
/// `rows` are zero-filled. The packed k range is [k_begin, k_begin+nk).
void PackStrips(const float* src, int64_t rows, int64_t ld, int64_t k_begin,
                int64_t nk, float* dst);

/// Strip-packs the TRANSPOSE of `src` (row-major rows x cols): the packed
/// operand is src^T with `cols` rows and k dimension `rows` —
/// dst[s*(rows*MR) + k*MR + i] = src[k*ld + s*MR + i].
void PackStripsTransposed(const float* src, int64_t rows, int64_t cols,
                          int64_t ld, float* dst);

/// Packs columns [col_begin, col_begin+ncols) of `src` (row-major
/// rows x cols, leading dimension ld) into panel-major layout: panel p
/// holds columns [p*NR, p*NR+NR) of the packed range, k-major —
/// dst[p*(rows*NR) + k*NR + j] = src[k*ld + col_begin + p*NR + j].
/// Columns past `ncols` are zero-filled.
void PackPanels(const float* src, int64_t rows, int64_t ld, int64_t col_begin,
                int64_t ncols, float* dst);

/// Panel-packs the TRANSPOSE of `src` (row-major rows x cols): the packed
/// operand is src^T with k dimension `cols` and `rows` columns; packs
/// columns [col_begin, col_begin+ncols) of src^T (= rows of src).
void PackPanelsTransposed(const float* src, int64_t rows, int64_t cols,
                          int64_t ld, int64_t col_begin, int64_t ncols,
                          float* dst);

/// C[0:m, 0:n] (+)= A . B on packed operands.
///
///  - `a`: strip-major packed A, m rows, k_total k-dim, from PackStrips*.
///  - `b`: panel-major packed B, k_total k-dim, n columns, from PackPanels*.
///  - `c`: row-major output with leading dimension ldc; the tile written is
///    c[r*ldc + col] for r in [0,m), col in [0,n).
///  - `kc`: reduction block size; the k loop runs in [0,kc), [kc,2kc), ...
///    with the C tile reloaded between blocks, so larger-than-L1 panels
///    still accumulate in fixed k order.
///  - `accumulate`: false overwrites C (adding `bias` per column when
///    non-null, as bias + sum in that order); true adds into C.
///  - `rows_outer`: loop order. false iterates column panels outer / row
///    strips inner (A stays cache-resident — pick when A is the smaller
///    operand); true iterates row strips outer (the B tile stays resident).
void GemmPacked(const float* a, const float* b, int64_t m, int64_t n,
                int64_t k_total, int64_t kc, float* c, int64_t ldc,
                bool accumulate, bool rows_outer, const float* bias);

}  // namespace mmlib::kernels
