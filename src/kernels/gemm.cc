#include "kernels/gemm.h"

#include <algorithm>

namespace mmlib::kernels {

namespace {

constexpr int64_t MR = kGemmMR;
constexpr int64_t NR = kGemmNR;

/// One MR x NR register tile: acc[i][j] += sum over k of a[k][i] * b[k][j].
/// The j loop is over independent output columns, so the compiler may
/// vectorize it freely without changing any reduction order; the k loop is
/// the reduction and stays strictly sequential.
inline void MicroKernel(const float* a, const float* b, int64_t kb,
                        float acc[MR][NR]) {
  for (int64_t k = 0; k < kb; ++k) {
    const float* arow = a + k * MR;
    const float* brow = b + k * NR;
    for (int i = 0; i < MR; ++i) {
      const float av = arow[i];
      for (int j = 0; j < NR; ++j) {
        acc[i][j] += av * brow[j];
      }
    }
  }
}

/// Writes the valid region of a register tile back to C. `first` means this
/// is the first k block of a non-accumulating GEMM: overwrite (with bias
/// when present); otherwise add on top.
inline void WriteBack(const float acc[MR][NR], float* c, int64_t ldc,
                      int64_t row0, int64_t col0, int64_t rows, int64_t cols,
                      bool first, const float* bias) {
  for (int64_t i = 0; i < rows; ++i) {
    float* crow = c + (row0 + i) * ldc + col0;
    if (first) {
      if (bias != nullptr) {
        const float* brow = bias + col0;
        for (int64_t j = 0; j < cols; ++j) {
          crow[j] = brow[j] + acc[i][j];
        }
      } else {
        for (int64_t j = 0; j < cols; ++j) {
          crow[j] = acc[i][j];
        }
      }
    } else {
      for (int64_t j = 0; j < cols; ++j) {
        crow[j] += acc[i][j];
      }
    }
  }
}

}  // namespace

int64_t DrawKc(int64_t kc, Rng* scheduler) {
  if (scheduler == nullptr || kc < 2) {
    return kc;
  }
  const int64_t low = (kc + 1) / 2;
  return low + static_cast<int64_t>(
                   scheduler->NextBelow(static_cast<uint64_t>(kc - low)));
}

void PackStrips(const float* src, int64_t rows, int64_t ld, int64_t k_begin,
                int64_t nk, float* dst) {
  const int64_t strips = CeilDiv(rows, MR);
  for (int64_t s = 0; s < strips; ++s) {
    float* out = dst + s * nk * MR;
    const int64_t live = std::min(MR, rows - s * MR);
    for (int64_t k = 0; k < nk; ++k) {
      for (int64_t i = 0; i < MR; ++i) {
        out[k * MR + i] =
            i < live ? src[(s * MR + i) * ld + k_begin + k] : 0.0f;
      }
    }
  }
}

void PackStripsTransposed(const float* src, int64_t rows, int64_t cols,
                          int64_t ld, float* dst) {
  const int64_t strips = CeilDiv(cols, MR);
  for (int64_t s = 0; s < strips; ++s) {
    float* out = dst + s * rows * MR;
    const int64_t live = std::min(MR, cols - s * MR);
    for (int64_t k = 0; k < rows; ++k) {
      const float* srow = src + k * ld + s * MR;
      for (int64_t i = 0; i < MR; ++i) {
        out[k * MR + i] = i < live ? srow[i] : 0.0f;
      }
    }
  }
}

void PackPanels(const float* src, int64_t rows, int64_t ld, int64_t col_begin,
                int64_t ncols, float* dst) {
  const int64_t panels = CeilDiv(ncols, NR);
  for (int64_t p = 0; p < panels; ++p) {
    float* out = dst + p * rows * NR;
    const int64_t live = std::min(NR, ncols - p * NR);
    const float* base = src + col_begin + p * NR;
    if (live == NR) {
      for (int64_t k = 0; k < rows; ++k) {
        const float* srow = base + k * ld;
        for (int64_t j = 0; j < NR; ++j) {
          out[k * NR + j] = srow[j];
        }
      }
    } else {
      for (int64_t k = 0; k < rows; ++k) {
        const float* srow = base + k * ld;
        for (int64_t j = 0; j < NR; ++j) {
          out[k * NR + j] = j < live ? srow[j] : 0.0f;
        }
      }
    }
  }
}

void PackPanelsTransposed(const float* src, int64_t rows, int64_t cols,
                          int64_t ld, int64_t col_begin, int64_t ncols,
                          float* dst) {
  (void)rows;
  const int64_t panels = CeilDiv(ncols, NR);
  for (int64_t p = 0; p < panels; ++p) {
    float* out = dst + p * cols * NR;
    const int64_t live = std::min(NR, ncols - p * NR);
    for (int64_t k = 0; k < cols; ++k) {
      for (int64_t j = 0; j < NR; ++j) {
        out[k * NR + j] =
            j < live ? src[(col_begin + p * NR + j) * ld + k] : 0.0f;
      }
    }
  }
}

void GemmPacked(const float* a, const float* b, int64_t m, int64_t n,
                int64_t k_total, int64_t kc, float* c, int64_t ldc,
                bool accumulate, bool rows_outer, const float* bias) {
  if (m <= 0 || n <= 0) {
    return;
  }
  if (kc <= 0) {
    kc = k_total;
  }
  const int64_t strips = CeilDiv(m, MR);
  const int64_t panels = CeilDiv(n, NR);
  // k_total == 0: a non-accumulating call must still initialize C.
  if (k_total == 0) {
    if (!accumulate) {
      for (int64_t r = 0; r < m; ++r) {
        for (int64_t col = 0; col < n; ++col) {
          c[r * ldc + col] = bias != nullptr ? bias[col] : 0.0f;
        }
      }
    }
    return;
  }
  for (int64_t pc = 0; pc < k_total; pc += kc) {
    const int64_t kb = std::min(kc, k_total - pc);
    const bool first = pc == 0 && !accumulate;
    auto run_tile = [&](int64_t s, int64_t p) {
      const float* ap = a + s * k_total * MR + pc * MR;
      const float* bp = b + p * k_total * NR + pc * NR;
      float acc[MR][NR] = {};
      MicroKernel(ap, bp, kb, acc);
      WriteBack(acc, c, ldc, s * MR, p * NR, std::min(MR, m - s * MR),
                std::min(NR, n - p * NR), first, bias);
    };
    if (rows_outer) {
      for (int64_t s = 0; s < strips; ++s) {
        for (int64_t p = 0; p < panels; ++p) {
          run_tile(s, p);
        }
      }
    } else {
      for (int64_t p = 0; p < panels; ++p) {
        for (int64_t s = 0; s < strips; ++s) {
          run_tile(s, p);
        }
      }
    }
  }
}

}  // namespace mmlib::kernels
