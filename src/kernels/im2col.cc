#include "kernels/im2col.h"

#include <algorithm>

#include "kernels/gemm.h"

namespace mmlib::kernels {

namespace {

/// Input plane base of (sample n, channel c).
inline const float* PlaneOf(const ConvGeom& g, const float* input, int64_t n,
                            int64_t channel) {
  return input + (n * g.in_channels + channel) * g.height * g.width;
}

/// True when every tap of the output pixel whose window starts at
/// (base_y, base_x) lies inside the input plane, so no bounds check is
/// needed.
inline bool Interior(const ConvGeom& g, int64_t base_y, int64_t base_x) {
  return base_y >= 0 && base_y + g.kernel <= g.height && base_x >= 0 &&
         base_x + g.kernel <= g.width;
}

/// Window origin of output pixels in order, without a division per pixel.
class PixelCursor {
 public:
  PixelCursor(const ConvGeom& g, int64_t pix)
      : g_(g), oy_(pix / g.out_w), ox_(pix % g.out_w) {}
  int64_t base_y() const { return oy_ * g_.stride - g_.padding; }
  int64_t base_x() const { return ox_ * g_.stride - g_.padding; }
  void Next() {
    if (++ox_ == g_.out_w) {
      ox_ = 0;
      ++oy_;
    }
  }

 private:
  const ConvGeom& g_;
  int64_t oy_;
  int64_t ox_;
};

}  // namespace

void Im2ColPanels(const ConvGeom& geom, const float* input, int64_t n,
                  int64_t g, int64_t col_begin, int64_t ncols, float* dst) {
  const int64_t NR = kGemmNR;
  const int64_t K = geom.patch_size();
  const int64_t panels = CeilDiv(ncols, NR);

  if (geom.is_pointwise()) {
    // col[k][pix] is just channel plane k of the group: contiguous copies.
    for (int64_t p = 0; p < panels; ++p) {
      float* out = dst + p * K * NR;
      const int64_t base = col_begin + p * NR;
      const int64_t live = std::min(NR, ncols - p * NR);
      for (int64_t c = 0; c < K; ++c) {
        const float* plane = PlaneOf(geom, input, n, g * geom.group_in() + c);
        for (int64_t j = 0; j < NR; ++j) {
          out[c * NR + j] = j < live ? plane[base + j] : 0.0f;
        }
      }
    }
    return;
  }

  const int64_t kernel = geom.kernel;
  for (int64_t p = 0; p < panels; ++p) {
    float* out = dst + p * K * NR;
    const int64_t live = std::min(NR, ncols - p * NR);
    // Per-panel pixel coordinates, hoisted out of the k loop.
    int64_t base_y[kGemmNR];
    int64_t base_x[kGemmNR];
    for (int64_t j = 0; j < NR; ++j) {
      const int64_t pix = col_begin + p * NR + (j < live ? j : live - 1);
      base_y[j] = (pix / geom.out_w) * geom.stride - geom.padding;
      base_x[j] = (pix % geom.out_w) * geom.stride - geom.padding;
    }
    // One column of the panel per pixel: interior pixels gather without
    // bounds checks, border pixels (and the zero columns past `live`)
    // check every tap.
    for (int64_t j = 0; j < NR; ++j) {
      float* column = out + j;
      if (j < live && Interior(geom, base_y[j], base_x[j])) {
        const int64_t origin = base_y[j] * geom.width + base_x[j];
        int64_t k = 0;
        for (int64_t c = 0; c < geom.group_in(); ++c) {
          const float* window =
              PlaneOf(geom, input, n, g * geom.group_in() + c) + origin;
          for (int64_t ky = 0; ky < kernel; ++ky) {
            for (int64_t kx = 0; kx < kernel; ++kx, ++k) {
              column[k * NR] = window[ky * geom.width + kx];
            }
          }
        }
        continue;
      }
      int64_t k = 0;
      for (int64_t c = 0; c < geom.group_in(); ++c) {
        const float* plane =
            PlaneOf(geom, input, n, g * geom.group_in() + c);
        for (int64_t ky = 0; ky < kernel; ++ky) {
          for (int64_t kx = 0; kx < kernel; ++kx, ++k) {
            const int64_t y = base_y[j] + ky;
            const int64_t x = base_x[j] + kx;
            const bool in = j < live && y >= 0 && y < geom.height &&
                            x >= 0 && x < geom.width;
            column[k * NR] = in ? plane[y * geom.width + x] : 0.0f;
          }
        }
      }
    }
  }
}

void Im2ColPatchPanels(const ConvGeom& geom, const float* input, int64_t n,
                       int64_t g, int64_t col_begin, int64_t ncols,
                       float* dst) {
  const int64_t NR = kGemmNR;
  const int64_t K = geom.patch_size();
  const int64_t panels = CeilDiv(K, NR);
  const int64_t taps = geom.kernel * geom.kernel;

  for (int64_t p = 0; p < panels; ++p) {
    float* out = dst + p * ncols * NR;
    const int64_t live = std::min(NR, K - p * NR);
    // Decompose the panel's patch indices once.
    const float* plane[kGemmNR];
    int64_t off_y[kGemmNR];
    int64_t off_x[kGemmNR];
    for (int64_t j = 0; j < NR; ++j) {
      const int64_t k = p * NR + (j < live ? j : live - 1);
      const int64_t c = k / taps;
      const int64_t t = k % taps;
      plane[j] = PlaneOf(geom, input, n, g * geom.group_in() + c);
      off_y[j] = t / geom.kernel;
      off_x[j] = t % geom.kernel;
    }
    int64_t tap[kGemmNR];
    for (int64_t j = 0; j < NR; ++j) {
      tap[j] = off_y[j] * geom.width + off_x[j];
    }
    PixelCursor cursor(geom, col_begin);
    for (int64_t pix = 0; pix < ncols; ++pix, cursor.Next()) {
      const int64_t base_y = cursor.base_y();
      const int64_t base_x = cursor.base_x();
      float* orow = out + pix * NR;
      if (Interior(geom, base_y, base_x)) {
        const int64_t origin = base_y * geom.width + base_x;
        for (int64_t j = 0; j < NR; ++j) {
          orow[j] = j < live ? plane[j][origin + tap[j]] : 0.0f;
        }
        continue;
      }
      for (int64_t j = 0; j < NR; ++j) {
        const int64_t y = base_y + off_y[j];
        const int64_t x = base_x + off_x[j];
        const bool in = j < live && y >= 0 && y < geom.height && x >= 0 &&
                        x < geom.width;
        orow[j] = in ? plane[j][y * geom.width + x] : 0.0f;
      }
    }
  }
}

void Col2ImScatter(const ConvGeom& geom, const float* colgrad, int64_t n,
                   int64_t g, int64_t col_begin, int64_t ncols,
                   float* grad_input) {
  const int64_t K = geom.patch_size();
  const int64_t kernel = geom.kernel;
  const int64_t plane_size = geom.height * geom.width;
  float* group_base =
      grad_input + (n * geom.in_channels + g * geom.group_in()) * plane_size;

  if (geom.is_pointwise()) {
    for (int64_t pix = 0; pix < ncols; ++pix) {
      const int64_t abs_pix = col_begin + pix;
      for (int64_t c = 0; c < K; ++c) {
        group_base[c * plane_size + abs_pix] += colgrad[c * ncols + pix];
      }
    }
    return;
  }

  PixelCursor cursor(geom, col_begin);
  for (int64_t pix = 0; pix < ncols; ++pix, cursor.Next()) {
    const int64_t base_y = cursor.base_y();
    const int64_t base_x = cursor.base_x();
    int64_t k = 0;
    if (Interior(geom, base_y, base_x)) {
      // Same adds in the same order, without the bounds checks.
      for (int64_t c = 0; c < geom.group_in(); ++c) {
        float* window =
            group_base + c * plane_size + base_y * geom.width + base_x;
        for (int64_t ky = 0; ky < kernel; ++ky) {
          for (int64_t kx = 0; kx < kernel; ++kx, ++k) {
            window[ky * geom.width + kx] += colgrad[k * ncols + pix];
          }
        }
      }
      continue;
    }
    for (int64_t c = 0; c < geom.group_in(); ++c) {
      float* plane = group_base + c * plane_size;
      for (int64_t ky = 0; ky < kernel; ++ky) {
        const int64_t y = base_y + ky;
        for (int64_t kx = 0; kx < kernel; ++kx, ++k) {
          const int64_t x = base_x + kx;
          if (y >= 0 && y < geom.height && x >= 0 && x < geom.width) {
            plane[y * geom.width + x] += colgrad[k * ncols + pix];
          }
        }
      }
    }
  }
}

}  // namespace mmlib::kernels
