#include "kernels/conv_direct.h"

#include <algorithm>
#include <bit>

#include "kernels/gemm.h"
#include "util/scratch_pool.h"

namespace mmlib::kernels {

namespace {

/// Floats of a depthwise output row swept by all taps before moving on.
constexpr int64_t kRunBlock = 512;

/// Scratch of every direct-kernel call: one pool for all direct plans
/// rather than each plan's own. Their buffers are weight-sized, and a pool
/// per plan would keep one set alive for every layer of a model. Never
/// destroyed, like the global thread pool.
util::ScratchPool& Scratch() {
  static util::ScratchPool* const pool = new util::ScratchPool();
  return *pool;
}

/// One compensated (Kahan) step of a dot product.
inline void KahanAdd(float product, float& sum, float& comp) {
  const float y = product - comp;
  const float t = sum + y;
  comp = (t - sum) - y;
  sum = t;
}

/// `updated` where gout != 0 (NaN included), else `kept`: a bit blend, so
/// a loop of them vectorises.
inline float IfNonzero(float gout, float updated, float kept) {
  const uint32_t live =
      (std::bit_cast<uint32_t>(gout) << 1) != 0 ? ~uint32_t{0} : 0;
  return std::bit_cast<float>((std::bit_cast<uint32_t>(updated) & live) |
                              (std::bit_cast<uint32_t>(kept) & ~live));
}

/// Shape constants of a direct convolution.
struct Dims {
  explicit Dims(const ConvGeom& geom)
      : geom(geom),
        k(geom.kernel),
        kk(geom.kernel * geom.kernel),
        stride(geom.stride),
        pad(geom.padding),
        gi(geom.group_in()),
        go(geom.group_out()),
        patch(geom.patch_size()),
        hp(std::max(geom.height + 2 * geom.padding,
                    (geom.out_h - 1) * geom.stride + geom.kernel)),
        wp(std::max(geom.width + 2 * geom.padding,
                    (geom.out_w - 1) * geom.stride + geom.kernel)),
        in_plane(geom.height * geom.width),
        out_plane(geom.out_pixels()),
        serial(geom.kernel == 1 && geom.padding == 0),
        depthwise(gi == 1 && go == 1 && !serial) {}

  ConvGeom geom;
  int64_t k, kk, stride, pad, gi, go, patch;
  /// Zero-bordered plane extent: the padding, plus any taps of the last
  /// output row or column that fall past it (zero products).
  int64_t hp, wp;
  int64_t in_plane, out_plane;
  /// Plain serial sums instead of Kahan (kernel 1, padding 0).
  bool serial;
  /// One channel per group, with Kahan sums: the channels-last path.
  /// Depthwise 1x1/pad-0 convs sum serially, so they take the pointwise
  /// (stride 1) or general path instead.
  bool depthwise;
};

// ---------------------------------------------------------------------------
// Depthwise: channels-last planes, every tap vectorised across channels.

/// Sample planes copied channels-last into a zero-bordered hp x wp grid,
/// `lanes` floats per pixel (zero past `channels`), each row split into
/// `phases` column phases of CeilDiv(wp, phases) pixels: padded column X
/// sits at (X % phases) * CeilDiv(wp, phases) + X / phases. Taps at stride
/// `phases` then read whole output rows contiguously.
void PadToChannelsLast(const Dims& d, const float* src, int64_t channels,
                       int64_t lanes, int64_t phases, float* dst) {
  const int64_t wq = CeilDiv(d.wp, phases);
  const int64_t row = phases * wq * lanes;
  std::fill(dst, dst + d.hp * row, 0.0f);
  // One pass per phase, so no element pays a division: input columns x0,
  // x0 + phases, ... land on consecutive pixels of phase ph.
  for (int64_t ph = 0; ph < phases; ++ph) {
    const int64_t x0 = ((ph - d.pad) % phases + phases) % phases;
    const int64_t first = (ph * wq + (x0 + d.pad) / phases) * lanes;
    for (int64_t c = 0; c < channels; ++c) {
      const float* plane = src + c * d.in_plane;
      for (int64_t y = 0; y < d.geom.height; ++y) {
        const float* in = plane + y * d.geom.width;
        float* o = dst + (y + d.pad) * row + first + c;
        for (int64_t x = x0; x < d.geom.width; x += phases, o += lanes) {
          *o = in[x];
        }
      }
    }
  }
}

/// Tap-major weights, each tap's channel row repeated `repeat` times:
/// wt[(t * repeat + r) * lanes + c] = weight[c * kk + t], zero in lanes
/// past `channels`.
void TapMajorWeights(const Dims& d, const float* weight, int64_t channels,
                     int64_t lanes, int64_t repeat, float* wt) {
  for (int64_t t = 0; t < d.kk; ++t) {
    for (int64_t r = 0; r < repeat; ++r) {
      float* row = wt + (t * repeat + r) * lanes;
      for (int64_t c = 0; c < lanes; ++c) {
        row[c] = c < channels ? weight[c * d.kk + t] : 0.0f;
      }
    }
  }
}

/// Channel lanes of the depthwise backward sweeps: its channels-last
/// buffers round the channel count up to a multiple of kLaneBlock, with
/// zero inputs, weights and gradients in the extra lanes, so every sweep
/// is whole vectors.
constexpr int64_t kLaneBlock = 4;

inline int64_t PaddedLanes(int64_t channels) {
  return (channels + kLaneBlock - 1) / kLaneBlock * kLaneBlock;
}

/// KahanAdd(w[q] * x[q], s[q], c[q]) for q < len: independent sums. The
/// restrict parameters spare the loop a run-time overlap check.
inline void KahanRow(int64_t len, const float* __restrict w,
                     const float* __restrict x, float* __restrict s,
                     float* __restrict c) {
  for (int64_t q = 0; q < len; ++q) {
    KahanAdd(w[q] * x[q], s[q], c[q]);
  }
}

/// Depthwise forward: each tap sweeps a whole output row of (ox, c)
/// pairs, contiguous in a phase-split channels-last plane (phases =
/// stride), against the tap's weights repeated once per pixel.
void DepthwiseForward(const Dims& d, const float* input, const float* weight,
                      float* output, util::ThreadPool* pool) {
  const int64_t channels = d.geom.in_channels;
  const int64_t out_w = d.geom.out_w;
  const int64_t run = out_w * channels;
  const int64_t wq = CeilDiv(d.wp, d.stride);
  const int64_t row = d.stride * wq * channels;
  const int64_t xt_floats = d.hp * row;
  const int64_t batch = d.geom.batch;
  util::ScratchPool::Lease wt_lease =
      Scratch().Acquire(static_cast<size_t>(d.kk * run));
  float* wt = wt_lease.data();
  TapMajorWeights(d, weight, channels, channels, out_w, wt);
  util::ParallelFor(
      pool, batch, util::GrainForMaxChunks(batch, kConvMaxForwardChunks),
      [&](int64_t begin, int64_t end, size_t /*chunk_index*/) {
        util::ScratchPool::Lease lease =
            Scratch().Acquire(static_cast<size_t>(xt_floats + 2 * run));
        float* xt = lease.data();
        float* sum = xt + xt_floats;
        float* comp = sum + run;
        for (int64_t n = begin; n < end; ++n) {
          PadToChannelsLast(d, input + n * channels * d.in_plane, channels,
                            channels, d.stride, xt);
          float* out = output + n * channels * d.out_plane;
          for (int64_t oy = 0; oy < d.geom.out_h; ++oy) {
            std::fill(sum, sum + run, 0.0f);
            std::fill(comp, comp + run, 0.0f);
            // All taps per block of the run, so its sums stay in L1.
            for (int64_t q0 = 0; q0 < run; q0 += kRunBlock) {
              const int64_t len = std::min(kRunBlock, run - q0);
              for (int64_t ky = 0; ky < d.k; ++ky) {
                const float* x_row = xt + (oy * d.stride + ky) * row;
                for (int64_t kx = 0; kx < d.k; ++kx) {
                  const int64_t t = ky * d.k + kx;
                  KahanRow(len, wt + t * run + q0,
                           x_row +
                               ((kx % d.stride) * wq + kx / d.stride) *
                                   channels +
                               q0,
                           sum + q0, comp + q0);
                }
              }
            }
            float* row_out = out + oy * out_w;
            for (int64_t p = 0; p < out_w; ++p) {
              for (int64_t c = 0; c < channels; ++c) {
                row_out[c * d.out_plane + p] = sum[p * channels + c];
              }
            }
          }
        }
      });
}

/// One kernel row of a pixel's taps, `len` floats (a multiple of
/// kLaneBlock), with gout repeated per tap in `g`. Per tap and channel: a
/// Kahan step of the weight gradient, skipped (state kept) where gout is
/// zero; and w * gout added into the input gradient, a one-term sum (its
/// 0 + only turns -0 into +0, which adding into a sum that starts at +0
/// does too). The restrict parameters spare the sweep a run-time overlap
/// check, and whole lane blocks spare it a scalar tail.
inline void DepthwiseRow(int64_t len, const float* __restrict g,
                         const float* __restrict x, const float* __restrict w,
                         float* __restrict s, float* __restrict cm,
                         float* __restrict dst) {
  for (int64_t q0 = 0; q0 < len; q0 += kLaneBlock) {
    for (int64_t q = q0; q < q0 + kLaneBlock; ++q) {
      const float y = g[q] * x[q] - cm[q];
      const float sum = s[q] + y;
      const float comp = (sum - s[q]) - y;
      s[q] = IfNonzero(g[q], sum, s[q]);
      cm[q] = IfNonzero(g[q], comp, cm[q]);
      dst[q] += w[q] * g[q];
    }
  }
}

/// Both gradients of sample n of a depthwise conv, over PaddedLanes
/// channel lanes. `wt`, `gw` and `gcomp` are tap-major (kk x lanes):
/// weights, and the chunk's weight-gradient sums and Kahan terms. One
/// kernel row of a pixel's patch, all kx and lanes, is a contiguous run of
/// k * lanes floats in a channels-last plane and in the tap-major buffers,
/// so each row is one sweep. Pixels run in (oy, ox) order, and one pixel
/// reaches an input element through at most one tap, so each weight
/// gradient and each input element gets its terms in (oy, ox) order.
void DepthwiseBackwardSample(const Dims& d, const float* input,
                             const float* wt, const float* grad_output,
                             int64_t n, float* grad_input, float* gw,
                             float* gcomp, float* work) {
  const int64_t channels = d.geom.in_channels;
  const int64_t lanes = PaddedLanes(channels);
  const int64_t run = d.k * lanes;
  const int64_t padded_floats = d.hp * d.wp * lanes;
  float* xt = work;
  float* gin = xt + padded_floats;
  float* gout_rep = gin + padded_floats;
  PadToChannelsLast(d, input + n * channels * d.in_plane, channels, lanes,
                    /*phases=*/1, xt);
  std::fill(gin, gin + padded_floats, 0.0f);
  // gout per pixel, repeated for each kx of a kernel row.
  const float* gout = grad_output + n * channels * d.out_plane;
  for (int64_t pix = 0; pix < d.out_plane; ++pix) {
    float* rep = gout_rep + pix * run;
    for (int64_t c = 0; c < lanes; ++c) {
      rep[c] = c < channels ? gout[c * d.out_plane + pix] : 0.0f;
    }
    for (int64_t q = lanes; q < run; ++q) {
      rep[q] = rep[q - lanes];
    }
  }

  for (int64_t oy = 0; oy < d.geom.out_h; ++oy) {
    for (int64_t ox = 0; ox < d.geom.out_w; ++ox) {
      const float* g = gout_rep + (oy * d.geom.out_w + ox) * run;
      for (int64_t ky = 0; ky < d.k; ++ky) {
        const int64_t at =
            ((oy * d.stride + ky) * d.wp + ox * d.stride) * lanes;
        DepthwiseRow(run, g, xt + at, wt + ky * run, gw + ky * run,
                     gcomp + ky * run, gin + at);
      }
    }
  }

  float* out = grad_input + n * channels * d.in_plane;
  for (int64_t c = 0; c < channels; ++c) {
    for (int64_t y = 0; y < d.geom.height; ++y) {
      const float* src = gin + ((y + d.pad) * d.wp + d.pad) * lanes + c;
      float* row = out + c * d.in_plane + y * d.geom.width;
      for (int64_t x = 0; x < d.geom.width; ++x) {
        row[x] += src[x * lanes];
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Pointwise (1x1, stride 1, pad 0): serial sums over channels.

/// out[r * ldo + p] = sum over i of A(r, i) * b[i * ldb + p], serially from
/// 0 in i order, for r < rows and p < pixels. A is given twice: as
/// A(r, i) = a[r * a_row + i * a_inner], and row-major transposed as
/// at[i * rows + r]. Long pixel rows (pixels >= rows) vectorise across
/// pixels and never read `at`; otherwise across r, with `acc` (rows
/// floats) holding one pixel's sums.
void SerialProduct(const float* a, int64_t a_row, int64_t a_inner,
                   const float* at, const float* b, int64_t ldb, int64_t rows,
                   int64_t inner, int64_t pixels, float* out, int64_t ldo,
                   float* __restrict acc) {
  if (pixels >= rows) {
    for (int64_t r = 0; r < rows; ++r) {
      float* __restrict o = out + r * ldo;
      std::fill(o, o + pixels, 0.0f);
      for (int64_t i = 0; i < inner; ++i) {
        const float av = a[r * a_row + i * a_inner];
        const float* __restrict brow = b + i * ldb;
        for (int64_t p = 0; p < pixels; ++p) {
          o[p] += av * brow[p];
        }
      }
    }
    return;
  }
  for (int64_t p = 0; p < pixels; ++p) {
    std::fill(acc, acc + rows, 0.0f);
    for (int64_t i = 0; i < inner; ++i) {
      const float bv = b[i * ldb + p];
      const float* __restrict arow = at + i * rows;
      for (int64_t r = 0; r < rows; ++r) {
        acc[r] += arow[r] * bv;
      }
    }
    for (int64_t r = 0; r < rows; ++r) {
      out[r * ldo + p] = acc[r];
    }
  }
}

/// s[i] += g[i] * x where g[i] != 0 (NaN included), else s[i] kept, for
/// i < n: one step of n independent sums, as a blend so it vectorises.
inline void NonzeroAxpy(int64_t n, const float* __restrict g, float x,
                        float* __restrict s) {
  for (int64_t i = 0; i < n; ++i) {
    s[i] = IfNonzero(g[i], s[i] + g[i] * x, s[i]);
  }
}

/// True when a pointwise weight gradient runs across output channels: its
/// input-channel rows are shorter than a vector, so each pixel would add
/// go tiny rows; the chunk sums are then laid out transposed, [g][c][oc].
/// Otherwise the cheaper per-row skip wins.
inline bool PointwiseGradByOut(const Dims& d) {
  return d.gi < kLaneBlock && d.go > d.gi;
}

/// Weight gradient of one (sample, group) of a pointwise conv, each weight
/// element adding gout * x for every nonzero gout, pixels in order.
/// Usually the input is copied pixel-major (`xt`, pixels x gi) and each
/// (pixel, oc) with nonzero gout adds a contiguous row into weight row oc
/// of `gw`; under PointwiseGradByOut gout is copied pixel-major (`xt`,
/// pixels x go) instead, and each (pixel, c) adds a contiguous row into
/// row c of the transposed sums.
void WeightGradPointwise(const Dims& d, const float* src,
                         const float* gout_group, int64_t g, float* gw,
                         float* xt) {
  if (PointwiseGradByOut(d)) {
    for (int64_t oc = 0; oc < d.go; ++oc) {
      const float* plane = gout_group + oc * d.out_plane;
      for (int64_t pix = 0; pix < d.out_plane; ++pix) {
        xt[pix * d.go + oc] = plane[pix];
      }
    }
    for (int64_t pix = 0; pix < d.out_plane; ++pix) {
      for (int64_t c = 0; c < d.gi; ++c) {
        NonzeroAxpy(d.go, xt + pix * d.go, src[c * d.in_plane + pix],
                    gw + (g * d.gi + c) * d.go);
      }
    }
    return;
  }
  for (int64_t c = 0; c < d.gi; ++c) {
    const float* plane = src + c * d.in_plane;
    for (int64_t pix = 0; pix < d.in_plane; ++pix) {
      xt[pix * d.gi + c] = plane[pix];
    }
  }
  for (int64_t pix = 0; pix < d.out_plane; ++pix) {
    const float* __restrict xrow = xt + pix * d.gi;
    for (int64_t oc = 0; oc < d.go; ++oc) {
      const float gv = gout_group[oc * d.out_plane + pix];
      if (gv == 0.0f) {
        continue;
      }
      float* __restrict gwrow = gw + (g * d.go + oc) * d.gi;
      for (int64_t c = 0; c < d.gi; ++c) {
        gwrow[c] += gv * xrow[c];
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Any other shape (grouped, small dense, strided 1x1): zero-padded planes,
// taps swept over whole output rows.

/// sum[i] += w * x[i * stride], or its Kahan form with `comp`, for
/// i < count: one step of `count` independent sums.
inline void AccumulateRow(bool serial, float w, const float* __restrict x,
                          int64_t stride, int64_t count,
                          float* __restrict sum, float* __restrict comp) {
  for (int64_t i = 0; i < count; ++i) {
    const float product = w * x[i * stride];
    if (serial) {
      sum[i] += product;
    } else {
      KahanAdd(product, sum[i], comp[i]);
    }
  }
}

/// Copies `count` planes into zero-bordered planes of hp x wp.
void PadPlanes(const Dims& d, const float* src, int64_t count, float* dst) {
  for (int64_t c = 0; c < count; ++c) {
    const float* in = src + c * d.in_plane;
    float* out = dst + c * d.hp * d.wp;
    std::fill(out, out + d.hp * d.wp, 0.0f);
    for (int64_t y = 0; y < d.geom.height; ++y) {
      std::copy(in + y * d.geom.width, in + (y + 1) * d.geom.width,
                out + (y + d.pad) * d.wp + d.pad);
    }
  }
}

/// Weight gradient of one (sample, group) by weight row: each (oc, c)
/// walks the output pixels in (oy, ox) order with its k*k tap sums.
void WeightGradRows(const Dims& d, const float* planes,
                    const float* gout_group, int64_t g, float* gw,
                    float* gcomp) {
  for (int64_t oc = 0; oc < d.go; ++oc) {
    const float* gplane = gout_group + oc * d.out_plane;
    for (int64_t c = 0; c < d.gi; ++c) {
      const int64_t offset = ((g * d.go + oc) * d.gi + c) * d.kk;
      float* acc = gw + offset;
      float* cmp = gcomp + offset;
      const float* xplane = planes + c * d.hp * d.wp;
      for (int64_t oy = 0; oy < d.geom.out_h; ++oy) {
        for (int64_t ox = 0; ox < d.geom.out_w; ++ox) {
          const float gv = gplane[oy * d.geom.out_w + ox];
          if (gv == 0.0f) {
            continue;
          }
          const float* base = xplane + oy * d.stride * d.wp + ox * d.stride;
          for (int64_t t = 0; t < d.kk; ++t) {
            const float product = gv * base[(t / d.k) * d.wp + t % d.k];
            if (d.serial) {
              acc[t] += product;
            } else {
              KahanAdd(product, acc[t], cmp[t]);
            }
          }
        }
      }
    }
  }
}

/// Input gradient of one (sample, group) into zero-filled padded planes
/// `gdst`. Per output row, each tap's Acc_oc(w * gout) is formed across
/// the row and scattered; kx runs downwards, so every input element still
/// receives its contributions in ascending (oy, ox) order.
void InputGradRows(const Dims& d, const float* weight,
                   const float* gout_group, int64_t g, float* gdst,
                   float* sum, float* comp) {
  const int64_t out_w = d.geom.out_w;
  for (int64_t oy = 0; oy < d.geom.out_h; ++oy) {
    for (int64_t c = 0; c < d.gi; ++c) {
      for (int64_t ky = 0; ky < d.k; ++ky) {
        float* drow =
            gdst + c * d.hp * d.wp + (oy * d.stride + ky) * d.wp;
        for (int64_t kx = d.k - 1; kx >= 0; --kx) {
          const int64_t j = (c * d.k + ky) * d.k + kx;
          std::fill(sum, sum + out_w, 0.0f);
          std::fill(comp, comp + out_w, 0.0f);
          for (int64_t oc = 0; oc < d.go; ++oc) {
            AccumulateRow(d.serial, weight[(g * d.go + oc) * d.patch + j],
                          gout_group + oc * d.out_plane + oy * out_w, 1,
                          out_w, sum, comp);
          }
          for (int64_t ox = 0; ox < out_w; ++ox) {
            drow[kx + ox * d.stride] += sum[ox];
          }
        }
      }
    }
  }
}

/// grad_input(n, g) += the padded planes' interior.
void CropAdd(const Dims& d, const float* padded, float* grad_input) {
  for (int64_t c = 0; c < d.gi; ++c) {
    for (int64_t y = 0; y < d.geom.height; ++y) {
      const float* src =
          padded + c * d.hp * d.wp + (y + d.pad) * d.wp + d.pad;
      float* dst = grad_input + c * d.in_plane + y * d.geom.width;
      for (int64_t x = 0; x < d.geom.width; ++x) {
        dst[x] += src[x];
      }
    }
  }
}

}  // namespace

void DirectConvForward(const ConvGeom& geom, const float* input,
                       const float* weight, float* output,
                       util::ThreadPool* pool) {
  const Dims d(geom);
  if (d.depthwise) {
    DepthwiseForward(d, input, weight, output, pool);
    return;
  }
  const bool pointwise = geom.is_pointwise();
  const int64_t padded_floats = d.gi * d.hp * d.wp;
  const int64_t tasks = geom.batch * geom.groups;
  // Pointwise shapes with fewer pixels than output channels run
  // SerialProduct's channel-vectorised branch, which reads W^T per group
  // ([g][c][oc]): built once per call and shared by the chunks.
  util::ScratchPool::Lease wt_lease;
  float* wt = nullptr;
  if (pointwise && d.out_plane < d.go) {
    wt_lease = Scratch().Acquire(
        static_cast<size_t>(geom.out_channels * d.patch));
    wt = wt_lease.data();
    for (int64_t g = 0; g < geom.groups; ++g) {
      for (int64_t oc = 0; oc < d.go; ++oc) {
        for (int64_t c = 0; c < d.gi; ++c) {
          wt[(g * d.gi + c) * d.go + oc] = weight[(g * d.go + oc) * d.gi + c];
        }
      }
    }
  }
  util::ParallelFor(
      pool, tasks, util::GrainForMaxChunks(tasks, kConvMaxForwardChunks),
      [&](int64_t begin, int64_t end, size_t /*chunk_index*/) {
        // Pointwise: one pixel's sums; otherwise padded planes and a Kahan
        // row.
        util::ScratchPool::Lease lease = Scratch().Acquire(static_cast<size_t>(
            pointwise ? d.go : padded_floats + geom.out_w));
        for (int64_t t = begin; t < end; ++t) {
          const int64_t n = t / geom.groups;
          const int64_t g = t % geom.groups;
          const float* src =
              input + (n * geom.in_channels + g * d.gi) * d.in_plane;
          float* out =
              output + (n * geom.out_channels + g * d.go) * d.out_plane;
          if (pointwise) {
            SerialProduct(weight + g * d.go * d.gi, d.gi, 1,
                          wt != nullptr ? wt + g * d.gi * d.go : nullptr, src,
                          d.in_plane, d.go, d.gi, d.out_plane, out,
                          d.out_plane, lease.data());
            continue;
          }
          float* planes = lease.data();
          float* comp = planes + padded_floats;
          PadPlanes(d, src, d.gi, planes);
          for (int64_t oc = 0; oc < d.go; ++oc) {
            const float* wrow = weight + (g * d.go + oc) * d.patch;
            for (int64_t oy = 0; oy < geom.out_h; ++oy) {
              float* sum = out + oc * d.out_plane + oy * geom.out_w;
              std::fill(sum, sum + geom.out_w, 0.0f);
              std::fill(comp, comp + geom.out_w, 0.0f);
              for (int64_t j = 0; j < d.patch; ++j) {
                const int64_t c = j / d.kk;
                const int64_t t = j % d.kk;
                AccumulateRow(d.serial, wrow[j],
                              planes + c * d.hp * d.wp +
                                  (oy * d.stride + t / d.k) * d.wp + t % d.k,
                              d.stride, geom.out_w, sum, comp);
              }
            }
          }
        }
      });
}

void DirectConvBackward(const ConvGeom& geom, const float* input,
                        const float* weight, const float* grad_output,
                        float* grad_input, float* grad_weight,
                        util::ThreadPool* pool) {
  const Dims d(geom);
  const bool pointwise = geom.is_pointwise();
  const int64_t gw_numel = geom.out_channels * d.patch;

  // Per-chunk weight-gradient sums (tap-major over the padded lanes for
  // depthwise), each followed by its Kahan terms (none for serial sums,
  // whose paths never read them), added into grad_weight in chunk order
  // after the join.
  const int64_t grain =
      util::GrainForMaxChunks(geom.batch, kDirectMaxBackwardChunks);
  const int64_t chunks = util::NumChunks(geom.batch, grain);
  const int64_t lanes = PaddedLanes(geom.in_channels);
  const int64_t sum_floats = d.depthwise ? d.kk * lanes : gw_numel;
  const int64_t comp_floats = d.serial ? 0 : sum_floats;
  const int64_t chunk_floats = sum_floats + comp_floats;
  util::ScratchPool::Lease gw_lease =
      Scratch().Acquire(static_cast<size_t>(chunks * chunk_floats));
  float* gw_scratch = gw_lease.data();
  std::fill(gw_scratch, gw_scratch + chunks * chunk_floats, 0.0f);

  int64_t work_floats = 0;
  if (d.depthwise) {
    // Tap-major weights, padded input and input gradient, repeated gout,
    // all over the padded lanes.
    work_floats = (d.kk + 2 * d.hp * d.wp + d.out_plane * d.k) * lanes;
  } else if (pointwise) {
    // Pixel-major input or gout copy, input-gradient rows, one pixel's
    // sums.
    work_floats = (std::max(d.gi, d.go) + d.gi) * d.in_plane + d.gi;
  } else {
    // Padded input, padded input gradient, one Kahan row.
    work_floats = 2 * d.gi * d.hp * d.wp + 2 * geom.out_w;
  }

  util::ParallelFor(
      pool, geom.batch, grain,
      [&](int64_t n_begin, int64_t n_end, size_t chunk_index) {
        util::ScratchPool::Lease lease =
            Scratch().Acquire(static_cast<size_t>(work_floats));
        float* gw =
            gw_scratch + static_cast<int64_t>(chunk_index) * chunk_floats;
        float* gcomp = gw + sum_floats;
        float* work = lease.data();
        if (d.depthwise) {
          TapMajorWeights(d, weight, geom.in_channels, lanes, 1, work);
        }
        for (int64_t n = n_begin; n < n_end; ++n) {
          if (d.depthwise) {
            DepthwiseBackwardSample(d, input, work, grad_output, n,
                                    grad_input, gw, gcomp,
                                    work + d.kk * lanes);
            continue;
          }
          for (int64_t g = 0; g < geom.groups; ++g) {
            const int64_t in_offset =
                (n * geom.in_channels + g * d.gi) * d.in_plane;
            const float* gout_group =
                grad_output + (n * geom.out_channels + g * d.go) * d.out_plane;
            if (pointwise) {
              float* rows = work + std::max(d.gi, d.go) * d.in_plane;
              float* acc = rows + d.gi * d.in_plane;
              WeightGradPointwise(d, input + in_offset, gout_group, g, gw,
                                  work);
              // Input gradient: A = W^T, whose transpose is W itself.
              SerialProduct(weight + g * d.go * d.gi, 1, d.gi,
                            weight + g * d.go * d.gi, gout_group,
                            d.out_plane, d.gi, d.go, d.out_plane, rows,
                            d.in_plane, acc);
              float* dst = grad_input + in_offset;
              for (int64_t i = 0; i < d.gi * d.in_plane; ++i) {
                dst[i] += rows[i];
              }
              continue;
            }
            float* planes = work;
            float* gpad = planes + d.gi * d.hp * d.wp;
            float* sum = gpad + d.gi * d.hp * d.wp;
            float* comp = sum + geom.out_w;
            PadPlanes(d, input + in_offset, d.gi, planes);
            std::fill(gpad, gpad + d.gi * d.hp * d.wp, 0.0f);
            WeightGradRows(d, planes, gout_group, g, gw, gcomp);
            InputGradRows(d, weight, gout_group, g, gpad, sum, comp);
            CropAdd(d, gpad, grad_input + in_offset);
          }
        }
      });

  // Fixed-order reduction of the per-chunk weight gradients.
  const bool by_out = pointwise && PointwiseGradByOut(d);
  for (int64_t c = 0; c < chunks; ++c) {
    const float* gw = gw_scratch + c * chunk_floats;
    if (d.depthwise) {
      // Tap-major, [kk][lanes].
      for (int64_t ch = 0; ch < geom.in_channels; ++ch) {
        for (int64_t t = 0; t < d.kk; ++t) {
          grad_weight[ch * d.kk + t] += gw[t * lanes + ch];
        }
      }
    } else if (by_out) {
      // Transposed per group, [g][c][oc].
      for (int64_t g = 0; g < geom.groups; ++g) {
        for (int64_t oc = 0; oc < d.go; ++oc) {
          for (int64_t i = 0; i < d.gi; ++i) {
            grad_weight[(g * d.go + oc) * d.gi + i] +=
                gw[(g * d.gi + i) * d.go + oc];
          }
        }
      }
    } else {
      for (int64_t j = 0; j < gw_numel; ++j) {
        grad_weight[j] += gw[j];
      }
    }
  }
}

}  // namespace mmlib::kernels
