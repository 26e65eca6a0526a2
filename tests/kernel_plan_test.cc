#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "kernels/conv_plan.h"
#include "kernels/gemm.h"
#include "kernels/linear_plan.h"
#include "kernels/plan_cache.h"
#include "nn/conv2d.h"
#include "nn/linear.h"
#include "util/scratch_pool.h"
#include "util/thread_pool.h"

namespace mmlib {
namespace {

using kernels::ConvAlgo;
using kernels::ConvGeom;
using kernels::ConvPlan;
using kernels::LinearAlgo;
using kernels::PlanCache;

// ---------------------------------------------------------------------------
// GemmPacked against a naive reference.
//
// The packed GEMM accumulates every output element strictly in k order —
// the same association as a serial dot product — so it must match the naive
// float loop BIT-EXACTLY, for every edge shape, KC split, loop order, and
// accumulate mode. This is the property the determinism story rests on.

std::vector<float> RandomMatrix(int64_t rows, int64_t cols, uint64_t seed) {
  Rng rng(seed);
  std::vector<float> m(static_cast<size_t>(rows * cols));
  for (float& v : m) {
    v = rng.NextFloat() * 2.0f - 1.0f;
  }
  return m;
}

void NaiveGemm(const std::vector<float>& a, const std::vector<float>& b,
               int64_t m, int64_t n, int64_t k, bool accumulate,
               const float* bias, std::vector<float>* c) {
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      float acc = 0.0f;
      for (int64_t p = 0; p < k; ++p) {
        acc += a[i * k + p] * b[p * n + j];
      }
      float& out = (*c)[i * n + j];
      if (accumulate) {
        out += acc;
      } else {
        out = (bias != nullptr ? bias[j] : 0.0f) + acc;
      }
    }
  }
}

void ExpectGemmMatchesNaive(int64_t m, int64_t n, int64_t k, int64_t kc,
                            bool accumulate, bool rows_outer, bool with_bias) {
  SCOPED_TRACE("m=" + std::to_string(m) + " n=" + std::to_string(n) +
               " k=" + std::to_string(k) + " kc=" + std::to_string(kc) +
               " accumulate=" + std::to_string(accumulate) +
               " rows_outer=" + std::to_string(rows_outer) +
               " bias=" + std::to_string(with_bias));
  const std::vector<float> a = RandomMatrix(m, k, 100 + m * 7 + k);
  const std::vector<float> b = RandomMatrix(k, n, 200 + n * 3 + k);
  const std::vector<float> bias =
      with_bias ? RandomMatrix(1, n, 300 + n) : std::vector<float>();

  std::vector<float> a_pack(
      static_cast<size_t>(kernels::PackedStripFloats(m, k)));
  std::vector<float> b_pack(
      static_cast<size_t>(kernels::PackedPanelFloats(k, n)));
  kernels::PackStrips(a.data(), m, k, 0, k, a_pack.data());
  kernels::PackPanels(b.data(), k, n, 0, n, b_pack.data());

  std::vector<float> got(static_cast<size_t>(m * n), 0.5f);
  std::vector<float> want = got;
  kernels::GemmPacked(a_pack.data(), b_pack.data(), m, n, k, kc, got.data(),
                      n, accumulate, rows_outer,
                      with_bias ? bias.data() : nullptr);
  NaiveGemm(a, b, m, n, k, accumulate, with_bias ? bias.data() : nullptr,
            &want);
  ASSERT_EQ(0, std::memcmp(got.data(), want.data(),
                           got.size() * sizeof(float)));
}

TEST(GemmPackedTest, MatchesNaiveBitExactAcrossEdgeShapes) {
  // Shapes straddling the MR=4 / NR=8 register tile and the KC split.
  const int64_t ms[] = {1, 3, 4, 5, 17};
  const int64_t ns[] = {1, 7, 8, 9, 40};
  const int64_t ks[] = {1, 5, 72};
  for (int64_t m : ms) {
    for (int64_t n : ns) {
      for (int64_t k : ks) {
        ExpectGemmMatchesNaive(m, n, k, /*kc=*/k, /*accumulate=*/false,
                               /*rows_outer=*/false, /*with_bias=*/false);
      }
    }
  }
}

TEST(GemmPackedTest, KcSplitIsDeterministicAndClose) {
  // Splitting k into KC blocks changes the partial-sum association (each
  // block reduces privately before the write-back adds it), so results are
  // NOT bit-equal to the unsplit run — but KC is a pure function of the
  // shape, fixed in the plan, so a given split is perfectly repeatable and
  // numerically within normal float reassociation error.
  const std::vector<float> a = RandomMatrix(6, 100, 1);
  const std::vector<float> b = RandomMatrix(100, 11, 2);
  auto run = [&](int64_t kc) {
    std::vector<float> a_pack(
        static_cast<size_t>(kernels::PackedStripFloats(6, 100)));
    std::vector<float> b_pack(
        static_cast<size_t>(kernels::PackedPanelFloats(100, 11)));
    kernels::PackStrips(a.data(), 6, 100, 0, 100, a_pack.data());
    kernels::PackPanels(b.data(), 100, 11, 0, 11, b_pack.data());
    std::vector<float> c(6 * 11, 0.0f);
    kernels::GemmPacked(a_pack.data(), b_pack.data(), 6, 11, 100, kc,
                        c.data(), 11, false, false, nullptr);
    return c;
  };
  const std::vector<float> whole = run(100);
  for (int64_t kc : {1, 7, 33, 64}) {
    const std::vector<float> split = run(kc);
    EXPECT_EQ(split, run(kc)) << "kc=" << kc << " not repeatable";
    for (size_t i = 0; i < whole.size(); ++i) {
      EXPECT_NEAR(split[i], whole[i],
                  1e-5 * std::max(1.0f, std::abs(whole[i])))
          << "kc=" << kc << " index " << i;
    }
  }
}

TEST(GemmPackedTest, DrawKcSplitsEachBlockInTwo) {
  // No scheduler: the plan's own kc. With one, a split point in
  // [ceil(kc/2), kc-1], so a kc-long block runs as exactly two partial
  // sums; a one-element block has nothing to split.
  Rng scheduler(5);
  EXPECT_EQ(kernels::DrawKc(72, nullptr), 72);
  EXPECT_EQ(kernels::DrawKc(1, &scheduler), 1);
  EXPECT_EQ(kernels::DrawKc(2, &scheduler), 1);
  for (int64_t kc : {3, 16, 72, 1024}) {
    std::vector<bool> seen(static_cast<size_t>(kc), false);
    for (int i = 0; i < 4000; ++i) {
      const int64_t split = kernels::DrawKc(kc, &scheduler);
      ASSERT_GE(split, (kc + 1) / 2) << "kc=" << kc;
      ASSERT_LT(split, kc) << "kc=" << kc;
      seen[static_cast<size_t>(split)] = true;
    }
    EXPECT_TRUE(seen[static_cast<size_t>((kc + 1) / 2)]) << "kc=" << kc;
    if (kc <= 72) {
      EXPECT_TRUE(seen[static_cast<size_t>(kc - 1)]) << "kc=" << kc;
    }
  }
}

TEST(GemmPackedTest, LoopOrdersBitIdentical) {
  // rows_outer only reorders whole register tiles; every element's
  // accumulation is unchanged.
  ExpectGemmMatchesNaive(33, 40, 17, 17, false, /*rows_outer=*/true, false);
  ExpectGemmMatchesNaive(33, 40, 17, 17, false, /*rows_outer=*/false, false);
}

TEST(GemmPackedTest, AccumulateAndBiasModes) {
  ExpectGemmMatchesNaive(5, 9, 13, 13, /*accumulate=*/true, false, false);
  ExpectGemmMatchesNaive(5, 9, 13, 13, /*accumulate=*/false, false,
                         /*with_bias=*/true);
}

// ---------------------------------------------------------------------------
// Planned Conv2d/Linear against naive double-precision references.

struct ConvSpec {
  int64_t batch, in_c, out_c, kernel, stride, padding, groups, h, w;
};

void NaiveConvForward(const ConvSpec& s, const std::vector<float>& x,
                      const std::vector<float>& w, std::vector<double>* y,
                      int64_t out_h, int64_t out_w) {
  const int64_t gi = s.in_c / s.groups;
  const int64_t go = s.out_c / s.groups;
  y->assign(static_cast<size_t>(s.batch * s.out_c * out_h * out_w), 0.0);
  for (int64_t n = 0; n < s.batch; ++n) {
    for (int64_t g = 0; g < s.groups; ++g) {
      for (int64_t oc = 0; oc < go; ++oc) {
        const int64_t out_channel = g * go + oc;
        for (int64_t oy = 0; oy < out_h; ++oy) {
          for (int64_t ox = 0; ox < out_w; ++ox) {
            double acc = 0.0;
            for (int64_t c = 0; c < gi; ++c) {
              const int64_t channel = g * gi + c;
              for (int64_t ky = 0; ky < s.kernel; ++ky) {
                const int64_t yy = oy * s.stride - s.padding + ky;
                if (yy < 0 || yy >= s.h) continue;
                for (int64_t kx = 0; kx < s.kernel; ++kx) {
                  const int64_t xx = ox * s.stride - s.padding + kx;
                  if (xx < 0 || xx >= s.w) continue;
                  const double xv =
                      x[((n * s.in_c + channel) * s.h + yy) * s.w + xx];
                  const double wv =
                      w[((out_channel * gi + c) * s.kernel + ky) * s.kernel +
                        kx];
                  acc += xv * wv;
                }
              }
            }
            (*y)[((n * s.out_c + out_channel) * out_h + oy) * out_w + ox] =
                acc;
          }
        }
      }
    }
  }
}

void ExpectClose(const float* got, const std::vector<double>& want,
                 double tol, const char* what) {
  for (size_t i = 0; i < want.size(); ++i) {
    const double scale = std::max(1.0, std::abs(want[i]));
    ASSERT_NEAR(got[i], want[i], tol * scale)
        << what << " diverged at flat index " << i;
  }
}

void ExpectConvMatchesReference(const ConvSpec& s, ConvAlgo expect_algo) {
  SCOPED_TRACE("conv " + std::to_string(s.in_c) + "->" +
               std::to_string(s.out_c) + " k" + std::to_string(s.kernel) +
               " s" + std::to_string(s.stride) + " p" +
               std::to_string(s.padding) + " g" + std::to_string(s.groups) +
               " " + std::to_string(s.h) + "x" + std::to_string(s.w));
  const int64_t out_h = (s.h + 2 * s.padding - s.kernel) / s.stride + 1;
  const int64_t out_w = (s.w + 2 * s.padding - s.kernel) / s.stride + 1;
  const ConvGeom geom{s.batch,  s.in_c, s.out_c, s.kernel, s.stride,
                      s.padding, s.groups, s.h,   s.w,     out_h,
                      out_w};
  ASSERT_EQ(ConvPlan(geom).algo(), expect_algo);

  Rng rng(42);
  nn::Conv2d conv("t", s.in_c, s.out_c, s.kernel, s.stride, s.padding,
                  s.groups, &rng);
  Rng input_rng(43);
  const Tensor input =
      Tensor::Gaussian(Shape{s.batch, s.in_c, s.h, s.w}, 1.0f, &input_rng);

  util::ThreadPool pool(2);
  nn::ExecutionContext ctx = nn::ExecutionContext::Deterministic(7);
  ctx.set_pool(&pool);
  const Tensor y = conv.Forward({&input}, &ctx).value();

  const std::vector<float> xv(input.data(), input.data() + input.numel());
  const Tensor& weight = conv.params()[0].value;
  const std::vector<float> wv(weight.data(), weight.data() + weight.numel());
  std::vector<double> want;
  NaiveConvForward(s, xv, wv, &want, out_h, out_w);
  ExpectClose(y.data(), want, 1e-5, "forward");

  // Backward against finite differences would be slow at these sizes;
  // nn_layers_test covers gradient correctness on small shapes (which take
  // the direct path). Here, check the planned backward against the naive
  // chain rule in double precision.
  Tensor grad_out(y.shape());
  {
    Rng gr(44);
    for (int64_t i = 0; i < grad_out.numel(); ++i) {
      grad_out.data()[i] = gr.NextFloat() * 2.0f - 1.0f;
    }
  }
  conv.ZeroGrad();
  std::vector<Tensor> grads = conv.Backward(grad_out, &ctx).value();
  const Tensor& grad_input = grads[0];
  const Tensor& grad_weight = conv.params()[0].grad;

  const int64_t gi = s.in_c / s.groups;
  const int64_t go = s.out_c / s.groups;
  std::vector<double> want_gin(
      static_cast<size_t>(s.batch * s.in_c * s.h * s.w), 0.0);
  std::vector<double> want_gw(static_cast<size_t>(weight.numel()), 0.0);
  for (int64_t n = 0; n < s.batch; ++n) {
    for (int64_t g = 0; g < s.groups; ++g) {
      for (int64_t oc = 0; oc < go; ++oc) {
        const int64_t out_channel = g * go + oc;
        for (int64_t oy = 0; oy < out_h; ++oy) {
          for (int64_t ox = 0; ox < out_w; ++ox) {
            const double gv =
                grad_out
                    .data()[((n * s.out_c + out_channel) * out_h + oy) *
                                out_w +
                            ox];
            for (int64_t c = 0; c < gi; ++c) {
              const int64_t channel = g * gi + c;
              for (int64_t ky = 0; ky < s.kernel; ++ky) {
                const int64_t yy = oy * s.stride - s.padding + ky;
                if (yy < 0 || yy >= s.h) continue;
                for (int64_t kx = 0; kx < s.kernel; ++kx) {
                  const int64_t xx = ox * s.stride - s.padding + kx;
                  if (xx < 0 || xx >= s.w) continue;
                  const size_t widx =
                      ((out_channel * gi + c) * s.kernel + ky) * s.kernel +
                      kx;
                  const size_t xidx =
                      ((n * s.in_c + channel) * s.h + yy) * s.w + xx;
                  want_gin[xidx] += gv * wv[widx];
                  want_gw[widx] += gv * xv[xidx];
                }
              }
            }
          }
        }
      }
    }
  }
  ExpectClose(grad_input.data(), want_gin, 1e-4, "grad_input");
  ExpectClose(grad_weight.data(), want_gw, 1e-4, "grad_weight");
}

TEST(ConvPlanTest, Im2ColGemmMatchesReference) {
  ExpectConvMatchesReference({2, 8, 16, 3, 1, 1, 1, 14, 14},
                             ConvAlgo::kIm2ColGemm);
}

TEST(ConvPlanTest, PointwiseGemmMatchesReference) {
  ExpectConvMatchesReference({2, 16, 16, 1, 1, 0, 1, 12, 12},
                             ConvAlgo::kPointwiseGemm);
}

TEST(ConvPlanTest, StridedLargeKernelOddSizeMatchesReference) {
  ExpectConvMatchesReference({1, 8, 8, 5, 2, 2, 1, 19, 19},
                             ConvAlgo::kIm2ColGemm);
}

TEST(ConvPlanTest, NoPaddingAsymmetricInputMatchesReference) {
  ExpectConvMatchesReference({2, 6, 10, 3, 2, 0, 1, 15, 17},
                             ConvAlgo::kIm2ColGemm);
}

TEST(ConvPlanTest, GroupedConvMatchesReference) {
  ExpectConvMatchesReference({2, 8, 12, 3, 1, 1, 2, 13, 13},
                             ConvAlgo::kIm2ColGemm);
}

TEST(ConvPlanTest, PlanSelectionRules) {
  // Depthwise: one in/out channel per group — im2col degenerates, keep the
  // direct loop.
  EXPECT_EQ(ConvPlan(ConvGeom{4, 8, 8, 3, 1, 1, 8, 32, 32, 32, 32}).algo(),
            ConvAlgo::kDirect);
  // Tiny: below the work threshold packing costs more than it saves.
  EXPECT_EQ(ConvPlan(ConvGeom{1, 2, 3, 3, 1, 1, 1, 5, 5, 5, 5}).algo(),
            ConvAlgo::kDirect);
  // 1x1 stride-1 pad-0: the input plane is already the im2col matrix.
  EXPECT_EQ(ConvPlan(ConvGeom{4, 16, 16, 1, 1, 0, 1, 16, 16, 16, 16}).algo(),
            ConvAlgo::kPointwiseGemm);
  // Strided 1x1 still needs the gather.
  EXPECT_EQ(ConvPlan(ConvGeom{4, 16, 16, 1, 2, 0, 1, 16, 16, 8, 8}).algo(),
            ConvAlgo::kIm2ColGemm);
  // NC is always a whole number of NR-wide panels.
  const ConvPlan plan(ConvGeom{2, 8, 16, 3, 1, 1, 1, 14, 14, 14, 14});
  EXPECT_EQ(plan.nc() % kernels::kGemmNR, 0);
  EXPECT_GT(plan.kc(), 0);
}

// ---------------------------------------------------------------------------
// The direct kernel (ConvAlgo::kDirect) on a grid of shapes the plan does not
// GEMM: against a double reference, bit for bit against the scalar
// deterministic loop it replaced, and bit for bit across pool sizes.

struct ConvRun {
  std::vector<float> output;
  std::vector<float> grad_input;
  std::vector<float> grad_weight;
};

/// The scalar deterministic convolution: per-output dot products over
/// gathered, zero-padded patches (Kahan, or serial for kernel 1 / pad 0);
/// weight gradients per chunk of GrainForMaxChunks(batch, 8) samples with
/// per-chunk compensation and gout == 0 skipped, reduced in chunk order;
/// input gradients scattered per output pixel.
ConvRun ScalarDirectConv(const ConvGeom& g, const std::vector<float>& x,
                         const std::vector<float>& w,
                         const std::vector<float>& gout) {
  const int64_t gi = g.group_in();
  const int64_t go = g.group_out();
  const int64_t k = g.kernel;
  const int64_t patch_size = g.patch_size();
  const bool serial = k == 1 && g.padding == 0;
  auto dot = [&](const float* a, const float* b, int64_t n) {
    float sum = 0.0f;
    float comp = 0.0f;
    for (int64_t i = 0; i < n; ++i) {
      if (serial) {
        sum += a[i] * b[i];
      } else {
        const float y = a[i] * b[i] - comp;
        const float t = sum + y;
        comp = (t - sum) - y;
        sum = t;
      }
    }
    return sum;
  };
  auto gather = [&](int64_t n, int64_t grp, int64_t oy, int64_t ox,
                    std::vector<float>* patch) {
    int64_t idx = 0;
    for (int64_t c = 0; c < gi; ++c) {
      for (int64_t ky = 0; ky < k; ++ky) {
        for (int64_t kx = 0; kx < k; ++kx) {
          const int64_t y = oy * g.stride - g.padding + ky;
          const int64_t xx = ox * g.stride - g.padding + kx;
          (*patch)[idx++] =
              (y >= 0 && y < g.height && xx >= 0 && xx < g.width)
                  ? x[((n * g.in_channels + grp * gi + c) * g.height + y) *
                          g.width +
                      xx]
                  : 0.0f;
        }
      }
    }
  };
  auto out_index = [&](int64_t n, int64_t oc, int64_t oy, int64_t ox) {
    return ((n * g.out_channels + oc) * g.out_h + oy) * g.out_w + ox;
  };

  ConvRun run;
  run.output.assign(static_cast<size_t>(g.batch * g.out_channels *
                                        g.out_pixels()),
                    0.0f);
  run.grad_input.assign(x.size(), 0.0f);
  run.grad_weight.assign(w.size(), 0.0f);
  std::vector<float> patch(patch_size);
  for (int64_t n = 0; n < g.batch; ++n) {
    for (int64_t grp = 0; grp < g.groups; ++grp) {
      for (int64_t oy = 0; oy < g.out_h; ++oy) {
        for (int64_t ox = 0; ox < g.out_w; ++ox) {
          gather(n, grp, oy, ox, &patch);
          for (int64_t oc = grp * go; oc < (grp + 1) * go; ++oc) {
            run.output[out_index(n, oc, oy, ox)] =
                dot(w.data() + oc * patch_size, patch.data(), patch_size);
          }
        }
      }
    }
  }

  const int64_t grain = util::GrainForMaxChunks(g.batch, 8);
  std::vector<float> wt(static_cast<size_t>(patch_size * go));
  std::vector<float> gvec(static_cast<size_t>(go));
  for (int64_t begin = 0; begin < g.batch; begin += grain) {
    std::vector<float> gw(w.size(), 0.0f);
    std::vector<float> comp(w.size(), 0.0f);
    for (int64_t n = begin; n < std::min(g.batch, begin + grain); ++n) {
      for (int64_t grp = 0; grp < g.groups; ++grp) {
        for (int64_t oy = 0; oy < g.out_h; ++oy) {
          for (int64_t ox = 0; ox < g.out_w; ++ox) {
            gather(n, grp, oy, ox, &patch);
            for (int64_t oc = 0; oc < go; ++oc) {
              gvec[oc] = gout[out_index(n, grp * go + oc, oy, ox)];
            }
            for (int64_t oc = 0; oc < go; ++oc) {
              if (gvec[oc] == 0.0f) {
                continue;
              }
              const int64_t row = (grp * go + oc) * patch_size;
              for (int64_t j = 0; j < patch_size; ++j) {
                if (serial) {
                  gw[row + j] += gvec[oc] * patch[j];
                } else {
                  const float y = gvec[oc] * patch[j] - comp[row + j];
                  const float t = gw[row + j] + y;
                  comp[row + j] = (t - gw[row + j]) - y;
                  gw[row + j] = t;
                }
              }
            }
            int64_t idx = 0;
            for (int64_t c = 0; c < gi; ++c) {
              for (int64_t ky = 0; ky < k; ++ky) {
                for (int64_t kx = 0; kx < k; ++kx, ++idx) {
                  for (int64_t oc = 0; oc < go; ++oc) {
                    wt[oc] = w[(grp * go + oc) * patch_size + idx];
                  }
                  const float v = dot(wt.data(), gvec.data(), go);
                  const int64_t y = oy * g.stride - g.padding + ky;
                  const int64_t xx = ox * g.stride - g.padding + kx;
                  if (y >= 0 && y < g.height && xx >= 0 && xx < g.width) {
                    run.grad_input[((n * g.in_channels + grp * gi + c) *
                                        g.height +
                                    y) *
                                       g.width +
                                   xx] += v;
                  }
                }
              }
            }
          }
        }
      }
    }
    for (size_t j = 0; j < gw.size(); ++j) {
      run.grad_weight[j] += gw[j];
    }
  }
  return run;
}

ConvRun PlanDirectConv(const ConvPlan& plan, const std::vector<float>& x,
                       const std::vector<float>& w,
                       const std::vector<float>& gout, size_t threads) {
  const ConvGeom& g = plan.geom();
  util::ThreadPool pool(threads);
  ConvRun run;
  run.output.assign(static_cast<size_t>(g.batch * g.out_channels *
                                        g.out_pixels()),
                    -1.0f);
  run.grad_input.assign(x.size(), 0.0f);
  run.grad_weight.assign(w.size(), 0.0f);
  plan.Forward(x.data(), w.data(), run.output.data(), &pool,
               /*scheduler=*/nullptr);
  plan.Backward(x.data(), w.data(), gout.data(), run.grad_input.data(),
                run.grad_weight.data(), &pool, /*scheduler=*/nullptr);
  return run;
}

bool SameBits(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

/// Random values with roughly one in five exactly zero (so the gout == 0
/// skip and zero products are exercised), one of them -0.
std::vector<float> RandomWithZeros(size_t count, uint64_t seed) {
  Rng rng(seed);
  std::vector<float> v(count);
  for (float& f : v) {
    f = rng.NextFloat() < 0.2f ? 0.0f : rng.NextFloat() * 2.0f - 1.0f;
  }
  if (!v.empty()) {
    v[count / 2] = -0.0f;
  }
  return v;
}

void ExpectDirectKernelMatches(const ConvSpec& s) {
  const int64_t out_h = (s.h + 2 * s.padding - s.kernel) / s.stride + 1;
  const int64_t out_w = (s.w + 2 * s.padding - s.kernel) / s.stride + 1;
  if (out_h <= 0 || out_w <= 0) {
    return;
  }
  SCOPED_TRACE("b" + std::to_string(s.batch) + " conv " +
               std::to_string(s.in_c) + "->" + std::to_string(s.out_c) +
               " k" + std::to_string(s.kernel) + " s" +
               std::to_string(s.stride) + " p" + std::to_string(s.padding) +
               " g" + std::to_string(s.groups) + " " + std::to_string(s.h) +
               "x" + std::to_string(s.w));
  const ConvGeom geom{s.batch,  s.in_c, s.out_c, s.kernel, s.stride,
                      s.padding, s.groups, s.h,   s.w,     out_h,
                      out_w};
  const ConvPlan plan(geom);
  ASSERT_EQ(plan.algo(), ConvAlgo::kDirect);
  const std::vector<float> x =
      RandomWithZeros(static_cast<size_t>(s.batch * s.in_c * s.h * s.w), 61);
  const std::vector<float> w = RandomWithZeros(
      static_cast<size_t>(s.out_c * geom.patch_size()), 62);
  const std::vector<float> gout = RandomWithZeros(
      static_cast<size_t>(s.batch * s.out_c * out_h * out_w), 63);

  const ConvRun ref = PlanDirectConv(plan, x, w, gout, 1);
  std::vector<double> want;
  NaiveConvForward(s, x, w, &want, out_h, out_w);
  ExpectClose(ref.output.data(), want, 1e-5, "forward");

  const ConvRun scalar = ScalarDirectConv(geom, x, w, gout);
  EXPECT_TRUE(SameBits(ref.output, scalar.output)) << "forward";
  EXPECT_TRUE(SameBits(ref.grad_input, scalar.grad_input)) << "grad_input";
  EXPECT_TRUE(SameBits(ref.grad_weight, scalar.grad_weight))
      << "grad_weight";

  for (size_t threads : {size_t{2}, size_t{8}}) {
    const ConvRun got = PlanDirectConv(plan, x, w, gout, threads);
    EXPECT_TRUE(SameBits(got.output, ref.output)) << threads << " threads";
    EXPECT_TRUE(SameBits(got.grad_input, ref.grad_input))
        << threads << " threads";
    EXPECT_TRUE(SameBits(got.grad_weight, ref.grad_weight))
        << threads << " threads";
  }
}

TEST(DirectConvTest, InfiniteInputsMatchScalarLoopBitForBit) {
  // gout == 0 skips matter here: 0 * inf would add NaN. Every NaN these
  // inputs can make is the default NaN, so the bits compare exactly.
  for (const ConvSpec& s : {ConvSpec{3, 12, 3, 1, 1, 0, 1, 7, 7},
                            ConvSpec{3, 6, 6, 3, 1, 1, 6, 7, 7},
                            ConvSpec{3, 4, 6, 3, 1, 1, 1, 6, 6}}) {
    const int64_t out = (s.h + 2 * s.padding - s.kernel) / s.stride + 1;
    const ConvGeom geom{s.batch, s.in_c, s.out_c, s.kernel, s.stride,
                        s.padding, s.groups, s.h, s.w, out, out};
    std::vector<float> x = RandomWithZeros(
        static_cast<size_t>(s.batch * s.in_c * s.h * s.w), 71);
    for (size_t i = 0; i < x.size(); i += 37) {
      x[i] = std::numeric_limits<float>::infinity();
    }
    const std::vector<float> w = RandomWithZeros(
        static_cast<size_t>(s.out_c * geom.patch_size()), 72);
    const std::vector<float> gout = RandomWithZeros(
        static_cast<size_t>(s.batch * s.out_c * out * out), 73);
    const ConvRun got = PlanDirectConv(ConvPlan(geom), x, w, gout, 2);
    const ConvRun want = ScalarDirectConv(geom, x, w, gout);
    EXPECT_TRUE(SameBits(got.output, want.output)) << s.in_c << "->" << s.out_c;
    EXPECT_TRUE(SameBits(got.grad_input, want.grad_input))
        << s.in_c << "->" << s.out_c;
    EXPECT_TRUE(SameBits(got.grad_weight, want.grad_weight))
        << s.in_c << "->" << s.out_c;
  }
}

TEST(DirectConvTest, DepthwiseGrid) {
  // Kernel 1 with padding 0 sums serially, unlike every other depthwise
  // shape.
  for (int64_t batch : {1, 3, 9}) {
    for (int64_t kernel : {1, 3, 5}) {
      for (int64_t stride : {1, 2}) {
        for (int64_t pad : {0, 1}) {
          for (auto [h, w] : {std::pair<int64_t, int64_t>{1, 1},
                              {2, 2},
                              {7, 7},
                              {5, 9},
                              {11, 6}}) {
            ExpectDirectKernelMatches(
                {batch, 6, 6, kernel, stride, pad, 6, h, w});
          }
        }
      }
    }
  }
}

TEST(DirectConvTest, DepthwiseChannelCounts) {
  // Depthwise backward rounds the channel lanes up to a multiple of four;
  // counts around that boundary, and MobileNetV2's, keep the extra lanes
  // out of every result.
  for (int64_t channels : {1, 3, 4, 5, 9, 12, 18, 72}) {
    for (int64_t stride : {1, 2}) {
      ExpectDirectKernelMatches(
          {4, channels, channels, 3, stride, 1, channels, 7, 7});
      ExpectDirectKernelMatches(
          {2, channels, channels, 3, stride, 1, channels, 2, 2});
    }
  }
}

TEST(DirectConvTest, PointwiseBelowGemmThreshold) {
  for (int64_t batch : {1, 3, 9}) {
    ExpectDirectKernelMatches({batch, 40, 160, 1, 1, 0, 1, 1, 1});
    ExpectDirectKernelMatches({batch, 12, 3, 1, 1, 0, 1, 7, 7});
    ExpectDirectKernelMatches({batch, 2, 12, 1, 1, 0, 1, 14, 14});
    ExpectDirectKernelMatches({batch, 8, 12, 1, 1, 0, 1, 3, 5});
    ExpectDirectKernelMatches({batch, 8, 8, 1, 1, 0, 2, 5, 5});
    // Strided and padded 1x1 convs take the general loop.
    ExpectDirectKernelMatches({batch, 8, 16, 1, 2, 0, 1, 4, 4});
    ExpectDirectKernelMatches({batch, 4, 6, 1, 1, 1, 1, 3, 3});
  }
}

TEST(DirectConvTest, GroupedAndSmallDense) {
  for (int64_t batch : {1, 3, 9}) {
    ExpectDirectKernelMatches({batch, 8, 12, 3, 2, 1, 4, 6, 6});
    ExpectDirectKernelMatches({batch, 6, 3, 3, 1, 1, 3, 5, 7});
    ExpectDirectKernelMatches({batch, 2, 3, 3, 1, 1, 1, 5, 5});
    ExpectDirectKernelMatches({batch, 4, 6, 3, 1, 1, 1, 6, 6});
    ExpectDirectKernelMatches({batch, 3, 4, 5, 2, 2, 1, 9, 8});
  }
}

// ---------------------------------------------------------------------------
// Bit-identity across pool sizes (the house invariant, on planned shapes).

TEST(KernelPlanDeterminismTest, ConvBitIdenticalAcrossPools) {
  Rng input_rng(50);
  const Tensor input =
      Tensor::Gaussian(Shape{3, 8, 14, 14}, 1.0f, &input_rng);

  auto run = [&](size_t threads) {
    util::ThreadPool pool(threads);
    Rng rng(51);
    nn::Conv2d conv("t", 8, 16, 3, 1, 1, 1, &rng);
    nn::ExecutionContext ctx = nn::ExecutionContext::Deterministic(7);
    ctx.set_pool(&pool);
    Tensor y = conv.Forward({&input}, &ctx).value();
    Tensor grad_out(y.shape());
    grad_out.Fill(0.25f);
    conv.ZeroGrad();
    Tensor gin = std::move(conv.Backward(grad_out, &ctx).value()[0]);
    return std::make_pair(std::move(y),
                          std::make_pair(std::move(gin),
                                         conv.params()[0].grad));
  };
  const auto ref = run(1);
  for (size_t threads : {size_t{2}, size_t{8}}) {
    const auto got = run(threads);
    EXPECT_EQ(0, std::memcmp(got.first.data(), ref.first.data(),
                             static_cast<size_t>(ref.first.numel()) *
                                 sizeof(float)))
        << "forward diverged at " << threads << " threads";
    EXPECT_EQ(0, std::memcmp(got.second.first.data(), ref.second.first.data(),
                             static_cast<size_t>(ref.second.first.numel()) *
                                 sizeof(float)))
        << "grad_input diverged at " << threads << " threads";
    EXPECT_EQ(0,
              std::memcmp(got.second.second.data(), ref.second.second.data(),
                          static_cast<size_t>(ref.second.second.numel()) *
                              sizeof(float)))
        << "grad_weight diverged at " << threads << " threads";
  }
}

TEST(KernelPlanDeterminismTest, LinearBitIdenticalAcrossPools) {
  Rng input_rng(60);
  const Tensor input = Tensor::Gaussian(Shape{32, 64}, 1.0f, &input_rng);

  auto run = [&](size_t threads) {
    util::ThreadPool pool(threads);
    Rng rng(61);
    nn::Linear fc("t", 64, 96, &rng);
    nn::ExecutionContext ctx = nn::ExecutionContext::Deterministic(7);
    ctx.set_pool(&pool);
    Tensor y = fc.Forward({&input}, &ctx).value();
    Tensor grad_out(y.shape());
    grad_out.Fill(0.25f);
    fc.ZeroGrad();
    Tensor gin = std::move(fc.Backward(grad_out, &ctx).value()[0]);
    std::vector<Tensor> all = {std::move(y), std::move(gin),
                               fc.params()[0].grad, fc.params()[1].grad};
    return all;
  };
  const std::vector<Tensor> ref = run(1);
  for (size_t threads : {size_t{2}, size_t{8}}) {
    const std::vector<Tensor> got = run(threads);
    for (size_t i = 0; i < ref.size(); ++i) {
      EXPECT_EQ(0, std::memcmp(got[i].data(), ref[i].data(),
                               static_cast<size_t>(ref[i].numel()) *
                                   sizeof(float)))
          << "tensor " << i << " diverged at " << threads << " threads";
    }
  }
}

// ---------------------------------------------------------------------------
// Execution modes. Both run the same plans; a non-deterministic context only
// hands the plan a scheduler, from which each GEMM role (forward; data
// gradient; weight gradient) draws its split-K point on the launching
// thread. A scheduler seed therefore fixes the bits at every pool size,
// different seeds move them, and the direct kernel takes no freedom.

/// One forward and backward pass of `layer` on `input` with a fixed
/// upstream gradient: {output, grad_input, one gradient per parameter}.
std::vector<Tensor> RunLayer(nn::Layer* layer, const Tensor& input,
                             nn::ExecutionContext ctx, size_t threads) {
  util::ThreadPool pool(threads);
  ctx.set_pool(&pool);
  Tensor y = layer->Forward({&input}, &ctx).value();
  Tensor grad_out(y.shape());
  Rng grad_rng(9);
  for (int64_t i = 0; i < grad_out.numel(); ++i) {
    grad_out.data()[i] = grad_rng.NextFloat() * 2.0f - 1.0f;
  }
  layer->ZeroGrad();
  std::vector<Tensor> run = {std::move(y)};
  run.push_back(std::move(layer->Backward(grad_out, &ctx).value()[0]));
  for (const nn::Param& p : layer->params()) {
    run.push_back(p.grad);
  }
  return run;
}

/// Output and gradient roles RunLayer returns that a GEMM computes (a
/// Linear's bias gradient is a serial column sum, so it takes no freedom).
constexpr size_t kGemmRoles = 3;
const char* const kRoleNames[] = {"output", "grad_input", "grad_weight",
                                  "grad_bias"};

void ExpectSameBits(const std::vector<Tensor>& got,
                    const std::vector<Tensor>& want, const std::string& what) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_TRUE(got[i].Equals(want[i])) << kRoleNames[i] << ": " << what;
  }
}

/// Checks both modes on `layer`: each mode is bit-identical at pools
/// 1/2/8 for a fixed scheduler seed; the non-deterministic run differs from
/// another seed's in every GEMM role and stays close to the deterministic
/// run.
void ExpectModesBehave(nn::Layer* layer, const Tensor& input) {
  const auto det = [] { return nn::ExecutionContext::Deterministic(7); };
  const auto nondet = [](uint64_t scheduler_seed) {
    return nn::ExecutionContext::NonDeterministic(7, scheduler_seed);
  };
  const std::vector<Tensor> det_ref = RunLayer(layer, input, det(), 1);
  const std::vector<Tensor> seed_a = RunLayer(layer, input, nondet(101), 1);
  const std::vector<Tensor> seed_b = RunLayer(layer, input, nondet(202), 1);
  for (size_t threads : {size_t{2}, size_t{8}}) {
    const std::string pool = std::to_string(threads) + " threads";
    ExpectSameBits(RunLayer(layer, input, det(), threads), det_ref,
                   "deterministic, " + pool);
    ExpectSameBits(RunLayer(layer, input, nondet(101), threads), seed_a,
                   "scheduler seed 101, " + pool);
    ExpectSameBits(RunLayer(layer, input, nondet(202), threads), seed_b,
                   "scheduler seed 202, " + pool);
  }
  for (size_t i = 0; i < det_ref.size(); ++i) {
    if (i < kGemmRoles) {
      EXPECT_FALSE(seed_a[i].Equals(seed_b[i]))
          << kRoleNames[i] << ": scheduler seeds 101 and 202 agree";
    }
    EXPECT_TRUE(seed_a[i].AllClose(det_ref[i], 1e-3f))
        << kRoleNames[i] << ": max diff "
        << seed_a[i].MaxAbsDiff(det_ref[i]);
  }
}

TEST(ExecutionModeTest, Im2ColConvSplitsKOnlyWhenNonDeterministic) {
  ASSERT_EQ(ConvPlan(ConvGeom{3, 8, 16, 3, 1, 1, 1, 14, 14, 14, 14}).algo(),
            ConvAlgo::kIm2ColGemm);
  Rng rng(80);
  nn::Conv2d conv("t", 8, 16, 3, 1, 1, 1, &rng);
  ExpectModesBehave(&conv, Tensor::Gaussian(Shape{3, 8, 14, 14}, 1.0f, &rng));
}

TEST(ExecutionModeTest, PointwiseConvSplitsKOnlyWhenNonDeterministic) {
  ASSERT_EQ(ConvPlan(ConvGeom{2, 16, 24, 1, 1, 0, 1, 14, 14, 14, 14}).algo(),
            ConvAlgo::kPointwiseGemm);
  Rng rng(81);
  nn::Conv2d conv("t", 16, 24, 1, 1, 0, 1, &rng);
  ExpectModesBehave(&conv,
                    Tensor::Gaussian(Shape{2, 16, 14, 14}, 1.0f, &rng));
}

TEST(ExecutionModeTest, LinearGemmSplitsKOnlyWhenNonDeterministic) {
  ASSERT_EQ(kernels::LinearPlan(32, 64, 96).algo(), LinearAlgo::kGemm);
  Rng rng(82);
  nn::Linear fc("t", 64, 96, &rng);
  const Tensor input = Tensor::Gaussian(Shape{32, 64}, 1.0f, &rng);
  ExpectModesBehave(&fc, input);
  // The bias gradient is a serial column sum in both modes.
  EXPECT_TRUE(
      RunLayer(&fc, input, nn::ExecutionContext::NonDeterministic(7, 101), 1)
          .back()
          .Equals(RunLayer(&fc, input, nn::ExecutionContext::Deterministic(7),
                           1)
                      .back()));
}

TEST(ExecutionModeTest, ConvSplitPointIsDrawnOncePerCall) {
  // Every chunk of a call uses the same split point, so the identical
  // samples of a batch come out with identical bits; a split drawn per
  // chunk would give them different association orders.
  for (int64_t kernel : {3, 1}) {
    SCOPED_TRACE("kernel " + std::to_string(kernel));
    const int64_t batch = 8;
    const int64_t sample_floats = 8 * 14 * 14;
    Rng rng(84);
    nn::Conv2d conv("t", 8, 16, kernel, 1, kernel / 2, 1, &rng);
    const Tensor sample = Tensor::Gaussian(Shape{1, 8, 14, 14}, 1.0f, &rng);
    Tensor input(Shape{batch, 8, 14, 14});
    for (int64_t n = 0; n < batch; ++n) {
      std::memcpy(input.data() + n * sample_floats, sample.data(),
                  sample_floats * sizeof(float));
    }
    util::ThreadPool pool(8);
    nn::ExecutionContext ctx = nn::ExecutionContext::NonDeterministic(7, 101);
    ctx.set_pool(&pool);
    const Tensor y = conv.Forward({&input}, &ctx).value();
    const int64_t out_floats = y.numel() / batch;
    Tensor grad_out(y.shape());
    for (int64_t i = 0; i < out_floats; ++i) {
      const float v = rng.NextFloat() * 2.0f - 1.0f;
      for (int64_t n = 0; n < batch; ++n) {
        grad_out.data()[n * out_floats + i] = v;
      }
    }
    const Tensor gin = conv.Backward(grad_out, &ctx).value()[0];
    for (int64_t n = 1; n < batch; ++n) {
      EXPECT_EQ(0, std::memcmp(y.data() + n * out_floats, y.data(),
                               out_floats * sizeof(float)))
          << "output of sample " << n;
      EXPECT_EQ(0, std::memcmp(gin.data() + n * sample_floats, gin.data(),
                               sample_floats * sizeof(float)))
          << "grad_input of sample " << n;
    }
  }
}

TEST(ExecutionModeTest, DepthwiseConvIsIdenticalInBothModes) {
  ASSERT_EQ(ConvPlan(ConvGeom{2, 16, 16, 3, 1, 1, 16, 14, 14, 14, 14}).algo(),
            ConvAlgo::kDirect);
  Rng rng(83);
  nn::Conv2d conv("t", 16, 16, 3, 1, 1, 16, &rng);
  const Tensor input = Tensor::Gaussian(Shape{2, 16, 14, 14}, 1.0f, &rng);
  const std::vector<Tensor> det =
      RunLayer(&conv, input, nn::ExecutionContext::Deterministic(7), 1);
  for (uint64_t scheduler_seed : {101, 202}) {
    for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
      ExpectSameBits(
          RunLayer(&conv, input,
                   nn::ExecutionContext::NonDeterministic(7, scheduler_seed),
                   threads),
          det,
          "scheduler seed " + std::to_string(scheduler_seed) + ", " +
              std::to_string(threads) + " threads");
    }
  }
}

// ---------------------------------------------------------------------------
// Linear plan against a naive double reference.

TEST(LinearPlanTest, GemmPathMatchesReference) {
  const int64_t batch = 32, in = 64, out = 96;
  Rng rng(70);
  nn::Linear fc("t", in, out, &rng);
  Rng input_rng(71);
  const Tensor input =
      Tensor::Gaussian(Shape{batch, in}, 1.0f, &input_rng);

  ASSERT_EQ(kernels::LinearPlan(batch, in, out).algo(), LinearAlgo::kGemm);

  util::ThreadPool pool(2);
  nn::ExecutionContext ctx = nn::ExecutionContext::Deterministic(7);
  ctx.set_pool(&pool);
  const Tensor y = fc.Forward({&input}, &ctx).value();

  const float* w = fc.params()[0].value.data();
  const float* bias = fc.params()[1].value.data();
  std::vector<double> want(static_cast<size_t>(batch * out));
  for (int64_t n = 0; n < batch; ++n) {
    for (int64_t o = 0; o < out; ++o) {
      double acc = bias[o];
      for (int64_t i = 0; i < in; ++i) {
        acc += static_cast<double>(input.data()[n * in + i]) * w[o * in + i];
      }
      want[n * out + o] = acc;
    }
  }
  ExpectClose(y.data(), want, 1e-5, "linear forward");

  Tensor grad_out(y.shape());
  Rng gr(72);
  for (int64_t i = 0; i < grad_out.numel(); ++i) {
    grad_out.data()[i] = gr.NextFloat() * 2.0f - 1.0f;
  }
  fc.ZeroGrad();
  std::vector<Tensor> grads = fc.Backward(grad_out, &ctx).value();

  std::vector<double> want_gin(static_cast<size_t>(batch * in), 0.0);
  std::vector<double> want_gw(static_cast<size_t>(out * in), 0.0);
  std::vector<double> want_gb(static_cast<size_t>(out), 0.0);
  for (int64_t n = 0; n < batch; ++n) {
    for (int64_t o = 0; o < out; ++o) {
      const double gv = grad_out.data()[n * out + o];
      want_gb[o] += gv;
      for (int64_t i = 0; i < in; ++i) {
        want_gin[n * in + i] += gv * w[o * in + i];
        want_gw[o * in + i] +=
            gv * static_cast<double>(input.data()[n * in + i]);
      }
    }
  }
  ExpectClose(grads[0].data(), want_gin, 1e-4, "linear grad_input");
  ExpectClose(fc.params()[0].grad.data(), want_gw, 1e-4, "linear grad_weight");
  ExpectClose(fc.params()[1].grad.data(), want_gb, 1e-4, "linear grad_bias");
}

TEST(LinearPlanTest, TinyShapesStayDirect) {
  EXPECT_EQ(kernels::LinearPlan(9, 37, 19).algo(), LinearAlgo::kDirect);
  EXPECT_EQ(kernels::LinearPlan(1, 10, 10).algo(), LinearAlgo::kDirect);
}

// ---------------------------------------------------------------------------
// PlanCache reuse.

TEST(PlanCacheTest, RepeatedLookupsHitAndShare) {
  PlanCache& cache = PlanCache::Instance();
  const ConvGeom geom{5, 32, 48, 3, 1, 1, 1, 23, 29, 23, 29};
  const PlanCache::Stats before = cache.stats();
  std::shared_ptr<const ConvPlan> a = cache.GetConvPlan(geom);
  std::shared_ptr<const ConvPlan> b = cache.GetConvPlan(geom);
  EXPECT_EQ(a.get(), b.get());
  const PlanCache::Stats after = cache.stats();
  EXPECT_EQ(after.conv_misses, before.conv_misses + 1);
  EXPECT_GE(after.conv_hits, before.conv_hits + 1);

  std::shared_ptr<const kernels::LinearPlan> la =
      cache.GetLinearPlan(48, 160, 80);
  std::shared_ptr<const kernels::LinearPlan> lb =
      cache.GetLinearPlan(48, 160, 80);
  EXPECT_EQ(la.get(), lb.get());
  const PlanCache::Stats final_stats = cache.stats();
  EXPECT_EQ(final_stats.linear_misses, after.linear_misses + 1);
  EXPECT_GE(final_stats.linear_hits, after.linear_hits + 1);
  EXPECT_GE(final_stats.size, 2u);
}

TEST(PlanCacheTest, LayersReuseThePlanAcrossSteps) {
  PlanCache& cache = PlanCache::Instance();
  Rng rng(80);
  nn::Conv2d conv("t", 8, 16, 3, 1, 1, 1, &rng);
  Rng input_rng(81);
  const Tensor input =
      Tensor::Gaussian(Shape{2, 8, 14, 14}, 1.0f, &input_rng);
  util::ThreadPool pool(1);
  nn::ExecutionContext ctx = nn::ExecutionContext::Deterministic(7);
  ctx.set_pool(&pool);

  (void)conv.Forward({&input}, &ctx).value();
  const PlanCache::Stats after_first = cache.stats();
  // Repeated steps with the same geometry reuse the cached shared_ptr
  // without re-querying the cache.
  (void)conv.Forward({&input}, &ctx).value();
  (void)conv.Forward({&input}, &ctx).value();
  const PlanCache::Stats after_more = cache.stats();
  EXPECT_EQ(after_more.conv_misses, after_first.conv_misses);
  EXPECT_EQ(after_more.conv_hits, after_first.conv_hits);
}

TEST(PlanCacheTest, CapacityBoundEvictsLeastRecentlyUsed) {
  PlanCache& cache = PlanCache::Instance();
  cache.Clear();
  cache.set_capacity(3);
  EXPECT_EQ(cache.capacity(), 3u);

  // Three linear geometries fill the cache; plans are keyed by shape only,
  // so re-requesting a key is a hit that refreshes its recency.
  (void)cache.GetLinearPlan(64, 128, 32);   // A
  (void)cache.GetLinearPlan(64, 128, 48);   // B
  (void)cache.GetLinearPlan(64, 128, 64);   // C
  EXPECT_EQ(cache.stats().size, 3u);
  EXPECT_EQ(cache.stats().evictions, 0u);

  // Touch A so B becomes the least recently used, then overflow: B — and
  // deterministically B, use order being the only input — is evicted.
  (void)cache.GetLinearPlan(64, 128, 32);   // hit on A
  std::shared_ptr<const kernels::LinearPlan> d =
      cache.GetLinearPlan(64, 128, 80);     // D evicts B
  EXPECT_EQ(cache.stats().size, 3u);
  EXPECT_EQ(cache.stats().evictions, 1u);

  const uint64_t misses_before = cache.stats().linear_misses;
  (void)cache.GetLinearPlan(64, 128, 32);   // A: still cached
  (void)cache.GetLinearPlan(64, 128, 80);   // D: still cached
  EXPECT_EQ(cache.stats().linear_misses, misses_before);
  (void)cache.GetLinearPlan(64, 128, 48);   // B: must be re-planned
  EXPECT_EQ(cache.stats().linear_misses, misses_before + 1);

  cache.Clear();
  EXPECT_EQ(cache.capacity(), PlanCache::kDefaultCapacity);
}

TEST(PlanCacheTest, EvictionSpansConvAndLinearPlans) {
  PlanCache& cache = PlanCache::Instance();
  cache.Clear();
  cache.set_capacity(2);

  // An evicted plan stays alive for holders: eviction only forgets it.
  std::shared_ptr<const ConvPlan> held =
      cache.GetConvPlan(ConvGeom{1, 8, 16, 3, 1, 1, 1, 14, 14, 14, 14});
  (void)cache.GetLinearPlan(32, 64, 64);
  (void)cache.GetLinearPlan(32, 64, 96);  // overflow: the conv plan is LRU
  EXPECT_EQ(cache.stats().size, 2u);
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_NE(held.get(), nullptr);
  EXPECT_NE(held->algo(), ConvAlgo::kDirect);

  // Lowering the capacity evicts immediately.
  cache.set_capacity(1);
  EXPECT_EQ(cache.stats().size, 1u);
  EXPECT_EQ(cache.stats().evictions, 2u);

  cache.Clear();
}

// ---------------------------------------------------------------------------
// ScratchPool reuse.

TEST(ScratchPoolTest, LeasesAreReused) {
  util::ScratchPool scratch;
  {
    util::ScratchPool::Lease lease = scratch.Acquire(1000);
    EXPECT_GE(lease.size(), 1000u);
  }
  EXPECT_EQ(scratch.allocated_buffers(), 1u);
  EXPECT_EQ(scratch.reused_acquires(), 0u);
  {
    util::ScratchPool::Lease lease = scratch.Acquire(900);
    EXPECT_GE(lease.size(), 900u);
  }
  EXPECT_EQ(scratch.allocated_buffers(), 1u);
  EXPECT_EQ(scratch.reused_acquires(), 1u);
  // Two concurrent leases force a second allocation; both return.
  {
    util::ScratchPool::Lease a = scratch.Acquire(100);
    util::ScratchPool::Lease b = scratch.Acquire(2000);
    EXPECT_NE(a.data(), b.data());
  }
  EXPECT_EQ(scratch.allocated_buffers(), 2u);
}

TEST(ScratchPoolTest, RetentionCapTrimsLargestFirst) {
  // Cap of three 1024-float quanta: the pool may park 12 KiB.
  util::ScratchPool scratch(/*max_retained_bytes=*/3 * 1024 * sizeof(float));
  {
    util::ScratchPool::Lease small = scratch.Acquire(1024);
    util::ScratchPool::Lease medium = scratch.Acquire(2048);
    util::ScratchPool::Lease big = scratch.Acquire(8192);
    EXPECT_EQ(scratch.allocated_buffers(), 3u);
  }
  // The 8192-float buffer blows the cap on release and is dropped; the two
  // buffers that fit together stay parked.
  EXPECT_EQ(scratch.trimmed_buffers(), 1u);
  EXPECT_EQ(scratch.retained_bytes(), (1024 + 2048) * sizeof(float));

  // Largest-first: an oversized straggler is evicted over the smaller
  // resident working set, even though the residents arrived earlier.
  { util::ScratchPool::Lease straggler = scratch.Acquire(4096); }
  EXPECT_EQ(scratch.trimmed_buffers(), 2u);
  EXPECT_EQ(scratch.retained_bytes(), (1024 + 2048) * sizeof(float));
  const size_t allocated = scratch.allocated_buffers();
  { util::ScratchPool::Lease reuse = scratch.Acquire(1024); }
  EXPECT_EQ(scratch.allocated_buffers(), allocated);  // served from the pool
  EXPECT_GE(scratch.reused_acquires(), 1u);
}

TEST(ScratchPoolTest, LeaseMovesAreSafeAndReleaseOnce) {
  util::ScratchPool scratch;
  util::ScratchPool::Lease a = scratch.Acquire(100);
  float* const payload = a.data();
  ASSERT_NE(payload, nullptr);
  payload[0] = 3.5f;

  // Self-move-assignment must leave the lease intact (the reference hides
  // the self-move from compiler diagnostics, not from the operator).
  util::ScratchPool::Lease& self = a;
  a = std::move(self);
  EXPECT_EQ(a.data(), payload);
  EXPECT_EQ(a.data()[0], 3.5f);

  // Chained moves transfer ownership without touching the pool.
  util::ScratchPool::Lease b = std::move(a);
  util::ScratchPool::Lease c;
  c = std::move(b);
  EXPECT_EQ(c.data(), payload);
  EXPECT_EQ(b.size(), 0u);
  EXPECT_EQ(scratch.retained_bytes(), 0u);

  // Move-assigning over an active lease returns the overwritten buffer to
  // the pool exactly once.
  util::ScratchPool::Lease d = scratch.Acquire(5000);
  EXPECT_EQ(scratch.allocated_buffers(), 2u);
  d = std::move(c);
  EXPECT_EQ(d.data(), payload);
  EXPECT_GT(scratch.retained_bytes(), 0u);
  const size_t parked = scratch.retained_bytes();
  util::ScratchPool::Lease e = std::move(d);
  EXPECT_EQ(scratch.retained_bytes(), parked);  // the move released nothing
}

TEST(ScratchPoolTest, PlansRunningTwiceReuseScratch) {
  const ConvGeom geom{2, 8, 16, 3, 1, 1, 1, 14, 14, 14, 14};
  const ConvPlan plan(geom);
  ASSERT_NE(plan.algo(), ConvAlgo::kDirect);
  Rng rng(90);
  std::vector<float> x(static_cast<size_t>(2 * 8 * 14 * 14));
  std::vector<float> w(static_cast<size_t>(16 * 8 * 3 * 3));
  for (float& v : x) v = rng.NextFloat();
  for (float& v : w) v = rng.NextFloat();
  std::vector<float> y(static_cast<size_t>(2 * 16 * 14 * 14));
  // A serial pool runs the chunks in the same order on both calls, so the
  // first call reaches every lease the second needs. With workers, the first
  // call may run all chunks on one thread and leave a later, more concurrent
  // call one buffer short.
  util::ThreadPool pool(1);
  plan.Forward(x.data(), w.data(), y.data(), &pool, /*scheduler=*/nullptr);
  const size_t allocated_after_first = plan.scratch()->allocated_buffers();
  plan.Forward(x.data(), w.data(), y.data(), &pool, /*scheduler=*/nullptr);
  EXPECT_EQ(plan.scratch()->allocated_buffers(), allocated_after_first);
  EXPECT_GT(plan.scratch()->reused_acquires(), 0u);
}

}  // namespace
}  // namespace mmlib
