#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "nn/activations.h"
#include "nn/batchnorm.h"
#include "nn/conv2d.h"
#include "nn/layer.h"
#include "nn/linear.h"
#include "nn/pooling.h"

namespace mmlib::nn {
namespace {

ExecutionContext DetCtx(uint64_t seed = 1) {
  ExecutionContext ctx = ExecutionContext::Deterministic(seed);
  ctx.set_training(true);
  return ctx;
}

Tensor RandomTensor(Shape shape, uint64_t seed, float scale = 1.0f) {
  Rng rng(seed);
  return Tensor::Gaussian(std::move(shape), scale, &rng);
}

/// Scalar objective L = sum(output .* direction) evaluated by a fresh
/// forward pass; used for finite-difference gradient checks.
double Objective(Layer* layer, const Tensor& input, const Tensor& direction,
                 uint64_t ctx_seed) {
  ExecutionContext ctx = DetCtx(ctx_seed);
  Tensor output = layer->Forward({&input}, &ctx).value();
  double loss = 0;
  for (int64_t i = 0; i < output.numel(); ++i) {
    loss += static_cast<double>(output.at(i)) * direction.at(i);
  }
  return loss;
}

/// Verifies analytic input and parameter gradients of `layer` against
/// central finite differences on a sampled subset of elements.
void CheckGradients(Layer* layer, Tensor input, uint64_t seed,
                    float tolerance = 2e-2f) {
  ExecutionContext ctx = DetCtx(seed);
  Tensor output = layer->Forward({&input}, &ctx).value();
  const Tensor direction = RandomTensor(output.shape(), seed + 1);

  layer->ZeroGrad();
  ExecutionContext bctx = DetCtx(seed);
  // Re-run forward in bctx so dropout-style layers use a known mask.
  output = layer->Forward({&input}, &bctx).value();
  std::vector<Tensor> input_grads =
      layer->Backward({&input}, direction, &bctx).value();
  ASSERT_EQ(input_grads.size(), 1u);

  const float eps = 1e-2f;
  auto check_element = [&](float* element, float analytic,
                           const std::string& what) {
    const float saved = *element;
    *element = saved + eps;
    const double plus = Objective(layer, input, direction, seed);
    *element = saved - eps;
    const double minus = Objective(layer, input, direction, seed);
    *element = saved;
    const float numeric = static_cast<float>((plus - minus) / (2 * eps));
    EXPECT_NEAR(analytic, numeric,
                tolerance * (1.0f + std::abs(numeric)))
        << what;
  };

  // Sample input elements.
  const int64_t input_stride = std::max<int64_t>(1, input.numel() / 12);
  for (int64_t i = 0; i < input.numel(); i += input_stride) {
    check_element(&input.at(i), input_grads[0].at(i),
                  "input[" + std::to_string(i) + "]");
  }
  // Sample parameter elements.
  for (Param& param : layer->params()) {
    if (param.is_buffer) {
      continue;
    }
    const int64_t stride = std::max<int64_t>(1, param.value.numel() / 8);
    for (int64_t i = 0; i < param.value.numel(); i += stride) {
      check_element(&param.value.at(i), param.grad.at(i),
                    param.name + "[" + std::to_string(i) + "]");
    }
  }
}

// --- Linear ---

TEST(LinearTest, ForwardShapeAndBias) {
  Rng rng(1);
  Linear layer("fc", 4, 3, &rng);
  ExecutionContext ctx = DetCtx();
  Tensor input = Tensor::Zeros(Shape{2, 4});
  Tensor output = layer.Forward({&input}, &ctx).value();
  EXPECT_EQ(output.shape(), (Shape{2, 3}));
  // Zero input: output equals the bias for every row.
  const float* bias = layer.params()[1].value.data();
  for (int64_t n = 0; n < 2; ++n) {
    for (int64_t o = 0; o < 3; ++o) {
      EXPECT_FLOAT_EQ(output.at(n * 3 + o), bias[o]);
    }
  }
}

TEST(LinearTest, RejectsBadInput) {
  Rng rng(1);
  Linear layer("fc", 4, 3, &rng);
  ExecutionContext ctx = DetCtx();
  Tensor bad = Tensor::Zeros(Shape{2, 5});
  EXPECT_FALSE(layer.Forward({&bad}, &ctx).ok());
  Tensor bad_rank = Tensor::Zeros(Shape{2, 4, 1});
  EXPECT_FALSE(layer.Forward({&bad_rank}, &ctx).ok());
}

TEST(LinearTest, GradientsMatchFiniteDifferences) {
  Rng rng(2);
  Linear layer("fc", 6, 4, &rng);
  CheckGradients(&layer, RandomTensor(Shape{3, 6}, 10), 20);
}

TEST(LinearTest, ParamCounts) {
  Rng rng(3);
  Linear layer("fc", 10, 5, &rng);
  EXPECT_EQ(layer.TrainableParamCount(), 10 * 5 + 5);
  EXPECT_EQ(layer.TotalParamCount(), 55);
  layer.SetTrainable(false);
  EXPECT_EQ(layer.TrainableParamCount(), 0);
  EXPECT_FALSE(layer.HasTrainableParams());
}

// --- Conv2d ---

TEST(Conv2dTest, OutputShape) {
  Rng rng(1);
  Conv2d conv("c", 3, 8, 3, 2, 1, 1, &rng);
  ExecutionContext ctx = DetCtx();
  Tensor input = RandomTensor(Shape{2, 3, 8, 8}, 4);
  Tensor output = conv.Forward({&input}, &ctx).value();
  EXPECT_EQ(output.shape(), (Shape{2, 8, 4, 4}));
}

TEST(Conv2dTest, IdentityKernelPassesThrough) {
  Rng rng(1);
  Conv2d conv("c", 1, 1, 1, 1, 0, 1, &rng);
  conv.params()[0].value.Fill(1.0f);
  ExecutionContext ctx = DetCtx();
  Tensor input = RandomTensor(Shape{1, 1, 4, 4}, 5);
  Tensor output = conv.Forward({&input}, &ctx).value();
  EXPECT_TRUE(output.Equals(input));
}

TEST(Conv2dTest, KnownConvolutionValue) {
  Rng rng(1);
  Conv2d conv("c", 1, 1, 3, 1, 0, 1, &rng);
  conv.params()[0].value.Fill(1.0f);  // box filter
  Tensor input = Tensor::Full(Shape{1, 1, 3, 3}, 2.0f);
  ExecutionContext ctx = DetCtx();
  Tensor output = conv.Forward({&input}, &ctx).value();
  EXPECT_EQ(output.shape(), (Shape{1, 1, 1, 1}));
  EXPECT_FLOAT_EQ(output.at(0), 18.0f);
}

TEST(Conv2dTest, GradientsMatchFiniteDifferences) {
  Rng rng(7);
  Conv2d conv("c", 2, 3, 3, 1, 1, 1, &rng);
  CheckGradients(&conv, RandomTensor(Shape{2, 2, 5, 5}, 11), 21);
}

TEST(Conv2dTest, StridedGradients) {
  Rng rng(8);
  Conv2d conv("c", 2, 2, 3, 2, 1, 1, &rng);
  CheckGradients(&conv, RandomTensor(Shape{1, 2, 6, 6}, 12), 22);
}

TEST(Conv2dTest, DepthwiseGradients) {
  Rng rng(9);
  Conv2d conv("c", 4, 4, 3, 1, 1, /*groups=*/4, &rng);
  CheckGradients(&conv, RandomTensor(Shape{1, 4, 5, 5}, 13), 23);
}

TEST(Conv2dTest, PointwiseGradients) {
  Rng rng(10);
  Conv2d conv("c", 4, 6, 1, 1, 0, 1, &rng);
  CheckGradients(&conv, RandomTensor(Shape{2, 4, 3, 3}, 14), 24);
}

TEST(Conv2dTest, RejectsTooSmallInput) {
  Rng rng(1);
  Conv2d conv("c", 1, 1, 5, 1, 0, 1, &rng);
  ExecutionContext ctx = DetCtx();
  Tensor input = Tensor::Zeros(Shape{1, 1, 3, 3});
  EXPECT_FALSE(conv.Forward({&input}, &ctx).ok());
}

TEST(Conv2dTest, DeterministicModeIsRunToRunStable) {
  Rng rng(2);
  Conv2d conv("c", 3, 4, 3, 1, 1, 1, &rng);
  Tensor input = RandomTensor(Shape{1, 3, 6, 6}, 15);
  ExecutionContext ctx1 = DetCtx(1);
  ExecutionContext ctx2 = DetCtx(2);  // different seed, same determinism
  Tensor a = conv.Forward({&input}, &ctx1).value();
  Tensor b = conv.Forward({&input}, &ctx2).value();
  EXPECT_TRUE(a.Equals(b));
}

TEST(Conv2dTest, NonDeterministicModeVariesAcrossSchedules) {
  // Reductions shorter than the parallelization threshold stay serial in
  // both modes; 8 input channels x 3x3 kernel = 72-element reductions.
  Rng rng(2);
  Conv2d conv("c", 8, 4, 3, 1, 1, 1, &rng);
  Tensor input = RandomTensor(Shape{1, 8, 12, 12}, 16, 10.0f);
  ExecutionContext ctx1 = ExecutionContext::NonDeterministic(1, 111);
  ExecutionContext ctx2 = ExecutionContext::NonDeterministic(1, 222);
  Tensor a = conv.Forward({&input}, &ctx1).value();
  Tensor b = conv.Forward({&input}, &ctx2).value();
  EXPECT_FALSE(a.Equals(b));
  EXPECT_TRUE(a.AllClose(b, 1e-2f));
}

// --- BatchNorm2d ---

TEST(BatchNormTest, NormalizesBatchStatistics) {
  BatchNorm2d bn("bn", 2);
  ExecutionContext ctx = DetCtx();
  Tensor input = RandomTensor(Shape{4, 2, 3, 3}, 17, 5.0f);
  Tensor output = bn.Forward({&input}, &ctx).value();
  // Per channel: mean ~0, variance ~1.
  for (int64_t c = 0; c < 2; ++c) {
    double sum = 0;
    double sum_sq = 0;
    int64_t count = 0;
    for (int64_t n = 0; n < 4; ++n) {
      for (int64_t i = 0; i < 9; ++i) {
        const float v = output.at((n * 2 + c) * 9 + i);
        sum += v;
        sum_sq += v * v;
        ++count;
      }
    }
    EXPECT_NEAR(sum / count, 0.0, 1e-4);
    EXPECT_NEAR(sum_sq / count, 1.0, 1e-2);
  }
}

TEST(BatchNormTest, EvalModeUsesRunningStats) {
  BatchNorm2d bn("bn", 1);
  Tensor input = RandomTensor(Shape{2, 1, 2, 2}, 18, 3.0f);
  ExecutionContext train_ctx = DetCtx();
  bn.Forward({&input}, &train_ctx).value();
  // Buffers moved away from their initial values.
  EXPECT_NE(bn.params()[2].value.at(0), 0.0f);

  ExecutionContext eval_ctx = DetCtx();
  eval_ctx.set_training(false);
  const Tensor before_mean = bn.params()[2].value;
  bn.Forward({&input}, &eval_ctx).value();
  // Eval mode must not update the buffers.
  EXPECT_TRUE(bn.params()[2].value.Equals(before_mean));
}

TEST(BatchNormTest, FrozenLayerBehavesAsEval) {
  BatchNorm2d bn("bn", 1);
  bn.SetTrainable(false);
  Tensor input = RandomTensor(Shape{2, 1, 2, 2}, 19, 3.0f);
  ExecutionContext ctx = DetCtx();
  const Tensor before_mean = bn.params()[2].value;
  bn.Forward({&input}, &ctx).value();
  EXPECT_TRUE(bn.params()[2].value.Equals(before_mean));
}

TEST(BatchNormTest, GradientsMatchFiniteDifferences) {
  BatchNorm2d bn("bn", 3);
  // Tight tolerance is hard for BN (normalization couples all elements);
  // moderate batch keeps the check stable.
  CheckGradients(&bn, RandomTensor(Shape{4, 3, 3, 3}, 20), 25, 5e-2f);
}

TEST(BatchNormTest, BuffersAreNotTrainable) {
  BatchNorm2d bn("bn", 4);
  EXPECT_EQ(bn.TrainableParamCount(), 8);  // gamma + beta
  EXPECT_EQ(bn.TotalParamCount(), 16);     // + running mean/var
}

// --- Pooling ---

TEST(MaxPoolTest, SelectsMaxima) {
  MaxPool2d pool("p", 2, 2);
  Tensor input(Shape{1, 1, 2, 2}, {1, 5, 3, 2});
  ExecutionContext ctx = DetCtx();
  Tensor output = pool.Forward({&input}, &ctx).value();
  EXPECT_EQ(output.shape(), (Shape{1, 1, 1, 1}));
  EXPECT_FLOAT_EQ(output.at(0), 5.0f);
}

TEST(MaxPoolTest, BackwardRoutesToArgmax) {
  MaxPool2d pool("p", 2, 2);
  Tensor input(Shape{1, 1, 2, 2}, {1, 5, 3, 2});
  ExecutionContext ctx = DetCtx();
  pool.Forward({&input}, &ctx).value();
  Tensor grad_out(Shape{1, 1, 1, 1}, {7.0f});
  auto grads = pool.Backward({&input}, grad_out, &ctx).value();
  EXPECT_FLOAT_EQ(grads[0].at(1), 7.0f);
  EXPECT_FLOAT_EQ(grads[0].at(0), 0.0f);
  EXPECT_FLOAT_EQ(grads[0].at(2), 0.0f);
}

TEST(MaxPoolTest, BackwardRejectsAShorterInputWithTheSameOutputShape) {
  // A 3x3 window at stride 2 maps 6x6 and 5x5 alike to 2x2, so grad_output
  // and argmax sizes match; argmax entries of the 6x6 Forward lie past the
  // end of the 5x5 input.
  MaxPool2d pool("p", 3, 2);
  Tensor forward_input(Shape{1, 1, 6, 6});
  for (int64_t i = 0; i < forward_input.numel(); ++i) {
    forward_input.at(i) = static_cast<float>(i);  // maxima at the far edge
  }
  ExecutionContext ctx = DetCtx();
  ASSERT_EQ(pool.Forward({&forward_input}, &ctx).value().shape(),
            (Shape{1, 1, 2, 2}));
  const Tensor shorter(Shape{1, 1, 5, 5});
  EXPECT_EQ(pool.Backward({&shorter}, Tensor(Shape{1, 1, 2, 2}), &ctx)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(MaxPoolTest, PaddingKeepsSpatialSize) {
  MaxPool2d pool("p", 3, 2, 1);
  Tensor input = RandomTensor(Shape{1, 2, 7, 7}, 21);
  ExecutionContext ctx = DetCtx();
  Tensor output = pool.Forward({&input}, &ctx).value();
  EXPECT_EQ(output.shape(), (Shape{1, 2, 4, 4}));
}

TEST(GlobalAvgPoolTest, AveragesPlane) {
  GlobalAvgPool pool("gap");
  Tensor input(Shape{1, 2, 1, 2}, {2, 4, 10, 30});
  ExecutionContext ctx = DetCtx();
  Tensor output = pool.Forward({&input}, &ctx).value();
  EXPECT_EQ(output.shape(), (Shape{1, 2}));
  EXPECT_FLOAT_EQ(output.at(0), 3.0f);
  EXPECT_FLOAT_EQ(output.at(1), 20.0f);
}

TEST(GlobalAvgPoolTest, BackwardSpreadsUniformly) {
  GlobalAvgPool pool("gap");
  Tensor input = RandomTensor(Shape{1, 1, 2, 2}, 22);
  ExecutionContext ctx = DetCtx();
  pool.Forward({&input}, &ctx).value();
  Tensor grad_out(Shape{1, 1}, {8.0f});
  auto grads = pool.Backward({&input}, grad_out, &ctx).value();
  for (int64_t i = 0; i < 4; ++i) {
    EXPECT_FLOAT_EQ(grads[0].at(i), 2.0f);
  }
}

// --- Activations & structural layers ---

TEST(ReLUTest, ClampsNegatives) {
  ReLU relu("r");
  Tensor input(Shape{4}, {-1, 0, 2, -3});
  ExecutionContext ctx = DetCtx();
  Tensor output = relu.Forward({&input}, &ctx).value();
  EXPECT_FLOAT_EQ(output.at(0), 0.0f);
  EXPECT_FLOAT_EQ(output.at(2), 2.0f);
}

TEST(ReLUTest, Relu6Clips) {
  ReLU relu("r", 6.0f);
  Tensor input(Shape{3}, {-1, 3, 9});
  ExecutionContext ctx = DetCtx();
  Tensor output = relu.Forward({&input}, &ctx).value();
  EXPECT_FLOAT_EQ(output.at(1), 3.0f);
  EXPECT_FLOAT_EQ(output.at(2), 6.0f);
  // Gradient is zero in the clipped region.
  Tensor grad_out(Shape{3}, {1, 1, 1});
  auto grads = relu.Backward({&input}, grad_out, &ctx).value();
  EXPECT_FLOAT_EQ(grads[0].at(0), 0.0f);
  EXPECT_FLOAT_EQ(grads[0].at(1), 1.0f);
  EXPECT_FLOAT_EQ(grads[0].at(2), 0.0f);
}

/// Scalar ReLU/ReLU6 with explicit branches: the reference semantics the
/// branch-free kernel must reproduce bit for bit.
float ReferenceReluForward(float v, float clip) {
  if (v < 0.0f) {
    v = 0.0f;
  } else if (clip > 0.0f && v > clip) {
    v = clip;
  }
  return v;
}

float ReferenceReluBackward(float v, float g, float clip) {
  const bool pass = v > 0.0f && (clip <= 0.0f || v < clip);
  return pass ? g : 0.0f;
}

TEST(ReLUTest, BranchFreeKernelMatchesScalarSemanticsBitForBit) {
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  std::vector<float> values = {
      0.0f, -0.0f, nan, -nan, inf, -inf, 6.0f, std::nextafter(6.0f, 0.0f),
      std::nextafter(6.0f, 7.0f), std::numeric_limits<float>::denorm_min(),
      -std::numeric_limits<float>::denorm_min(), 1.0f, -1.0f};
  Rng rng(23);
  // Random signs and magnitudes around the clip, past any vector width.
  while (values.size() < 1037) {
    values.push_back(rng.NextUniform(-9.0f, 9.0f));
  }
  const int64_t n = static_cast<int64_t>(values.size());
  Tensor input(Shape{n}, values);
  std::vector<float> gvals(values.size());
  for (size_t i = 0; i < gvals.size(); ++i) {
    gvals[i] = i % 7 == 0 ? -0.0f : rng.NextUniform(-2.0f, 2.0f);
  }
  gvals[2] = nan;
  const Tensor grad_out(Shape{n}, gvals);
  auto bits = [](float f) { return std::bit_cast<uint32_t>(f); };
  for (float clip : {0.0f, 6.0f}) {
    ReLU relu("r", clip);
    ExecutionContext ctx = DetCtx();
    const Tensor output = relu.Forward({&input}, &ctx).value();
    const Tensor grad_in =
        relu.Backward({&input}, grad_out, &ctx).value()[0];
    for (int64_t i = 0; i < n; ++i) {
      ASSERT_EQ(bits(output.at(i)),
                bits(ReferenceReluForward(values[i], clip)))
          << "forward, clip " << clip << ", input " << values[i];
      ASSERT_EQ(bits(grad_in.at(i)),
                bits(ReferenceReluBackward(values[i], gvals[i], clip)))
          << "backward, clip " << clip << ", input " << values[i];
    }
  }
}

TEST(DropoutTest, IdentityWhenNotTraining) {
  Dropout dropout("d", 0.5f);
  ExecutionContext ctx = DetCtx();
  ctx.set_training(false);
  Tensor input = RandomTensor(Shape{100}, 23);
  Tensor output = dropout.Forward({&input}, &ctx).value();
  EXPECT_TRUE(output.Equals(input));
}

TEST(DropoutTest, MaskIsSeedDeterministic) {
  Dropout a("d", 0.5f);
  Dropout b("d", 0.5f);
  Tensor input = Tensor::Full(Shape{1000}, 1.0f);
  ExecutionContext ctx1 = DetCtx(33);
  ExecutionContext ctx2 = DetCtx(33);
  Tensor out1 = a.Forward({&input}, &ctx1).value();
  Tensor out2 = b.Forward({&input}, &ctx2).value();
  EXPECT_TRUE(out1.Equals(out2));
  // Roughly half the elements survive, scaled by 2.
  int64_t kept = 0;
  for (int64_t i = 0; i < out1.numel(); ++i) {
    if (out1.at(i) != 0.0f) {
      EXPECT_FLOAT_EQ(out1.at(i), 2.0f);
      ++kept;
    }
  }
  EXPECT_NEAR(kept, 500, 80);
}

TEST(DropoutTest, BackwardUsesSameMask) {
  Dropout dropout("d", 0.5f);
  Tensor input = Tensor::Full(Shape{64}, 1.0f);
  ExecutionContext ctx = DetCtx(34);
  Tensor output = dropout.Forward({&input}, &ctx).value();
  Tensor grad_out = Tensor::Full(Shape{64}, 1.0f);
  auto grads = dropout.Backward({&input}, grad_out, &ctx).value();
  for (int64_t i = 0; i < 64; ++i) {
    EXPECT_FLOAT_EQ(grads[0].at(i), output.at(i));
  }
}

TEST(AddTest, SumsInputsAndFansOutGradient) {
  Add add("a", 2);
  Tensor x(Shape{2}, {1, 2});
  Tensor y(Shape{2}, {10, 20});
  ExecutionContext ctx = DetCtx();
  Tensor output = add.Forward({&x, &y}, &ctx).value();
  EXPECT_FLOAT_EQ(output.at(1), 22.0f);
  Tensor grad_out(Shape{2}, {5, 6});
  auto grads = add.Backward({&x, &y}, grad_out, &ctx).value();
  ASSERT_EQ(grads.size(), 2u);
  EXPECT_TRUE(grads[0].Equals(grad_out));
  EXPECT_TRUE(grads[1].Equals(grad_out));
}

TEST(AddTest, RejectsShapeMismatch) {
  Add add("a", 2);
  Tensor x(Shape{2});
  Tensor y(Shape{3});
  ExecutionContext ctx = DetCtx();
  EXPECT_FALSE(add.Forward({&x, &y}, &ctx).ok());
}

TEST(ConcatTest, ConcatenatesChannels) {
  Concat concat("c", 2);
  Tensor x = Tensor::Full(Shape{1, 1, 2, 2}, 1.0f);
  Tensor y = Tensor::Full(Shape{1, 2, 2, 2}, 2.0f);
  ExecutionContext ctx = DetCtx();
  Tensor output = concat.Forward({&x, &y}, &ctx).value();
  EXPECT_EQ(output.shape(), (Shape{1, 3, 2, 2}));
  EXPECT_FLOAT_EQ(output.at(0), 1.0f);
  EXPECT_FLOAT_EQ(output.at(4), 2.0f);
}

TEST(ConcatTest, BackwardSplitsChannels) {
  Concat concat("c", 2);
  Tensor x = RandomTensor(Shape{2, 2, 3, 3}, 25);
  Tensor y = RandomTensor(Shape{2, 3, 3, 3}, 26);
  ExecutionContext ctx = DetCtx();
  Tensor output = concat.Forward({&x, &y}, &ctx).value();
  auto grads = concat.Backward({&x, &y}, output, &ctx).value();
  ASSERT_EQ(grads.size(), 2u);
  EXPECT_TRUE(grads[0].Equals(x));
  EXPECT_TRUE(grads[1].Equals(y));
}

TEST(ConcatTest, RejectsSpatialMismatch) {
  Concat concat("c", 2);
  Tensor x(Shape{1, 1, 2, 2});
  Tensor y(Shape{1, 1, 3, 3});
  ExecutionContext ctx = DetCtx();
  EXPECT_FALSE(concat.Forward({&x, &y}, &ctx).ok());
}

// --- Layer state serialization ---

TEST(LayerStateTest, SerializeDeserializeRoundtrip) {
  Rng rng(4);
  Conv2d conv("c", 2, 4, 3, 1, 1, 1, &rng);
  BytesWriter writer;
  conv.SerializeParams(&writer);

  Rng rng2(99);  // different init
  Conv2d other("c", 2, 4, 3, 1, 1, 1, &rng2);
  EXPECT_NE(other.ParamHash(), conv.ParamHash());
  BytesReader reader(writer.bytes());
  ASSERT_TRUE(other.DeserializeParams(&reader).ok());
  EXPECT_EQ(other.ParamHash(), conv.ParamHash());
}

TEST(LayerStateTest, DeserializeRejectsWrongShape) {
  Rng rng(4);
  Linear a("fc", 4, 4, &rng);
  Linear b("fc", 4, 5, &rng);
  BytesWriter writer;
  a.SerializeParams(&writer);
  BytesReader reader(writer.bytes());
  EXPECT_FALSE(b.DeserializeParams(&reader).ok());
}

/// One layer per case: the inputs its Forward runs on, grad_output shapes
/// that differ from that Forward's output, and which of its Backward checks
/// depend on state the Forward left behind.
struct BackwardCase {
  std::string name;
  std::function<std::unique_ptr<Layer>()> make;
  std::vector<Shape> inputs;
  std::vector<Shape> bad_grads;
  /// Backward fails until a Forward has run (plan or batch statistics).
  bool needs_forward;
  /// Backward rejects the inputs of a Forward that a later Forward on
  /// another batch size replaced (plan geometry, mask or argmax size).
  bool rejects_replaced_batch;
};

void PrintTo(const BackwardCase& c, std::ostream* os) { *os << c.name; }

std::vector<Tensor> CaseInputs(const std::vector<Shape>& shapes,
                               int64_t extra_batch) {
  std::vector<Tensor> inputs;
  for (size_t i = 0; i < shapes.size(); ++i) {
    std::vector<int64_t> dims = shapes[i].dims();
    dims[0] += extra_batch;
    inputs.push_back(RandomTensor(Shape(dims), 40 + i));
  }
  return inputs;
}

std::vector<const Tensor*> Pointers(const std::vector<Tensor>& tensors) {
  std::vector<const Tensor*> ptrs;
  for (const Tensor& t : tensors) {
    ptrs.push_back(&t);
  }
  return ptrs;
}

class LayerValidationTest : public ::testing::TestWithParam<BackwardCase> {};

TEST_P(LayerValidationTest, BackwardRejectsWrongGradShape) {
  const BackwardCase& c = GetParam();
  std::unique_ptr<Layer> layer = c.make();
  const std::vector<Tensor> inputs = CaseInputs(c.inputs, 0);
  ExecutionContext ctx = DetCtx();
  const Tensor output = layer->Forward(Pointers(inputs), &ctx).value();
  for (const Shape& bad : c.bad_grads) {
    EXPECT_EQ(
        layer->Backward(Pointers(inputs), Tensor(bad), &ctx).status().code(),
        StatusCode::kInvalidArgument)
        << bad.ToString();
  }
  EXPECT_TRUE(
      layer->Backward(Pointers(inputs), Tensor(output.shape()), &ctx).ok());
}

TEST_P(LayerValidationTest, BackwardBeforeForward) {
  const BackwardCase& c = GetParam();
  std::unique_ptr<Layer> layer = c.make();
  const std::vector<Tensor> inputs = CaseInputs(c.inputs, 0);
  ExecutionContext ctx = DetCtx();
  const Tensor output = c.make()->Forward(Pointers(inputs), &ctx).value();
  const Status status =
      layer->Backward(Pointers(inputs), Tensor(output.shape()), &ctx).status();
  if (c.needs_forward) {
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  } else {
    EXPECT_TRUE(status.ok()) << status.ToString();
  }
}

TEST_P(LayerValidationTest, BackwardChecksTheLastForward) {
  const BackwardCase& c = GetParam();
  std::unique_ptr<Layer> layer = c.make();
  const std::vector<Tensor> a = CaseInputs(c.inputs, 0);
  const std::vector<Tensor> b = CaseInputs(c.inputs, 1);
  ExecutionContext ctx = DetCtx();
  const Shape a_out = layer->Forward(Pointers(a), &ctx).value().shape();
  const Shape b_out = layer->Forward(Pointers(b), &ctx).value().shape();
  const Status stale =
      layer->Backward(Pointers(a), Tensor(a_out), &ctx).status();
  if (c.rejects_replaced_batch) {
    EXPECT_EQ(stale.code(), StatusCode::kInvalidArgument);
  } else {
    EXPECT_TRUE(stale.ok()) << stale.ToString();
  }
  EXPECT_TRUE(layer->Backward(Pointers(b), Tensor(b_out), &ctx).ok());
}

template <typename L, typename... Args>
std::function<std::unique_ptr<Layer>()> Make(Args... args) {
  return [=] { return std::unique_ptr<Layer>(std::make_unique<L>(args...)); };
}

template <typename L, typename... Args>
std::function<std::unique_ptr<Layer>()> MakeSeeded(uint64_t seed,
                                                   Args... args) {
  return [=] {
    Rng rng(seed);
    return std::unique_ptr<Layer>(std::make_unique<L>(args..., &rng));
  };
}

INSTANTIATE_TEST_SUITE_P(
    EveryLayer, LayerValidationTest,
    ::testing::Values(
        // Forward gives [2, 4, 8, 8]: each differing dimension is rejected.
        BackwardCase{"Conv2d", MakeSeeded<Conv2d>(6, "c", 2, 4, 3, 1, 1, 1),
                     {Shape{2, 2, 8, 8}},
                     {Shape{1, 4, 8, 8}, Shape{2, 3, 8, 8}, Shape{2, 4, 7, 8},
                      Shape{2, 4, 8, 9}},
                     true, true},
        BackwardCase{"Linear", MakeSeeded<Linear>(7, "fc", 4, 3),
                     {Shape{2, 4}}, {Shape{3, 3}, Shape{2, 4}}, true, true},
        BackwardCase{"BatchNorm2d", Make<BatchNorm2d>("bn", 3),
                     {Shape{2, 3, 4, 4}}, {Shape{1, 3, 4, 4}}, true, false},
        BackwardCase{"ReLU", Make<ReLU>("r"), {Shape{2, 3, 4, 4}},
                     {Shape{2, 3, 4, 3}}, false, false},
        BackwardCase{"Dropout", Make<Dropout>("d", 0.5f), {Shape{64}},
                     {Shape{128}}, false, true},
        BackwardCase{"MaxPool2d", Make<MaxPool2d>("p", 2, 2),
                     {Shape{1, 2, 4, 4}}, {Shape{1, 2, 4, 4}}, true, true},
        BackwardCase{"GlobalAvgPool", Make<GlobalAvgPool>("gap"),
                     {Shape{2, 3, 2, 2}}, {Shape{1, 3}}, false, false},
        BackwardCase{"Concat", Make<Concat>("cat", 2),
                     {Shape{2, 1, 2, 2}, Shape{2, 2, 2, 2}},
                     {Shape{1, 3, 2, 2}}, false, false},
        BackwardCase{"Add", Make<Add>("add", 2), {Shape{2, 3}, Shape{2, 3}},
                     {Shape{2, 4}}, false, false}),
    [](const ::testing::TestParamInfo<BackwardCase>& info) {
      return info.param.name;
    });

TEST(LayerStateTest, ParamHashIgnoresGradients) {
  Rng rng(5);
  Linear layer("fc", 3, 3, &rng);
  const Digest before = layer.ParamHash();
  layer.params()[0].grad.Fill(7.0f);
  EXPECT_EQ(layer.ParamHash(), before);
  layer.params()[0].value.at(0) += 1.0f;
  EXPECT_NE(layer.ParamHash(), before);
}

}  // namespace
}  // namespace mmlib::nn
