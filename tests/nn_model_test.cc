#include <gtest/gtest.h>

#include <memory>

#include "nn/activations.h"
#include "nn/conv2d.h"
#include "nn/linear.h"
#include "nn/model.h"
#include "nn/pooling.h"

namespace mmlib::nn {
namespace {

ExecutionContext DetCtx(uint64_t seed = 1) {
  ExecutionContext ctx = ExecutionContext::Deterministic(seed);
  ctx.set_training(true);
  return ctx;
}

/// Small residual test network: conv -> relu -> (conv + shortcut) -> gap ->
/// fc. Exercises branching, Add, and multi-consumer gradients.
Model MakeResidualNet(uint64_t seed = 7) {
  Model model("test-net");
  Rng rng(seed);
  int64_t stem = model.AddNode(
      std::make_unique<Conv2d>("stem", 3, 4, 3, 1, 1, 1, &rng),
      {Model::kInputNode});
  int64_t relu = model.AddNode(std::make_unique<ReLU>("relu1"), {stem});
  int64_t conv = model.AddNode(
      std::make_unique<Conv2d>("conv2", 4, 4, 3, 1, 1, 1, &rng), {relu});
  int64_t add =
      model.AddNode(std::make_unique<Add>("add", 2), {conv, relu});
  int64_t gap = model.AddNode(std::make_unique<GlobalAvgPool>("gap"), {add});
  model.AddNode(std::make_unique<Linear>("fc", 4, 5, &rng), {gap});
  return model;
}

TEST(ModelTest, ForwardProducesLogits) {
  Model model = MakeResidualNet();
  ExecutionContext ctx = DetCtx();
  Rng rng(1);
  Tensor input = Tensor::Gaussian(Shape{2, 3, 6, 6}, 1.0f, &rng);
  Tensor output = model.Forward(input, &ctx).value();
  EXPECT_EQ(output.shape(), (Shape{2, 5}));
}

TEST(ModelTest, EmptyModelFailsForward) {
  Model model("empty");
  ExecutionContext ctx = DetCtx();
  Tensor input(Shape{1, 3, 4, 4});
  EXPECT_EQ(model.Forward(input, &ctx).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(ModelTest, BackwardBeforeForwardFails) {
  Model model = MakeResidualNet();
  ExecutionContext ctx = DetCtx();
  Tensor grad(Shape{2, 5});
  EXPECT_EQ(model.Backward(grad, &ctx).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(ModelTest, BackwardAccumulatesMultiConsumerGradients) {
  // The relu1 output feeds both conv2 and the Add shortcut; its gradient
  // must accumulate from both paths. Check against finite differences of a
  // scalar objective through the whole model.
  Model model = MakeResidualNet();
  ExecutionContext ctx = DetCtx();
  Rng rng(2);
  Tensor input = Tensor::Gaussian(Shape{1, 3, 5, 5}, 1.0f, &rng);
  Tensor direction = Tensor::Gaussian(Shape{1, 5}, 1.0f, &rng);

  auto objective = [&](const Tensor& in) {
    ExecutionContext local = DetCtx();
    Tensor out = model.Forward(in, &local).value();
    double loss = 0;
    for (int64_t i = 0; i < out.numel(); ++i) {
      loss += static_cast<double>(out.at(i)) * direction.at(i);
    }
    return loss;
  };

  model.ZeroGrad();
  model.Forward(input, &ctx).value();
  Tensor input_grad = model.Backward(direction, &ctx).value();

  const float eps = 1e-2f;
  for (int64_t i = 0; i < input.numel(); i += 13) {
    Tensor perturbed = input;
    perturbed.at(i) += eps;
    const double plus = objective(perturbed);
    perturbed.at(i) -= 2 * eps;
    const double minus = objective(perturbed);
    const float numeric = static_cast<float>((plus - minus) / (2 * eps));
    EXPECT_NEAR(input_grad.at(i), numeric, 2e-2f * (1 + std::abs(numeric)));
  }
}

TEST(ModelTest, ParamCountsSumOverLayers) {
  Model model = MakeResidualNet();
  // stem: 4*3*9=108, conv2: 4*4*9=144, fc: 4*5+5=25.
  EXPECT_EQ(model.TrainableParamCount(), 108 + 144 + 25);
  EXPECT_EQ(model.TotalParamCount(), model.TrainableParamCount());
  EXPECT_EQ(model.ParamByteSize(), (108 + 144 + 25) * sizeof(float));
}

TEST(ModelTest, SetTrainableWhere) {
  Model model = MakeResidualNet();
  const size_t trainable = model.SetTrainableWhere(
      [](const Layer& layer) { return layer.name() == "fc"; });
  EXPECT_EQ(trainable, 1u);
  EXPECT_EQ(model.TrainableParamCount(), 25);
  model.SetTrainableAll(true);
  EXPECT_EQ(model.TrainableParamCount(), 108 + 144 + 25);
}

TEST(ModelTest, SerializeLoadRoundtrip) {
  Model a = MakeResidualNet(1);
  Model b = MakeResidualNet(2);
  EXPECT_NE(a.ParamsHash(), b.ParamsHash());
  ASSERT_TRUE(b.LoadParams(a.SerializeParams()).ok());
  EXPECT_EQ(a.ParamsHash(), b.ParamsHash());
}

TEST(ModelTest, SerializedPayloadsAreAllocatedAtTheirExactSize) {
  // Serialization reserves the size it computes from the shapes, so each
  // payload is one allocation: a size off either way would leave spare
  // capacity behind (too large, or a regrowth when too small).
  const Model model = MakeResidualNet();
  const Bytes params = model.SerializeParams();
  EXPECT_EQ(params.capacity(), params.size());
  const Bytes subset =
      model.SerializeLayerSubset({0, model.FindLayerIndex("fc").value()});
  EXPECT_EQ(subset.capacity(), subset.size());
}

TEST(ModelTest, LoadRejectsWrongLayerCount) {
  Model a = MakeResidualNet();
  Model small("small");
  Rng rng(3);
  small.AddSequential(std::make_unique<Linear>("fc", 2, 2, &rng));
  EXPECT_FALSE(small.LoadParams(a.SerializeParams()).ok());
}

TEST(ModelTest, LayerSubsetMerge) {
  Model a = MakeResidualNet(1);
  Model b = MakeResidualNet(2);
  // Transfer only the fc layer from a to b.
  const size_t fc_index = a.FindLayerIndex("fc").value();
  Bytes subset = a.SerializeLayerSubset({fc_index});
  ASSERT_TRUE(b.MergeLayerSubset(subset).ok());
  EXPECT_EQ(b.layer(fc_index)->ParamHash(), a.layer(fc_index)->ParamHash());
  // Other layers remain b's.
  const size_t stem = a.FindLayerIndex("stem").value();
  EXPECT_NE(b.layer(stem)->ParamHash(), a.layer(stem)->ParamHash());
}

TEST(ModelTest, MergeUnknownLayerFails) {
  Model a = MakeResidualNet(1);
  BytesWriter writer;
  writer.WriteU64(1);
  writer.WriteString("nonexistent");
  EXPECT_FALSE(a.MergeLayerSubset(writer.bytes()).ok());
}

TEST(ModelTest, LayerHashesTrackChanges) {
  Model model = MakeResidualNet();
  auto before = model.LayerHashes();
  ASSERT_EQ(before.size(), model.node_count());
  // Perturb only the fc weights.
  const size_t fc = model.FindLayerIndex("fc").value();
  model.layer(fc)->params()[0].value.at(0) += 1.0f;
  auto after = model.LayerHashes();
  for (size_t i = 0; i < before.size(); ++i) {
    if (i == fc) {
      EXPECT_NE(after[i].digest, before[i].digest);
    } else {
      EXPECT_EQ(after[i].digest, before[i].digest);
    }
  }
}

TEST(ModelTest, MerkleTreeMatchesLayerHashes) {
  Model model = MakeResidualNet();
  auto tree = model.BuildMerkleTree().value();
  auto hashes = model.LayerHashes();
  EXPECT_EQ(tree.leaf_count(), hashes.size());
  for (size_t i = 0; i < hashes.size(); ++i) {
    EXPECT_EQ(tree.leaf(i), hashes[i].digest);
  }
}

TEST(ModelTest, ArchitectureFingerprintIgnoresParamValues) {
  Model a = MakeResidualNet(1);
  Model b = MakeResidualNet(2);
  EXPECT_EQ(a.ArchitectureFingerprint(), b.ArchitectureFingerprint());
}

TEST(ModelTest, ArchitectureFingerprintSeesStructure) {
  Model a = MakeResidualNet();
  Model different("test-net");
  Rng rng(7);
  different.AddSequential(
      std::make_unique<Conv2d>("stem", 3, 4, 3, 1, 1, 1, &rng));
  EXPECT_NE(a.ArchitectureFingerprint(), different.ArchitectureFingerprint());
}

TEST(ModelTest, ObserverSeesEveryLayerInOrder) {
  class CountingObserver : public ActivationObserver {
   public:
    std::vector<std::string> forward_layers;
    std::vector<std::string> backward_layers;
    void OnForward(const std::string& name, const Tensor&) override {
      forward_layers.push_back(name);
    }
    void OnBackward(const std::string& name, const Tensor&) override {
      backward_layers.push_back(name);
    }
  };
  Model model = MakeResidualNet();
  CountingObserver observer;
  model.set_observer(&observer);
  ExecutionContext ctx = DetCtx();
  Rng rng(4);
  Tensor input = Tensor::Gaussian(Shape{1, 3, 5, 5}, 1.0f, &rng);
  Tensor output = model.Forward(input, &ctx).value();
  model.Backward(Tensor(output.shape()), &ctx).value();
  model.set_observer(nullptr);

  ASSERT_EQ(observer.forward_layers.size(), model.node_count());
  EXPECT_EQ(observer.forward_layers.front(), "stem");
  EXPECT_EQ(observer.forward_layers.back(), "fc");
  EXPECT_EQ(observer.backward_layers.size(), model.node_count());
  EXPECT_EQ(observer.backward_layers.front(), "fc");
}

TEST(ModelTest, ZeroGradClearsAllGradients) {
  Model model = MakeResidualNet();
  ExecutionContext ctx = DetCtx();
  Rng rng(5);
  Tensor input = Tensor::Gaussian(Shape{1, 3, 5, 5}, 1.0f, &rng);
  Tensor output = model.Forward(input, &ctx).value();
  model.Backward(Tensor::Full(output.shape(), 1.0f), &ctx).value();
  model.ZeroGrad();
  for (size_t i = 0; i < model.node_count(); ++i) {
    for (const Param& p : model.layer(i)->params()) {
      for (int64_t k = 0; k < p.grad.numel(); ++k) {
        ASSERT_EQ(p.grad.at(k), 0.0f);
      }
    }
  }
}

TEST(ModelTest, FindLayerIndex) {
  Model model = MakeResidualNet();
  EXPECT_TRUE(model.FindLayerIndex("conv2").ok());
  EXPECT_EQ(model.FindLayerIndex("nope").status().code(),
            StatusCode::kNotFound);
}

}  // namespace
}  // namespace mmlib::nn
