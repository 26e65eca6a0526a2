#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "models/zoo.h"
#include "nn/loss.h"
#include "nn/optimizer.h"
#include "util/thread_pool.h"

namespace mmlib::models {
namespace {

/// The headline fidelity check: at full scale, every architecture's
/// trainable parameter count and partially-updated parameter count match the
/// paper's Table 2 exactly.
class Table2Fidelity : public ::testing::TestWithParam<Table2Row> {};

TEST_P(Table2Fidelity, FullScaleParamCountsMatchPaper) {
  const Table2Row row = GetParam();
  const Architecture arch = ArchitectureFromName(row.name).value();
  auto model = BuildModel(FullScaleConfig(arch));
  ASSERT_TRUE(model.ok()) << model.status();
  EXPECT_EQ(model->TrainableParamCount(), row.params);
  EXPECT_EQ(ApplyPartialUpdateFreeze(&model.value()),
            row.partially_updated_params);
}

INSTANTIATE_TEST_SUITE_P(PaperTable2, Table2Fidelity,
                         ::testing::ValuesIn(Table2Reference()));

class ZooForward : public ::testing::TestWithParam<Architecture> {};

TEST_P(ZooForward, DefaultConfigForwardBackwardWork) {
  ModelConfig config = DefaultConfig(GetParam());
  // Keep the smoke test fast.
  config.channel_divisor = 8;
  config.image_size = 28;
  config.num_classes = 10;
  auto model = BuildModel(config);
  ASSERT_TRUE(model.ok()) << model.status();

  nn::ExecutionContext ctx = nn::ExecutionContext::Deterministic(1);
  ctx.set_training(true);
  Rng rng(2);
  Tensor input = Tensor::Gaussian(Shape{2, 3, 28, 28}, 1.0f, &rng);
  auto output = model->Forward(input, &ctx);
  ASSERT_TRUE(output.ok()) << output.status();
  EXPECT_EQ(output->shape(), (Shape{2, 10}));

  auto grad = model->Backward(Tensor::Full(output->shape(), 0.1f), &ctx);
  ASSERT_TRUE(grad.ok()) << grad.status();
  EXPECT_EQ(grad->shape(), input.shape());
}

TEST_P(ZooForward, InitializationIsSeedDeterministic) {
  ModelConfig config = DefaultConfig(GetParam());
  config.channel_divisor = 8;
  config.image_size = 28;
  auto a = BuildModel(config);
  auto b = BuildModel(config);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->ParamsHash(), b->ParamsHash());

  config.init_seed = 999;
  auto c = BuildModel(config);
  ASSERT_TRUE(c.ok());
  EXPECT_NE(a->ParamsHash(), c->ParamsHash());
}

TEST_P(ZooForward, BuildModelWithParamsRestoresSnapshot) {
  ModelConfig config = DefaultConfig(GetParam());
  config.channel_divisor = 8;
  auto source = BuildModel(config);
  ASSERT_TRUE(source.ok()) << source.status();
  // Shift every parameter and buffer, so the snapshot matches no fresh
  // initialization and zero weights could not pass for it either.
  Rng rng(41);
  for (size_t i = 0; i < source->node_count(); ++i) {
    for (nn::Param& p : source->layer(i)->params()) {
      for (int64_t j = 0; j < p.value.numel(); ++j) {
        p.value.data()[j] += rng.NextUniform(-0.5f, 0.5f);
      }
    }
  }

  auto restored = BuildModelWithParams(config, source->SerializeParams());
  ASSERT_TRUE(restored.ok()) << restored.status();
  EXPECT_EQ(restored->ParamsHash(), source->ParamsHash());
  EXPECT_EQ(restored->ArchitectureFingerprint(),
            source->ArchitectureFingerprint());
}

TEST_P(ZooForward, FingerprintStableAcrossInitSeeds) {
  ModelConfig config = DefaultConfig(GetParam());
  config.channel_divisor = 8;
  auto a = BuildModel(config);
  config.init_seed = 12345;
  auto b = BuildModel(config);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->ArchitectureFingerprint(), b->ArchitectureFingerprint());
}

INSTANTIATE_TEST_SUITE_P(
    AllArchitectures, ZooForward, ::testing::ValuesIn(AllArchitectures()),
    [](const ::testing::TestParamInfo<Architecture>& info) {
      std::string name(ArchitectureName(info.param));
      for (char& c : name) {
        if (c == '-') {
          c = '_';
        }
      }
      return name;
    });

TEST(ZooTest, ArchitectureNamesRoundtrip) {
  for (Architecture arch : AllArchitectures()) {
    EXPECT_EQ(ArchitectureFromName(ArchitectureName(arch)).value(), arch);
  }
  EXPECT_FALSE(ArchitectureFromName("VGG-16").ok());
}

TEST(ZooTest, FingerprintsDifferAcrossArchitectures) {
  std::vector<Digest> fingerprints;
  for (Architecture arch : AllArchitectures()) {
    ModelConfig config = DefaultConfig(arch);
    config.channel_divisor = 8;
    fingerprints.push_back(
        BuildModel(config)->ArchitectureFingerprint());
  }
  for (size_t i = 0; i < fingerprints.size(); ++i) {
    for (size_t j = i + 1; j < fingerprints.size(); ++j) {
      EXPECT_NE(fingerprints[i], fingerprints[j]);
    }
  }
}

/// ParamsHash of BuildModel(DefaultConfig(arch)) at channel divisor 8. The
/// initial weights are a pure function of init_seed and the layer order;
/// any change to the draw order or the init distributions shows up here.
TEST(ZooTest, InitialWeightsMatchGoldenHashes) {
  const std::pair<Architecture, std::string> kGolden[] = {
      {Architecture::kMobileNetV2,
       "0901089506b7fba224e92ac4547d6a23059aea4257318bffb93a7a325ac69401"},
      {Architecture::kGoogLeNet,
       "42dc00e2ee483d6fb2b3302dda448d9e0e3e53c1094dee200ec462eb56431599"},
      {Architecture::kResNet18,
       "34c33e867cf42f0a7526e3783c7478fd363c149fab5c0d6dce04e1f37ab1e83b"},
      {Architecture::kResNet50,
       "2e45c06d381f44b4a0fc6df7cafec9b681ab8659a5d935321eb3101559d44289"},
      {Architecture::kResNet152,
       "09b6b317c440cccc4d7c180206b07fffd65233d60b49df3ba4515d4ab86e9d4a"},
  };
  for (const auto& [arch, hex] : kGolden) {
    ModelConfig config = DefaultConfig(arch);
    config.channel_divisor = 8;
    auto model = BuildModel(config);
    ASSERT_TRUE(model.ok()) << model.status();
    EXPECT_EQ(model->ParamsHash().ToHex(), hex) << ArchitectureName(arch);
  }
}

/// ParamsHash after three deterministic SGD steps at channel divisor 8.
/// Every conv, BN, activation and pooling kernel feeds these values, so
/// any change to a deterministic reduction order shows up here; the hashes
/// must also hold at every pool size. The inputs carry exact zeros.
std::string TrainedParamsHash(Architecture arch, int64_t image_size,
                              size_t threads) {
  ModelConfig config = DefaultConfig(arch);
  config.channel_divisor = 8;
  config.image_size = image_size;
  config.num_classes = 10;
  auto model = BuildModel(config);
  EXPECT_TRUE(model.ok()) << model.status();
  util::ThreadPool pool(threads);
  nn::ExecutionContext ctx = nn::ExecutionContext::Deterministic(5);
  ctx.set_pool(&pool);
  ctx.set_training(true);
  nn::SgdOptimizer sgd(&model.value(), nn::SgdOptions{});
  Rng rng(17);
  for (int step = 0; step < 3; ++step) {
    Tensor input =
        Tensor::Gaussian(Shape{3, 3, image_size, image_size}, 1.0f, &rng);
    for (int64_t i = 0; i < input.numel(); ++i) {
      if (input.data()[i] < -0.5f) {
        input.data()[i] = 0.0f;
      }
    }
    const std::vector<int64_t> labels = {step % 10, (step + 3) % 10, 7};
    sgd.ZeroGrad();
    auto logits = model->Forward(input, &ctx);
    EXPECT_TRUE(logits.ok()) << logits.status();
    auto loss = nn::SoftmaxCrossEntropy(*logits, labels);
    EXPECT_TRUE(loss.ok()) << loss.status();
    auto grad = model->Backward(loss->grad_logits, &ctx);
    EXPECT_TRUE(grad.ok()) << grad.status();
    sgd.Step();
  }
  return model->ParamsHash().ToHex();
}

TEST(ZooTest, TrainingStepsMatchGoldenHashes) {
  struct Golden {
    Architecture arch;
    int64_t image_size;
    std::string hex;
  };
  const Golden kGolden[] = {
      {Architecture::kMobileNetV2, 28,
       "bc9412d40bc52e53a1b3897a57043435d0533fea30bbca6df00e55ad51432716"},
      {Architecture::kMobileNetV2, 33,
       "f89352b28f539a1325eb3a3a9f83a4d00b4dd8a8e56e243be0bc8d247df4ba64"},
      {Architecture::kGoogLeNet, 28,
       "9666ffb16fe343ea09a23cf51c0167c2eac54f985cbeb7ac80aa36f94b0414ba"},
      {Architecture::kGoogLeNet, 33,
       "082e6ceda33e0d5dc5268ed1d2737aec39320c6f6b07d2157b090ba041c4d62c"},
      {Architecture::kResNet18, 28,
       "561b2349a3137f7ede079fb1fb748ff03572038caee8a0e8b32a0b7b2bfc3480"},
      {Architecture::kResNet18, 33,
       "4b80f4fe1f0b4891cf0b5d7a661dcd937196cdc7178bd9b4a2bf43aaed9de327"},
      {Architecture::kResNet50, 28,
       "fa6b8da992a03d6d310689fb83db35f8ed5a6b5035eae1fdbaafd6fa79b41f62"},
      {Architecture::kResNet50, 33,
       "eeb3bd44ee7d6acb7d03be343f2ecb53dbfbf6a7211b9d874aa4b4795780e39c"},
      {Architecture::kResNet152, 28,
       "bc7dfac10273800594d5e9d8f61a74a23bf9c444b40fe2d2c5c4e46376a99a79"},
      {Architecture::kResNet152, 33,
       "25f942cd5ee9774b21effdfcc9a761900f34e3a7652e4b61de4e1a23d9cbf3cc"},
  };
  for (const Golden& g : kGolden) {
    for (size_t threads : {1, 3}) {
      EXPECT_EQ(TrainedParamsHash(g.arch, g.image_size, threads), g.hex)
          << ArchitectureName(g.arch) << " at " << g.image_size << " px, "
          << threads << " threads";
    }
  }
}

TEST(ZooTest, BuildModelWithParamsRejectsMismatchedSnapshots) {
  ModelConfig config = DefaultConfig(Architecture::kResNet18);
  config.channel_divisor = 8;
  const Bytes snapshot = BuildModel(config)->SerializeParams();

  ModelConfig resnet50 = config;
  resnet50.arch = Architecture::kResNet50;
  auto wrong_arch = BuildModelWithParams(resnet50, snapshot);
  ASSERT_FALSE(wrong_arch.ok());
  EXPECT_EQ(wrong_arch.status().code(), StatusCode::kCorruption);

  const Bytes truncated(snapshot.begin(),
                        snapshot.begin() + snapshot.size() / 2);
  auto short_read = BuildModelWithParams(config, truncated);
  ASSERT_FALSE(short_read.ok());
  EXPECT_EQ(short_read.status().code(), StatusCode::kCorruption);
}

TEST(ZooTest, DivisorScalesParameterCount) {
  ModelConfig config = DefaultConfig(Architecture::kResNet18);
  config.channel_divisor = 4;
  const int64_t at4 = BuildModel(config)->TrainableParamCount();
  config.channel_divisor = 8;
  config.num_classes = 125;
  const int64_t at8 = BuildModel(config)->TrainableParamCount();
  // Parameters scale roughly quadratically with channel width.
  EXPECT_GT(at4, 3 * at8);
  EXPECT_LT(at4, 6 * at8);
}

TEST(ZooTest, Table2SizeColumnIsParamsTimesFourBytes) {
  // The paper's "Size" column is the serialized parameter payload; verify
  // our models' payload is close (buffers add a small overhead).
  for (const Table2Row& row : Table2Reference()) {
    const double expected_mb = row.params * 4.0 / 1e6;
    EXPECT_NEAR(expected_mb, row.size_mb, row.size_mb * 0.05) << row.name;
  }
}

TEST(ZooTest, PartialFreezeKeepsOnlyClassifierTrainable) {
  ModelConfig config = DefaultConfig(Architecture::kMobileNetV2);
  config.channel_divisor = 8;
  config.num_classes = 125;
  auto model = BuildModel(config);
  ASSERT_TRUE(model.ok());
  ApplyPartialUpdateFreeze(&model.value());
  for (size_t i = 0; i < model->node_count(); ++i) {
    const nn::Layer* layer = model->layer(i);
    if (layer->HasTrainableParams()) {
      EXPECT_TRUE(IsClassifierLayer(*layer)) << layer->name();
    }
  }
  // MobileNetV2 head: 1280/8 * 125 + 125.
  EXPECT_EQ(model->TrainableParamCount(), 160 * 125 + 125);
}

TEST(ZooTest, PaperOrderIsByParameterCount) {
  // Table 2 lists architectures from fewest to most parameters.
  const auto& rows = Table2Reference();
  for (size_t i = 1; i < rows.size(); ++i) {
    EXPECT_LT(rows[i - 1].params, rows[i].params);
  }
}

}  // namespace
}  // namespace mmlib::models
