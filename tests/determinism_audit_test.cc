#include <gtest/gtest.h>

#include <memory>

#include "core/probe.h"
#include "core/train_service.h"
#include "models/zoo.h"
#include "nn/activations.h"
#include "nn/linear.h"
#include "nn/model.h"
#include "util/random.h"

namespace mmlib::core {
namespace {

nn::Model SmallMlp(uint64_t seed = 9) {
  Rng rng(seed);
  nn::Model model("audit-mlp");
  model.AddSequential(std::make_unique<nn::Linear>("fc1", 8, 16, &rng));
  model.AddSequential(std::make_unique<nn::ReLU>("relu1"));
  model.AddSequential(std::make_unique<nn::Linear>("fc2", 16, 4, &rng));
  return model;
}

Tensor SmallInput(uint64_t seed = 5) {
  Rng rng(seed);
  return Tensor::Uniform(Shape{2, 8}, -1.0f, 1.0f, &rng);
}

data::Batch SmallBatch() { return data::Batch{SmallInput(), {0, 3}}; }

// Probes one forward+backward of `model` with a deterministic context.
LayerTrace TraceOnce(nn::Model* model, uint64_t seed = 3) {
  nn::ExecutionContext ctx = nn::ExecutionContext::Deterministic(seed);
  ctx.set_training(true);
  auto trace = ProbeModel(model, SmallBatch(), &ctx);
  EXPECT_TRUE(trace.ok()) << trace.status();
  return trace.ok() ? std::move(trace).value() : LayerTrace{};
}

TEST(DeterminismAuditTest, IdenticalRunsPass) {
  nn::Model model = SmallMlp();
  const LayerTrace reference = TraceOnce(&model);
  // 3 layers, forward + backward events per run.
  EXPECT_EQ(reference.events.size(), 6u);
  for (int run = 1; run < 3; ++run) {
    const TraceComparison comparison =
        CompareTraces(reference, TraceOnce(&model));
    EXPECT_TRUE(comparison.equal) << comparison.FirstDivergence();
  }
}

TEST(DeterminismAuditTest, CorruptedLayerOutputIsDetectedAtThatLayer) {
  nn::Model model = SmallMlp();
  const LayerTrace reference = TraceOnce(&model);

  // Corrupt a single bias element of fc2 (the bias always reaches the
  // output; a weight element can be masked by an upstream ReLU zero): every
  // layer before fc2 still reproduces, fc2's forward output does not.
  const size_t fc2 = model.FindLayerIndex("fc2").value();
  model.layer(fc2)->params()[1].value.at(0) += 1e-3f;

  const TraceComparison comparison =
      CompareTraces(reference, TraceOnce(&model));
  ASSERT_FALSE(comparison.equal);
  ASSERT_FALSE(comparison.mismatches.empty());
  const TraceMismatch& divergence = comparison.mismatches.front();
  EXPECT_EQ(divergence.layer_name, "fc2");
  EXPECT_EQ(divergence.pass, TraceEvent::Pass::kForward);
  // fc1 and relu1 forward events came first and matched.
  EXPECT_EQ(divergence.index, 2u);
  EXPECT_NE(comparison.FirstDivergence().find("forward event #2 (fc2)"),
            std::string::npos)
      << comparison.FirstDivergence();
}

TEST(DeterminismAuditTest, CheckReproducibilityPassesOnCleanModel) {
  nn::Model model = SmallMlp();
  auto comparison = CheckReproducibility(&model, SmallBatch(),
                                         /*deterministic=*/true, /*seed=*/11);
  ASSERT_TRUE(comparison.ok()) << comparison.status();
  EXPECT_TRUE(comparison->equal) << comparison->FirstDivergence();
}

TEST(DeterminismAuditTest, TraceRootIsAStableFingerprint) {
  nn::Model a = SmallMlp();
  nn::Model b = SmallMlp();
  // Identically seeded models on identical input: same Merkle root.
  EXPECT_EQ(TraceOnce(&a).Root().value(), TraceOnce(&b).Root().value());

  nn::Model c = SmallMlp(/*seed=*/10);
  EXPECT_NE(TraceOnce(&a).Root().value(), TraceOnce(&c).Root().value());

  EXPECT_FALSE(LayerTrace{}.Root().ok());
}

// End-to-end: a deterministic training run traced layer by layer is
// reproducible (Fig. 13), and a replay from a corrupted starting state
// diverges at the first layer.
TEST(DeterminismAuditTest, TrainingReplayTraceDetectsCorruption) {
  core::TrainConfig config;
  config.epochs = 1;
  config.max_batches_per_epoch = 2;
  config.seed = 77;
  config.loader.batch_size = 4;
  config.loader.image_size = 28;
  config.loader.num_classes = 10;
  config.loader.seed = 77;
  data::SyntheticImageDataset dataset(data::PaperDatasetId::kCocoOutdoor512,
                                      4096);

  models::ModelConfig model_config =
      models::DefaultConfig(models::Architecture::kMobileNetV2);
  model_config.channel_divisor = 8;
  model_config.image_size = 28;
  model_config.num_classes = 10;
  model_config.init_seed = 1;

  // Trains `model` deterministically with a fresh service and returns the
  // trace of every step's forward and backward pass.
  auto train_traced = [&](nn::Model* model) {
    LayerTrace trace;
    core::ImageTrainService service(&dataset, config);
    {
      TraceRecorder recorder(model, &trace);
      auto times = service.Train(model, /*deterministic=*/true, 0);
      EXPECT_TRUE(times.ok()) << times.status();
    }
    trace.loss = service.last_loss();
    return trace;
  };

  nn::Model reference_model = models::BuildModel(model_config).value();
  const Bytes initial_params = reference_model.SerializeParams();
  const LayerTrace reference = train_traced(&reference_model);
  ASSERT_FALSE(reference.events.empty());

  // A faithful replay from the same initial parameters matches the trace.
  {
    nn::Model replay = models::BuildModel(model_config).value();
    ASSERT_TRUE(replay.LoadParams(initial_params).ok());
    const TraceComparison comparison =
        CompareTraces(reference, train_traced(&replay));
    EXPECT_TRUE(comparison.equal) << comparison.FirstDivergence();
  }

  // A replay whose starting state was corrupted by one element diverges,
  // and the first layer's output is the first event to differ.
  {
    nn::Model corrupted = models::BuildModel(model_config).value();
    ASSERT_TRUE(corrupted.LoadParams(initial_params).ok());
    corrupted.layer(0)->params()[0].value.at(0) += 1e-4f;
    const TraceComparison comparison =
        CompareTraces(reference, train_traced(&corrupted));
    ASSERT_FALSE(comparison.equal);
    EXPECT_NE(comparison.FirstDivergence().find(
                  "forward event #0 (" + corrupted.layer(0)->name() + ")"),
              std::string::npos)
        << comparison.FirstDivergence();
  }
}

}  // namespace
}  // namespace mmlib::core
