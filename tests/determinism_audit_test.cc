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

TEST(DeterminismAuditorTest, IdenticalRunsPass) {
  nn::Model model = SmallMlp();
  DeterminismAuditor auditor;
  ASSERT_TRUE(auditor.Check(TraceOnce(&model)).ok());
  ASSERT_TRUE(auditor.Check(TraceOnce(&model)).ok());
  ASSERT_TRUE(auditor.Check(TraceOnce(&model)).ok());
  EXPECT_EQ(auditor.completed_runs(), 3u);
  // 3 layers, forward + backward events per run.
  EXPECT_EQ(auditor.reference().events.size(), 6u);
}

TEST(DeterminismAuditorTest, CorruptedLayerOutputIsDetectedAtThatLayer) {
  nn::Model model = SmallMlp();
  DeterminismAuditor auditor;
  ASSERT_TRUE(auditor.Check(TraceOnce(&model)).ok());

  // Corrupt a single bias element of fc2 (the bias always reaches the
  // output; a weight element can be masked by an upstream ReLU zero): every
  // layer before fc2 still reproduces, fc2's forward output does not.
  const size_t fc2 = model.FindLayerIndex("fc2").value();
  model.layer(fc2)->params()[1].value.at(0) += 1e-3f;

  const LayerTrace trace = TraceOnce(&model);
  const Status status = auditor.Check(trace);
  ASSERT_EQ(status.code(), StatusCode::kCorruption);
  const TraceComparison comparison = CompareTraces(auditor.reference(), trace);
  ASSERT_FALSE(comparison.mismatches.empty());
  const TraceMismatch& divergence = comparison.mismatches.front();
  EXPECT_EQ(divergence.layer_name, "fc2");
  EXPECT_EQ(divergence.pass, TraceEvent::Pass::kForward);
  // fc1 and relu1 forward events came first and matched.
  EXPECT_EQ(divergence.index, 2u);
  EXPECT_NE(status.message().find("run 1: forward event #2 (fc2)"),
            std::string::npos)
      << status.message();
}

TEST(DeterminismAuditorTest, CheckReproducibilityPassesOnCleanModel) {
  nn::Model model = SmallMlp();
  auto comparison = CheckReproducibility(&model, SmallBatch(),
                                         /*deterministic=*/true, /*seed=*/11);
  ASSERT_TRUE(comparison.ok()) << comparison.status();
  EXPECT_TRUE(comparison->equal) << comparison->FirstDivergence();
}

TEST(DeterminismAuditorTest, ReferenceRootIsAStableFingerprint) {
  nn::Model a = SmallMlp();
  nn::Model b = SmallMlp();
  DeterminismAuditor audit_a;
  DeterminismAuditor audit_b;
  ASSERT_TRUE(audit_a.Check(TraceOnce(&a)).ok());
  ASSERT_TRUE(audit_b.Check(TraceOnce(&b)).ok());
  // Identically seeded models on identical input: same Merkle root.
  EXPECT_EQ(audit_a.reference().Root().value(),
            audit_b.reference().Root().value());

  nn::Model c = SmallMlp(/*seed=*/10);
  DeterminismAuditor audit_c;
  ASSERT_TRUE(audit_c.Check(TraceOnce(&c)).ok());
  EXPECT_NE(audit_a.reference().Root().value(),
            audit_c.reference().Root().value());

  DeterminismAuditor empty;
  EXPECT_FALSE(empty.reference().Root().ok());
}

// End-to-end wiring: an audited deterministic training run is reproducible
// (Fig. 13), and a corrupted replay is rejected at Train() time.
TEST(DeterminismAuditorTest, AuditedTrainingReplayDetectsCorruption) {
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

  nn::Model reference_model = models::BuildModel(model_config).value();
  const Bytes initial_params = reference_model.SerializeParams();

  DeterminismAuditor auditor;
  {
    core::ImageTrainService service(&dataset, config);
    service.set_determinism_auditor(&auditor);
    ASSERT_TRUE(
        service.Train(&reference_model, /*deterministic=*/true, 0).ok());
  }
  ASSERT_EQ(auditor.completed_runs(), 1u);

  // A faithful replay from the same initial parameters matches the trace.
  {
    nn::Model replay = models::BuildModel(model_config).value();
    ASSERT_TRUE(replay.LoadParams(initial_params).ok());
    core::ImageTrainService service(&dataset, config);
    service.set_determinism_auditor(&auditor);
    auto times = service.Train(&replay, /*deterministic=*/true, 0);
    EXPECT_TRUE(times.ok()) << times.status();
  }

  // A replay whose starting state was corrupted by one element fails with
  // Corruption out of Train() itself.
  {
    nn::Model corrupted = models::BuildModel(model_config).value();
    ASSERT_TRUE(corrupted.LoadParams(initial_params).ok());
    corrupted.layer(0)->params()[0].value.at(0) += 1e-4f;
    core::ImageTrainService service(&dataset, config);
    service.set_determinism_auditor(&auditor);
    auto times = service.Train(&corrupted, /*deterministic=*/true, 0);
    ASSERT_FALSE(times.ok());
    EXPECT_EQ(times.status().code(), StatusCode::kCorruption);
    // The first layer's output is the first event to diverge.
    EXPECT_NE(times.status().message().find(
                  "forward event #0 (" + corrupted.layer(0)->name() + ")"),
              std::string::npos)
        << times.status();
  }
}

}  // namespace
}  // namespace mmlib::core
