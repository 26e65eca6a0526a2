#include "audit/determinism_auditor.h"

#include <gtest/gtest.h>

#include <memory>

#include "core/train_service.h"
#include "models/zoo.h"
#include "nn/activations.h"
#include "nn/linear.h"
#include "nn/model.h"
#include "util/random.h"

namespace mmlib::audit {
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

// Runs one forward+backward under `auditor` with a deterministic context.
Status RunOnce(nn::Model* model, DeterminismAuditor* auditor,
               const Tensor& input, uint64_t seed = 3) {
  nn::ExecutionContext ctx = nn::ExecutionContext::Deterministic(seed);
  ctx.set_training(true);
  model->ZeroGrad();
  model->set_observer(auditor);
  auditor->BeginRun();
  auto run = [&]() -> Status {
    MMLIB_ASSIGN_OR_RETURN(Tensor output, model->Forward(input, &ctx));
    Tensor grad = Tensor::Full(output.shape(), 1.0f);
    return model->Backward(grad, &ctx).status();
  };
  const Status status = run();
  model->set_observer(nullptr);
  if (!status.ok()) {
    return status;
  }
  return auditor->EndRun();
}

TEST(DeterminismAuditorTest, IdenticalRunsPass) {
  nn::Model model = SmallMlp();
  const Tensor input = SmallInput();
  DeterminismAuditor auditor;
  ASSERT_TRUE(RunOnce(&model, &auditor, input).ok());
  ASSERT_TRUE(RunOnce(&model, &auditor, input).ok());
  ASSERT_TRUE(RunOnce(&model, &auditor, input).ok());
  EXPECT_EQ(auditor.completed_runs(), 3u);
  EXPECT_FALSE(auditor.first_divergence().has_value());
  // 3 layers, forward + backward events per run.
  EXPECT_EQ(auditor.reference_trace().size(), 6u);
}

TEST(DeterminismAuditorTest, CorruptedLayerOutputIsDetectedAtThatLayer) {
  nn::Model model = SmallMlp();
  const Tensor input = SmallInput();
  DeterminismAuditor auditor;
  ASSERT_TRUE(RunOnce(&model, &auditor, input).ok());

  // Corrupt a single bias element of fc2 (the bias always reaches the
  // output; a weight element can be masked by an upstream ReLU zero): every
  // layer before fc2 still reproduces, fc2's forward output does not.
  const size_t fc2 = model.FindLayerIndex("fc2").value();
  model.layer(fc2)->params()[1].value.at(0) += 1e-3f;

  const Status status = RunOnce(&model, &auditor, input);
  ASSERT_EQ(status.code(), StatusCode::kCorruption);
  ASSERT_TRUE(auditor.first_divergence().has_value());
  const AuditDivergence& divergence = *auditor.first_divergence();
  EXPECT_EQ(divergence.layer_name, "fc2");
  EXPECT_EQ(divergence.pass, AuditEvent::Pass::kForward);
  EXPECT_EQ(divergence.run, 1u);
  // fc1 and relu1 forward events came first and matched.
  EXPECT_EQ(divergence.position, 2u);
  EXPECT_NE(status.message().find("fc2"), std::string::npos);
}

TEST(DeterminismAuditorTest, AuditDeterminismHelperPassesOnCleanModel) {
  nn::Model model = SmallMlp();
  EXPECT_TRUE(AuditDeterminism(&model, SmallInput(), /*seed=*/11,
                               /*runs=*/3)
                  .ok());
  EXPECT_FALSE(AuditDeterminism(&model, SmallInput(), 11, /*runs=*/0).ok());
}

TEST(DeterminismAuditorTest, ReferenceRootIsAStableFingerprint) {
  nn::Model a = SmallMlp();
  nn::Model b = SmallMlp();
  const Tensor input = SmallInput();
  DeterminismAuditor audit_a;
  DeterminismAuditor audit_b;
  ASSERT_TRUE(RunOnce(&a, &audit_a, input).ok());
  ASSERT_TRUE(RunOnce(&b, &audit_b, input).ok());
  // Identically seeded models on identical input: same Merkle root.
  EXPECT_EQ(audit_a.ReferenceRoot().value(), audit_b.ReferenceRoot().value());

  nn::Model c = SmallMlp(/*seed=*/10);
  DeterminismAuditor audit_c;
  ASSERT_TRUE(RunOnce(&c, &audit_c, input).ok());
  EXPECT_NE(audit_a.ReferenceRoot().value(), audit_c.ReferenceRoot().value());

  DeterminismAuditor empty;
  EXPECT_FALSE(empty.ReferenceRoot().ok());
}

TEST(DeterminismAuditorTest, ResetStartsANewReference) {
  nn::Model model = SmallMlp();
  const Tensor input = SmallInput();
  DeterminismAuditor auditor;
  ASSERT_TRUE(RunOnce(&model, &auditor, input).ok());
  const size_t fc1 = model.FindLayerIndex("fc1").value();
  model.layer(fc1)->params()[0].value.at(3) += 1e-5f;
  ASSERT_FALSE(RunOnce(&model, &auditor, input).ok());

  auditor.Reset();
  EXPECT_EQ(auditor.completed_runs(), 0u);
  // After Reset the perturbed model defines the new reference and passes.
  ASSERT_TRUE(RunOnce(&model, &auditor, input).ok());
  ASSERT_TRUE(RunOnce(&model, &auditor, input).ok());
}

TEST(DeterminismAuditorDeathTest, FatalModeAbortsOnDivergence) {
  // The runs below start the process-wide pool's worker threads. A plain
  // fork() can copy a pool mutex that a worker holds at that instant, and
  // the child then blocks on it; the threadsafe style re-executes the
  // binary for the death statement instead.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  nn::Model model = SmallMlp();
  const Tensor input = SmallInput();
  DeterminismAuditOptions options;
  options.fatal = true;
  DeterminismAuditor auditor(options);
  ASSERT_TRUE(RunOnce(&model, &auditor, input).ok());
  const size_t fc1 = model.FindLayerIndex("fc1").value();
  model.layer(fc1)->params()[0].value.at(0) += 1e-5f;
  EXPECT_DEATH((void)RunOnce(&model, &auditor, input),
               "determinism audit.*fc1");
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
  }
}

}  // namespace
}  // namespace mmlib::audit
