#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "core/probe.h"
#include "data/dataloader.h"
#include "models/zoo.h"

namespace mmlib::core {
namespace {

class ProbeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    models::ModelConfig config =
        models::DefaultConfig(models::Architecture::kResNet18);
    config.channel_divisor = 8;
    config.image_size = 28;
    config.num_classes = 10;
    auto model = models::BuildModel(config);
    ASSERT_TRUE(model.ok());
    model_ = std::make_unique<nn::Model>(std::move(model).value());

    dataset_ = std::make_unique<data::SyntheticImageDataset>(
        data::PaperDatasetId::kCocoOutdoor512, 4096);
    data::DataLoaderOptions options;
    options.batch_size = 4;
    options.image_size = 28;
    options.num_classes = 10;
    data::DataLoader loader(dataset_.get(), options);
    batch_ = loader.GetBatch(0).value();
  }

  std::unique_ptr<nn::Model> model_;
  std::unique_ptr<data::SyntheticImageDataset> dataset_;
  data::Batch batch_;
};

TEST_F(ProbeTest, RecordsEveryLayerInBothPasses) {
  nn::ExecutionContext ctx = nn::ExecutionContext::Deterministic(1);
  auto trace = ProbeModel(model_.get(), batch_, &ctx).value();
  auto count = [&](TraceEvent::Pass pass) {
    return static_cast<size_t>(std::count_if(
        trace.events.begin(), trace.events.end(),
        [&](const TraceEvent& event) { return event.pass == pass; }));
  };
  EXPECT_EQ(count(TraceEvent::Pass::kForward), model_->node_count());
  EXPECT_EQ(count(TraceEvent::Pass::kBackward), model_->node_count());
  // Execution order: every forward event precedes every backward event.
  EXPECT_EQ(trace.events[model_->node_count() - 1].pass,
            TraceEvent::Pass::kForward);
  EXPECT_EQ(trace.events[model_->node_count()].pass,
            TraceEvent::Pass::kBackward);
  EXPECT_GT(trace.loss, 0.0f);
}

TEST_F(ProbeTest, DeterministicExecutionIsReproducible) {
  // Paper Section 2.4: executing the model twice on the same data and
  // comparing layer-wise must show no divergence in deterministic mode.
  auto comparison =
      CheckReproducibility(model_.get(), batch_, /*deterministic=*/true, 5)
          .value();
  EXPECT_TRUE(comparison.equal) << comparison.FirstDivergence();
}

TEST_F(ProbeTest, NonDeterministicExecutionDiverges) {
  auto comparison =
      CheckReproducibility(model_.get(), batch_, /*deterministic=*/false, 5)
          .value();
  EXPECT_FALSE(comparison.equal);
  EXPECT_FALSE(comparison.mismatches.empty());
  // The mismatch report names a concrete layer.
  EXPECT_FALSE(comparison.mismatches[0].layer_name.empty());
}

TEST_F(ProbeTest, RecordSerializationRoundtrip) {
  nn::ExecutionContext ctx = nn::ExecutionContext::Deterministic(2);
  auto trace = ProbeModel(model_.get(), batch_, &ctx).value();
  auto restored = LayerTrace::Deserialize(trace.Serialize());
  ASSERT_TRUE(restored.ok()) << restored.status();
  auto comparison = CompareTraces(trace, restored.value());
  EXPECT_TRUE(comparison.equal);
}

TEST_F(ProbeTest, CrossMachineComparisonViaSerializedRecords) {
  // Simulate verifying reproducibility across machines: run locally,
  // serialize, "ship" the record, rerun remotely, compare.
  nn::ExecutionContext local = nn::ExecutionContext::Deterministic(3);
  auto local_trace = ProbeModel(model_.get(), batch_, &local).value();
  const Bytes shipped = local_trace.Serialize();

  nn::ExecutionContext remote = nn::ExecutionContext::Deterministic(3);
  auto remote_trace = ProbeModel(model_.get(), batch_, &remote).value();
  auto comparison = CompareTraces(LayerTrace::Deserialize(shipped).value(),
                                  remote_trace);
  EXPECT_TRUE(comparison.equal);
}

TEST_F(ProbeTest, ComparisonLocatesFirstDivergingLayer) {
  nn::ExecutionContext ctx = nn::ExecutionContext::Deterministic(4);
  auto trace = ProbeModel(model_.get(), batch_, &ctx).value();
  LayerTrace tampered = trace;
  tampered.events[10].digest.bytes[0] ^= 0x01;
  auto comparison = CompareTraces(trace, tampered);
  EXPECT_FALSE(comparison.equal);
  ASSERT_EQ(comparison.mismatches.size(), 1u);
  EXPECT_EQ(comparison.mismatches[0].index, 10u);
  EXPECT_EQ(comparison.mismatches[0].pass, TraceEvent::Pass::kForward);
  EXPECT_EQ(comparison.mismatches[0].layer_name,
            trace.events[10].layer_name);
}

TEST_F(ProbeTest, ComparisonDetectsLengthMismatch) {
  nn::ExecutionContext ctx = nn::ExecutionContext::Deterministic(5);
  auto trace = ProbeModel(model_.get(), batch_, &ctx).value();
  LayerTrace shorter = trace;
  shorter.events.pop_back();
  EXPECT_FALSE(CompareTraces(trace, shorter).equal);
}

TEST_F(ProbeTest, DeserializeRejectsCorruption) {
  nn::ExecutionContext ctx = nn::ExecutionContext::Deterministic(6);
  auto trace = ProbeModel(model_.get(), batch_, &ctx).value();
  Bytes data = trace.Serialize();
  data.resize(data.size() / 2);
  EXPECT_FALSE(LayerTrace::Deserialize(data).ok());
}

TEST_F(ProbeTest, SerializedTraceKeepsRootAndNamesAChangedBackwardEvent) {
  nn::ExecutionContext ctx = nn::ExecutionContext::Deterministic(8);
  auto trace = ProbeModel(model_.get(), batch_, &ctx).value();
  const Digest root = trace.Root().value();
  auto restored = LayerTrace::Deserialize(trace.Serialize());
  ASSERT_TRUE(restored.ok()) << restored.status();
  EXPECT_EQ(restored->Root().value(), root);

  // One backward event changes: the root moves, and the comparison names
  // that event's layer and pass.
  const size_t index = model_->node_count() + 3;
  ASSERT_EQ(restored->events[index].pass, TraceEvent::Pass::kBackward);
  restored->events[index].digest.bytes[5] ^= 0x10;
  EXPECT_NE(restored->Root().value(), root);
  auto comparison = CompareTraces(trace, restored.value());
  EXPECT_FALSE(comparison.equal);
  ASSERT_EQ(comparison.mismatches.size(), 1u);
  EXPECT_EQ(comparison.mismatches[0].index, index);
  EXPECT_EQ(comparison.mismatches[0].pass, TraceEvent::Pass::kBackward);
  EXPECT_EQ(comparison.mismatches[0].layer_name,
            trace.events[index].layer_name);
  EXPECT_NE(comparison.FirstDivergence().find(
                "backward event #" + std::to_string(index) + " (" +
                trace.events[index].layer_name + ")"),
            std::string::npos)
      << comparison.FirstDivergence();

  EXPECT_FALSE(LayerTrace{}.Root().ok());
}

TEST_F(ProbeTest, ProbeRestoresThePreviousObserver) {
  class CountingObserver : public nn::ActivationObserver {
   public:
    size_t events = 0;
    void OnForward(const std::string&, const Tensor&) override { ++events; }
    void OnBackward(const std::string&, const Tensor&) override { ++events; }
  };
  CountingObserver counting;
  model_->set_observer(&counting);
  nn::ExecutionContext ctx = nn::ExecutionContext::Deterministic(9);
  ASSERT_TRUE(ProbeModel(model_.get(), batch_, &ctx).ok());
  EXPECT_EQ(model_->observer(), &counting);
  // Restored on the failure path too.
  data::Batch bad = batch_;
  bad.labels.pop_back();
  EXPECT_FALSE(ProbeModel(model_.get(), bad, &ctx).ok());
  EXPECT_EQ(model_->observer(), &counting);
  // The probe's events went to its own trace, not to the attached observer.
  EXPECT_EQ(counting.events, 0u);
  model_->set_observer(nullptr);
}

TEST_F(ProbeTest, ProbeClearsObserverOnFailure) {
  nn::ExecutionContext ctx = nn::ExecutionContext::Deterministic(7);
  data::Batch bad = batch_;
  bad.labels.pop_back();  // label/batch mismatch -> loss fails
  EXPECT_FALSE(ProbeModel(model_.get(), bad, &ctx).ok());
  // The model must be usable afterwards without a stale observer.
  auto record = ProbeModel(model_.get(), batch_, &ctx);
  EXPECT_TRUE(record.ok());
}

/// Paper Section 2.4: "we used the probing tool to check if popular computer
/// vision models are reproducible" — all zoo architectures must be
/// reproducible in deterministic mode.
class ZooReproducibility
    : public ::testing::TestWithParam<models::Architecture> {};

TEST_P(ZooReproducibility, DeterministicTrainingIsReproducible) {
  models::ModelConfig config = models::DefaultConfig(GetParam());
  config.channel_divisor = 8;
  config.image_size = 28;
  config.num_classes = 10;
  auto model = models::BuildModel(config).value();

  data::SyntheticImageDataset dataset(data::PaperDatasetId::kCocoFood512,
                                      4096);
  data::DataLoaderOptions options;
  options.batch_size = 2;
  options.image_size = 28;
  options.num_classes = 10;
  data::DataLoader loader(&dataset, options);
  data::Batch batch = loader.GetBatch(0).value();

  auto comparison =
      CheckReproducibility(&model, batch, /*deterministic=*/true, 11)
          .value();
  EXPECT_TRUE(comparison.equal);
}

INSTANTIATE_TEST_SUITE_P(
    AllArchitectures, ZooReproducibility,
    ::testing::ValuesIn(models::AllArchitectures()),
    [](const ::testing::TestParamInfo<models::Architecture>& info) {
      std::string name(models::ArchitectureName(info.param));
      for (char& c : name) {
        if (c == '-') {
          c = '_';
        }
      }
      return name;
    });

}  // namespace
}  // namespace mmlib::core
