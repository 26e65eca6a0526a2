#include <gtest/gtest.h>

#include <memory>

#include "nn/linear.h"
#include "nn/model.h"
#include "nn/optimizer.h"

namespace mmlib::nn {
namespace {

Model MakeTinyModel(uint64_t seed = 1) {
  Model model("tiny");
  Rng rng(seed);
  model.AddSequential(std::make_unique<Linear>("fc", 2, 2, &rng));
  return model;
}

void SetGradients(Model* model, float value) {
  for (size_t i = 0; i < model->node_count(); ++i) {
    for (Param& p : model->layer(i)->params()) {
      p.grad.Fill(value);
    }
  }
}

TEST(SgdTest, PlainStepSubtractsScaledGradient) {
  Model model = MakeTinyModel();
  SgdOptions options;
  options.learning_rate = 0.5f;
  options.momentum = 0.0f;
  SgdOptimizer optimizer(&model, options);

  const float before = model.layer(0)->params()[0].value.at(0);
  SetGradients(&model, 2.0f);
  optimizer.Step();
  EXPECT_FLOAT_EQ(model.layer(0)->params()[0].value.at(0), before - 1.0f);
}

TEST(SgdTest, MomentumAccumulates) {
  Model model = MakeTinyModel();
  SgdOptions options;
  options.learning_rate = 1.0f;
  options.momentum = 0.5f;
  SgdOptimizer optimizer(&model, options);

  const float before = model.layer(0)->params()[0].value.at(0);
  SetGradients(&model, 1.0f);
  optimizer.Step();  // velocity = 1, value -= 1
  SetGradients(&model, 1.0f);
  optimizer.Step();  // velocity = 1.5, value -= 1.5
  EXPECT_FLOAT_EQ(model.layer(0)->params()[0].value.at(0), before - 2.5f);
}

TEST(SgdTest, WeightDecayPullsTowardZero) {
  Model model = MakeTinyModel();
  model.layer(0)->params()[0].value.Fill(10.0f);
  SgdOptions options;
  options.learning_rate = 0.1f;
  options.momentum = 0.0f;
  options.weight_decay = 0.5f;
  SgdOptimizer optimizer(&model, options);
  SetGradients(&model, 0.0f);
  optimizer.Step();
  // g = 0 + 0.5 * 10 = 5; value = 10 - 0.1 * 5 = 9.5.
  EXPECT_FLOAT_EQ(model.layer(0)->params()[0].value.at(0), 9.5f);
}

TEST(SgdTest, FrozenParamsAreNotUpdated) {
  Model model = MakeTinyModel();
  model.SetTrainableAll(false);
  SgdOptimizer optimizer(&model, SgdOptions{});
  const Digest before = model.ParamsHash();
  SetGradients(&model, 3.0f);
  optimizer.Step();
  EXPECT_EQ(model.ParamsHash(), before);
}

TEST(SgdTest, StateRoundtripWithMomentum) {
  Model model = MakeTinyModel();
  SgdOptions options;
  options.momentum = 0.9f;
  SgdOptimizer optimizer(&model, options);
  SetGradients(&model, 1.0f);
  optimizer.Step();
  const Bytes state = optimizer.SerializeState();

  // Fresh optimizer over an identical model: restoring the state must make
  // the next step identical.
  Model twin = MakeTinyModel();
  ASSERT_TRUE(twin.LoadParams(model.SerializeParams()).ok());
  SgdOptimizer restored(&twin, options);
  ASSERT_TRUE(restored.LoadState(state).ok());

  SetGradients(&model, 0.5f);
  optimizer.Step();
  SetGradients(&twin, 0.5f);
  restored.Step();
  EXPECT_EQ(model.ParamsHash(), twin.ParamsHash());
}

TEST(SgdTest, MomentumFreeStateIsSmall) {
  Model model = MakeTinyModel();
  SgdOptions with;
  with.momentum = 0.9f;
  SgdOptions without;
  without.momentum = 0.0f;
  SgdOptimizer a(&model, with);
  SgdOptimizer b(&model, without);
  // Without momentum SGD is stateless; the state file omits the velocity
  // buffers (this keeps MPA provenance dataset-dominated, see dist/flow.h).
  EXPECT_GT(a.SerializeState().size(), b.SerializeState().size());
}

TEST(SgdTest, LoadStateRejectsMismatchedModel) {
  Model model = MakeTinyModel();
  SgdOptimizer optimizer(&model, SgdOptions{});
  const Bytes state = optimizer.SerializeState();

  Model bigger("bigger");
  Rng rng(2);
  bigger.AddSequential(std::make_unique<Linear>("fc", 3, 3, &rng));
  SgdOptimizer other(&bigger, SgdOptions{});
  EXPECT_FALSE(other.LoadState(state).ok());
}

TEST(SgdTest, LoadStateRejectsCorruption) {
  Model model = MakeTinyModel();
  SgdOptions options;
  options.momentum = 0.9f;
  SgdOptimizer optimizer(&model, options);
  Bytes state = optimizer.SerializeState();
  state.resize(state.size() / 2);
  EXPECT_FALSE(optimizer.LoadState(state).ok());
}

TEST(SgdTest, ZeroGradDelegatesToModel) {
  Model model = MakeTinyModel();
  SgdOptimizer optimizer(&model, SgdOptions{});
  SetGradients(&model, 5.0f);
  optimizer.ZeroGrad();
  EXPECT_EQ(model.layer(0)->params()[0].grad.at(0), 0.0f);
}

}  // namespace
}  // namespace mmlib::nn
