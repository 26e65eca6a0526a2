#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "collective/gradient_sync.h"
#include "collective/ring.h"
#include "models/zoo.h"
#include "nn/model.h"
#include "simnet/network.h"
#include "util/crash_point.h"
#include "util/thread_pool.h"

namespace mmlib {
namespace {

using simnet::Space;

/// Overridable so CI can sweep several fault schedules over the same
/// assertions (MMLIB_FAULT_SEED=3 ctest -R collective ...).
uint64_t FaultSeed() {
  const char* env = std::getenv("MMLIB_FAULT_SEED");
  if (env != nullptr && *env != '\0') {
    return std::strtoull(env, nullptr, 10);
  }
  return 0x5eedfa17;
}

/// The session's reduction contract, restated independently: balanced
/// binary tree over cohort ranks, scaled by 1/C at the end.
float ReferenceFold(const std::vector<float>& vals, size_t lo, size_t hi) {
  if (lo == hi) {
    return vals[lo];
  }
  const size_t mid = lo + (hi - lo) / 2;
  return ReferenceFold(vals, lo, mid) + ReferenceFold(vals, mid + 1, hi);
}

std::vector<std::vector<float>> DistinctInputs(size_t workers, size_t n) {
  std::vector<std::vector<float>> inputs(workers, std::vector<float>(n));
  for (size_t w = 0; w < workers; ++w) {
    for (size_t j = 0; j < n; ++j) {
      inputs[w][j] = 0.25f * static_cast<float>(w + 1) +
                     0.001f * static_cast<float>(j % 97) -
                     (j % 3 == 0 ? 1.5f : 0.0f);
    }
  }
  return inputs;
}

std::vector<const std::vector<float>*> Pointers(
    const std::vector<std::vector<float>>& inputs) {
  std::vector<const std::vector<float>*> ptrs;
  for (const std::vector<float>& input : inputs) {
    ptrs.push_back(&input);
  }
  return ptrs;
}

// ---------------------------------------------------------------------------
// Network worker space
// ---------------------------------------------------------------------------

// Crash/Restart, Partition/Heal and the counters follow the one membership
// contract of every node space (simnet_test MembershipTest); these cases
// cover what only the worker transfers do.
TEST(WorkerSpaceTest, TransfersChargeAndRejectLikeReplicas) {
  simnet::Network network;
  network.Configure(Space::kWorker, 3);
  EXPECT_FALSE(network.PairReachable(Space::kWorker, 1, 1));  // distinct only

  simnet::TransferAttempt ok = network.TryTransferBetweenWorkers(0, 1, 1024);
  EXPECT_TRUE(ok.status.ok());
  EXPECT_GT(ok.seconds, 0.0);

  // A down destination rejects after one latency charge, with no fault
  // draw and per-worker attribution.
  ASSERT_TRUE(network.Crash(Space::kWorker, 1).ok());
  simnet::TransferAttempt down = network.TryTransferBetweenWorkers(0, 1, 64);
  EXPECT_EQ(down.status.code(), StatusCode::kUnavailable);
  EXPECT_EQ(down.seconds, network.link().latency_seconds);
  EXPECT_EQ(network.Counters(Space::kWorker, 1).value().rejects, 1u);
  EXPECT_EQ(network.Counters(Space::kWorker, 0).value().rejects, 0u);
  ASSERT_TRUE(network.Restart(Space::kWorker, 1).ok());
  EXPECT_TRUE(network.TryTransferBetweenWorkers(0, 1, 64).status.ok());

  // Partitioned pairs reject; healed pairs talk again.
  ASSERT_TRUE(network.Partition(Space::kWorker, {{2}}).ok());
  EXPECT_EQ(network.TryTransferBetweenWorkers(0, 2, 64).status.code(),
            StatusCode::kUnavailable);
  network.Heal(Space::kWorker);
  EXPECT_TRUE(network.TryTransferBetweenWorkers(0, 2, 64).status.ok());
}

TEST(WorkerSpaceTest, CorruptionDrawBecomesRetransmission) {
  simnet::Network network;
  network.Configure(Space::kWorker, 2);
  simnet::FaultPlan plan;
  plan.corrupt_probability = 1.0;
  plan.seed = FaultSeed();
  network.set_collective_fault_plan(plan);

  const double clean_cost = simnet::Link{}.TransferSeconds(4096);
  simnet::TransferAttempt attempt =
      network.TryTransferBetweenWorkers(0, 1, 4096);
  // Link-level retransmission: the payload is never surfaced corrupted;
  // the draw costs one extra transfer instead.
  EXPECT_TRUE(attempt.status.ok());
  EXPECT_FALSE(attempt.corrupted);
  EXPECT_NEAR(attempt.seconds, 2 * clean_cost, 1e-12);
  EXPECT_EQ(network.MessageCount(), 2u);
  EXPECT_EQ(network.Counters(Space::kWorker, 1).value().faults.corruptions,
            1u);
}

TEST(WorkerSpaceTest, CollectiveStreamIsIndependentOfStorageStream) {
  // Two networks with the same storage fault plan; one also runs heavy
  // collective traffic under a collective plan. The storage fault sequence
  // must be unaffected — this is what keeps a flow's storage fault draws
  // bit-identical across worker counts.
  simnet::FaultPlan storage_plan;
  storage_plan.drop_probability = 0.3;
  storage_plan.seed = FaultSeed();

  auto storage_outcomes = [&](bool with_collective) {
    simnet::Network network;
    network.set_fault_plan(storage_plan);
    network.Configure(Space::kWorker, 4);
    if (with_collective) {
      simnet::FaultPlan collective_plan;
      collective_plan.drop_probability = 0.5;
      collective_plan.seed = FaultSeed() ^ 0x1234;
      network.set_collective_fault_plan(collective_plan);
    }
    std::vector<bool> outcomes;
    for (int i = 0; i < 32; ++i) {
      if (with_collective) {
        (void)network.TryTransferBetweenWorkers(i % 4, (i + 1) % 4, 512);
      }
      outcomes.push_back(network.TryTransfer(1024).status.ok());
    }
    return outcomes;
  };

  EXPECT_EQ(storage_outcomes(false), storage_outcomes(true));
}

// ---------------------------------------------------------------------------
// Ring reduction arithmetic
// ---------------------------------------------------------------------------

TEST(RingSessionTest, ReducesToBalancedTreeMean) {
  simnet::Network network;
  collective::RingSession session(4, 0.0, collective::RingOptions{},
                                  &network);
  session.BeginUpdate(1);

  const size_t n = 1000;
  const std::vector<std::vector<float>> inputs = DistinctInputs(4, n);
  std::vector<float> out;
  ASSERT_TRUE(session.AllReduce(1, Pointers(inputs), &out).ok());
  ASSERT_EQ(out.size(), n);
  for (size_t j = 0; j < n; ++j) {
    std::vector<float> vals(4);
    for (size_t w = 0; w < 4; ++w) {
      vals[w] = inputs[w][j];
    }
    const float expected = ReferenceFold(vals, 0, 3) * 0.25f;
    ASSERT_EQ(out[j], expected) << "element " << j;
  }
  EXPECT_EQ(session.report().steps, 1u);
  EXPECT_EQ(session.report().degraded_steps, 0u);
  // 2*(C-1) rounds, each worker sends one slice of ceil(1000/4)=250 elems,
  // which fits one default-sized message: 6 rounds * 4 workers = 24 sends.
  uint64_t messages = 0;
  for (const collective::RingWorkerCounters& w : session.report().workers) {
    messages += w.messages;
  }
  EXPECT_EQ(messages, 24u);
  EXPECT_GT(network.TotalTransferSeconds(), 0.0);
}

TEST(RingSessionTest, FullCohortMeanIsBitIdenticalToSingleWorker) {
  // Every worker holds the identical gradient (the data-parallel replica
  // model): for K in {1,2,4,8} the tree mean must reproduce it bit for
  // bit — tree sums of 2^k equal values are exponent shifts and 1/K is a
  // power of two.
  const size_t n = 513;  // odd, so slices are ragged
  std::vector<float> grad(n);
  for (size_t j = 0; j < n; ++j) {
    grad[j] = 0.3f * static_cast<float>(j) - 77.7f +
              1e-7f * static_cast<float>(j * j % 101);
  }
  for (size_t workers : {1u, 2u, 4u, 8u}) {
    SCOPED_TRACE("K=" + std::to_string(workers));
    simnet::Network network;
    collective::RingSession session(workers, 0.0, collective::RingOptions{},
                                    &network);
    session.BeginUpdate(1);
    std::vector<const std::vector<float>*> inputs(workers, &grad);
    std::vector<float> out;
    ASSERT_TRUE(session.AllReduce(1, inputs, &out).ok());
    EXPECT_EQ(out, grad);
  }
}

TEST(RingSessionTest, PoolSizeDoesNotChangeBits) {
  // Three chunks of kChunkElements, the last one ragged, so a larger pool
  // reduces them on different threads.
  const std::vector<std::vector<float>> inputs =
      DistinctInputs(4, 2 * collective::RingSession::kChunkElements + 333);
  std::vector<float> reference;
  {
    simnet::Network network;
    collective::RingSession session(4, 0.0, collective::RingOptions{},
                                    &network);
    session.BeginUpdate(1);
    ASSERT_TRUE(session.AllReduce(1, Pointers(inputs), &reference).ok());
  }
  util::ThreadPool pool1(1), pool2(2), pool7(7);
  for (util::ThreadPool* pool : {&pool1, &pool2, &pool7}) {
    SCOPED_TRACE("threads=" + std::to_string(pool->thread_count()));
    simnet::Network network;
    collective::RingSession session(4, 0.0, collective::RingOptions{},
                                    &network);
    session.set_thread_pool(pool);
    session.BeginUpdate(1);
    std::vector<float> out;
    ASSERT_TRUE(session.AllReduce(1, Pointers(inputs), &out).ok());
    EXPECT_EQ(out, reference);
  }
}

TEST(RingSessionTest, OutputMayAliasAnInput) {
  std::vector<std::vector<float>> inputs = DistinctInputs(2, 64);
  std::vector<float> expected;
  {
    simnet::Network network;
    collective::RingSession session(2, 0.0, collective::RingOptions{},
                                    &network);
    session.BeginUpdate(1);
    ASSERT_TRUE(session.AllReduce(1, Pointers(inputs), &expected).ok());
  }
  simnet::Network network;
  collective::RingSession session(2, 0.0, collective::RingOptions{}, &network);
  session.BeginUpdate(1);
  const std::vector<const std::vector<float>*> ptrs = Pointers(inputs);
  ASSERT_TRUE(session.AllReduce(1, ptrs, &inputs[0]).ok());
  EXPECT_EQ(inputs[0], expected);
}

TEST(RingSessionTest, RejectsMalformedInputs) {
  simnet::Network network;
  collective::RingSession session(2, 0.0, collective::RingOptions{}, &network);
  std::vector<float> a(8), b(9);
  std::vector<float> out;
  EXPECT_EQ(session.AllReduce(1, {&a}, &out).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(session.AllReduce(1, {&a, &b}, &out).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(session.AllReduce(1, {&a, nullptr}, &out).code(),
            StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------------
// Robustness: stragglers, losses, partitions, dead peers
// ---------------------------------------------------------------------------

TEST(RingSessionTest, StragglerWithinBoundIsWaitedFor) {
  simnet::Network network;
  collective::RingOptions options;
  collective::StragglerWindow window;
  window.worker = 2;
  window.slow_factor = 1.5;  // extra = 0.5s <= the 1s bound: absorbed
  window.update = 1;
  window.from_step = 1;
  window.to_step = 1;
  options.stragglers.push_back(window);
  EXPECT_EQ(collective::RingSession::kStragglerWaitSeconds, 1.0);
  // step compute 4.0s: share = 1.0s per worker
  collective::RingSession session(4, 4.0, options, &network);
  session.BeginUpdate(1);

  const std::vector<std::vector<float>> inputs = DistinctInputs(4, 16);
  std::vector<float> out;
  ASSERT_TRUE(session.AllReduce(1, Pointers(inputs), &out).ok());
  EXPECT_EQ(session.report().degraded_steps, 0u);
  EXPECT_EQ(session.report().workers[2].excluded_steps, 0u);
  // The cohort pays the slowest member: 1.5s instead of 1.0s.
  EXPECT_GT(network.TotalTransferSeconds(), 1.5);
}

TEST(RingSessionTest, StragglerPastBoundIsExcludedThenRejoins) {
  auto run = [](std::vector<float>* out) -> collective::SessionReport {
    simnet::Network network;
    collective::RingOptions options;
    collective::StragglerWindow window;
    window.worker = 1;
    window.slow_factor = 4.0;  // extra 3.0s > the 1s bound: excluded
    window.update = 1;
    window.from_step = 1;
    window.to_step = 1;
    options.stragglers.push_back(window);
    // step compute 4.0s: share = 1.0s per worker
    collective::RingSession session(4, 4.0, options, &network);
    session.BeginUpdate(1);
    const std::vector<std::vector<float>> inputs = DistinctInputs(4, 40);
    EXPECT_TRUE(session.AllReduce(1, Pointers(inputs), out).ok());
    // Step 2: the window is over; worker 1 re-syncs and participates.
    EXPECT_TRUE(session.AllReduce(2, Pointers(inputs), out).ok());
    return session.report();
  };

  std::vector<float> out_a, out_b;
  const collective::SessionReport report = run(&out_a);
  EXPECT_EQ(report.steps, 2u);
  EXPECT_EQ(report.degraded_steps, 1u);
  EXPECT_EQ(report.workers[1].excluded_steps, 1u);
  EXPECT_EQ(report.workers[1].rejoin_syncs, 1u);
  EXPECT_EQ(report.workers[0].excluded_steps, 0u);

  // Deterministic per seed: an identical re-run reproduces everything.
  const collective::SessionReport replay = run(&out_b);
  EXPECT_EQ(out_a, out_b);
  EXPECT_EQ(replay.degraded_steps, report.degraded_steps);
  EXPECT_EQ(replay.workers.size(), report.workers.size());
  for (size_t w = 0; w < report.workers.size(); ++w) {
    EXPECT_EQ(replay.workers[w] == report.workers[w], true) << "worker " << w;
  }
}

TEST(RingSessionTest, PermanentLossRescalesTheSurvivingCohort) {
  simnet::Network network;
  collective::RingOptions options;
  collective::WorkerLossEvent loss;
  loss.worker = 3;
  loss.update = 1;
  loss.at_step = 2;
  options.losses.push_back(loss);
  collective::RingSession session(4, 0.0, options, &network);
  session.BeginUpdate(1);

  const std::vector<std::vector<float>> inputs = DistinctInputs(4, 50);
  std::vector<float> full, degraded;
  ASSERT_TRUE(session.AllReduce(1, Pointers(inputs), &full).ok());
  ASSERT_TRUE(session.AllReduce(2, Pointers(inputs), &degraded).ok());
  EXPECT_EQ(session.report().degraded_steps, 1u);
  EXPECT_EQ(network.Counters(Space::kWorker, 3).value().crashes, 1u);

  // Step 2 is the mean over survivors {0,1,2}: tree fold over 3 ranks / 3.
  for (size_t j = 0; j < 50; ++j) {
    const std::vector<float> vals = {inputs[0][j], inputs[1][j],
                                     inputs[2][j]};
    const float expected =
        ReferenceFold(vals, 0, 2) * (1.0f / 3.0f);
    ASSERT_EQ(degraded[j], expected) << "element " << j;
  }
  // The loss is permanent: a later update still excludes worker 3.
  session.BeginUpdate(2);
  std::vector<float> later;
  ASSERT_TRUE(session.AllReduce(1, Pointers(inputs), &later).ok());
  EXPECT_EQ(later, degraded);
  EXPECT_EQ(session.report().workers[3].excluded_steps, 2u);
}

TEST(RingSessionTest, MinorityPartitionContinuesDegraded) {
  simnet::Network network;
  collective::RingOptions options;
  collective::PartitionWindow window;
  window.minority = {0};
  window.update = 1;
  window.from_step = 2;
  window.to_step = 2;
  options.partitions.push_back(window);
  collective::RingSession session(4, 0.0, options, &network);
  session.BeginUpdate(1);

  const std::vector<std::vector<float>> inputs = DistinctInputs(4, 30);
  std::vector<float> out;
  ASSERT_TRUE(session.AllReduce(1, Pointers(inputs), &out).ok());
  ASSERT_TRUE(session.AllReduce(2, Pointers(inputs), &out).ok());
  EXPECT_EQ(session.report().degraded_steps, 1u);
  EXPECT_EQ(session.report().stalled_steps, 0u);
  EXPECT_EQ(session.report().workers[0].excluded_steps, 1u);
  // Healed at step 3: the returning worker re-syncs and the cohort is full.
  ASSERT_TRUE(session.AllReduce(3, Pointers(inputs), &out).ok());
  EXPECT_EQ(session.report().degraded_steps, 1u);
  EXPECT_EQ(session.report().workers[0].rejoin_syncs, 1u);
  EXPECT_EQ(network.HealCount(), 1u);
}

TEST(RingSessionTest, MajorityPartitionStallsUntilHeal) {
  simnet::Network network;
  collective::RingOptions options;
  collective::PartitionWindow window;
  window.minority = {1, 2, 3};  // coordinator side keeps only worker 0
  window.update = 1;
  window.from_step = 1;
  window.to_step = 3;
  options.partitions.push_back(window);
  collective::RingSession session(4, 4.0, options, &network);
  session.BeginUpdate(1);

  const std::vector<std::vector<float>> inputs = DistinctInputs(4, 20);
  std::vector<float> full;
  {
    simnet::Network clean_network;
    collective::RingSession clean(4, 0.0, collective::RingOptions{},
                                  &clean_network);
    clean.BeginUpdate(1);
    ASSERT_TRUE(clean.AllReduce(1, Pointers(inputs), &full).ok());
  }
  // The minority holds a strict majority of the ring, so step 1 cannot
  // commit degraded: the session waits out the partition (idle time on the
  // virtual clock) and commits the full cohort.
  std::vector<float> out;
  ASSERT_TRUE(session.AllReduce(1, Pointers(inputs), &out).ok());
  EXPECT_EQ(out, full);
  EXPECT_EQ(session.report().stalled_steps, 1u);
  EXPECT_EQ(session.report().degraded_steps, 0u);
  // Waited 3 steps' shares (1s each) plus its own share.
  EXPECT_GE(network.TotalTransferSeconds(), 4.0);
  // The consumed window does not re-partition step 2.
  ASSERT_TRUE(session.AllReduce(2, Pointers(inputs), &out).ok());
  EXPECT_EQ(session.report().stalled_steps, 1u);
  EXPECT_EQ(out, full);
}

TEST(RingSessionTest, DeadPeersAreRemovedAfterRetriesExhaust) {
  simnet::Network network;
  simnet::FaultPlan plan;
  plan.drop_probability = 1.0;  // every collective message dies
  plan.seed = FaultSeed();
  network.set_collective_fault_plan(plan);
  collective::RingSession session(4, 0.0, collective::RingOptions{},
                                  &network);
  session.BeginUpdate(1);

  const std::vector<std::vector<float>> inputs = DistinctInputs(4, 16);
  std::vector<float> out;
  ASSERT_TRUE(session.AllReduce(1, Pointers(inputs), &out).ok());
  // Peers fell out one by one until a single worker remained; the step
  // still committed (that worker's gradient, scaled by 1/1).
  EXPECT_EQ(session.report().peers_removed, 3u);
  EXPECT_EQ(session.report().degraded_steps, 1u);
  // Each removal followed one message that used all six attempts.
  EXPECT_EQ(simnet::Retrier::kMaxAttempts, 6);
  EXPECT_EQ(session.report().retries, 3u * 5u);
  EXPECT_EQ(out, inputs[0]);
}

// ---------------------------------------------------------------------------
// Crash points
// ---------------------------------------------------------------------------

TEST(RingSessionTest, ArmedCrashSitesFireAndRejoinRecovers) {
  const std::vector<std::vector<float>> inputs = DistinctInputs(4, 32);
  std::vector<float> clean;
  {
    simnet::Network network;
    collective::RingSession session(4, 0.0, collective::RingOptions{},
                                    &network);
    session.BeginUpdate(1);
    ASSERT_TRUE(session.AllReduce(1, Pointers(inputs), &clean).ok());
  }
  for (const char* site :
       {"collective.send", "collective.reduce", "collective.commit"}) {
    SCOPED_TRACE(site);
    simnet::Network network;
    collective::RingSession session(4, 0.0, collective::RingOptions{},
                                    &network);
    session.BeginUpdate(1);
    session.ArmWorkerCrash(site, /*update=*/1, /*at_step=*/1, /*worker=*/2);
    std::vector<float> out;
    bool crashed = false;
    try {
      (void)session.AllReduce(1, Pointers(inputs), &out);
    } catch (const util::CrashException& e) {
      crashed = true;
      EXPECT_EQ(e.site(), site);
    }
    ASSERT_TRUE(crashed);
    util::CrashPoint::ResetAfterCrash();
    EXPECT_EQ(session.report().steps, 0u);  // the step never committed

    // Kill/restart the worker like the flow does, re-sync it, replay the
    // step: the result matches the crash-free run bit for bit.
    ASSERT_TRUE(network.Crash(Space::kWorker, 2).ok());
    ASSERT_TRUE(network.Restart(Space::kWorker, 2).ok());
    ASSERT_TRUE(session.RejoinWorker(2, 32 * 4).ok());
    ASSERT_TRUE(session.AllReduce(1, Pointers(inputs), &out).ok());
    EXPECT_EQ(out, clean);
    EXPECT_EQ(session.report().workers[2].rejoin_syncs, 1u);
  }
}

TEST(RingSessionTest, RejoinRequiresARestartedWorker) {
  simnet::Network network;
  collective::RingSession session(2, 0.0, collective::RingOptions{}, &network);
  EXPECT_EQ(session.RejoinWorker(9, 128).code(),
            StatusCode::kInvalidArgument);
  ASSERT_TRUE(network.Crash(Space::kWorker, 1).ok());
  EXPECT_EQ(session.RejoinWorker(1, 128).code(),
            StatusCode::kFailedPrecondition);
  ASSERT_TRUE(network.Restart(Space::kWorker, 1).ok());
  EXPECT_TRUE(session.RejoinWorker(1, 128).ok());
}

// ---------------------------------------------------------------------------
// Gradient flatten/unflatten and the synchronizer
// ---------------------------------------------------------------------------

models::ModelConfig TinyConfig() {
  models::ModelConfig config =
      models::DefaultConfig(models::Architecture::kMobileNetV2);
  config.channel_divisor = 8;
  config.image_size = 28;
  config.num_classes = 10;
  return config;
}

TEST(GradientFlattenTest, RoundTripsTrainableGradsOnly) {
  nn::Model model = models::BuildModel(TinyConfig()).value();
  model.SetTrainableAll(true);
  model.ZeroGrad();

  std::vector<float> flat;
  model.FlattenTrainableGrads(&flat);
  ASSERT_EQ(static_cast<int64_t>(flat.size()), model.TrainableParamCount());
  for (float v : flat) {
    ASSERT_EQ(v, 0.0f);
  }

  for (size_t j = 0; j < flat.size(); ++j) {
    flat[j] = 0.5f + 0.001f * static_cast<float>(j % 1009);
  }
  ASSERT_TRUE(model.LoadTrainableGrads(flat).ok());
  std::vector<float> back;
  model.FlattenTrainableGrads(&back);
  EXPECT_EQ(back, flat);

  std::vector<float> wrong(flat.size() + 1);
  EXPECT_EQ(model.LoadTrainableGrads(wrong).code(),
            StatusCode::kInvalidArgument);

  // Freezing layers shrinks the flattened view; buffers never appear.
  const size_t trainable =
      model.SetTrainableWhere([](const nn::Layer& layer) {
        return layer.name().find("conv") != std::string::npos;
      });
  ASSERT_GT(trainable, 0u);
  std::vector<float> partial;
  model.FlattenTrainableGrads(&partial);
  EXPECT_EQ(static_cast<int64_t>(partial.size()),
            model.TrainableParamCount());
  EXPECT_LT(partial.size(), flat.size());
}

TEST(GradientSynchronizerTest, FullCohortSyncLeavesGradientsBitIdentical) {
  nn::Model model = models::BuildModel(TinyConfig()).value();
  model.SetTrainableAll(true);
  std::vector<float> grads(
      static_cast<size_t>(model.TrainableParamCount()));
  for (size_t j = 0; j < grads.size(); ++j) {
    grads[j] = 0.01f * static_cast<float>(j % 613) - 3.0f;
  }
  ASSERT_TRUE(model.LoadTrainableGrads(grads).ok());

  simnet::Network network;
  collective::RingSession session(4, 0.0, collective::RingOptions{},
                                  &network);
  session.BeginUpdate(1);
  collective::GradientSynchronizer sync(&session);
  ASSERT_TRUE(sync.Sync(&model, 1).ok());

  std::vector<float> after;
  model.FlattenTrainableGrads(&after);
  EXPECT_EQ(after, grads);
  EXPECT_EQ(session.report().steps, 1u);
  EXPECT_GT(network.TotalBytes(), 0u);
}

}  // namespace
}  // namespace mmlib
