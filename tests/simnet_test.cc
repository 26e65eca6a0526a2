#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "simnet/network.h"

namespace mmlib::simnet {
namespace {

TEST(LinkTest, TransferSecondsCombineLatencyAndBandwidth) {
  Link link{1e9, 1e-3};  // 1 GB/s, 1 ms latency
  EXPECT_DOUBLE_EQ(link.TransferSeconds(0), 1e-3);
  EXPECT_DOUBLE_EQ(link.TransferSeconds(1'000'000'000), 1.001);
}

TEST(LinkTest, PresetLinksAreOrdered) {
  // The datacenter link is vastly faster than the vehicle uplink.
  const Link fast = Link::InfiniBand100G();
  const Link slow = Link::Cellular50M();
  EXPECT_LT(fast.TransferSeconds(100 << 20), slow.TransferSeconds(100 << 20));
  EXPECT_LT(fast.latency_seconds, slow.latency_seconds);
}

TEST(NetworkTest, AccumulatesTransfers) {
  Network network(Link{1000.0, 0.5});
  const double t1 = network.Transfer(500);
  EXPECT_DOUBLE_EQ(t1, 1.0);  // 0.5 latency + 500/1000
  network.Transfer(1500);
  EXPECT_EQ(network.TotalBytes(), 2000u);
  EXPECT_EQ(network.MessageCount(), 2u);
  EXPECT_DOUBLE_EQ(network.TotalTransferSeconds(), 1.0 + 2.0);
}

TEST(NetworkTest, ResetClearsState) {
  Network network;
  network.Transfer(1 << 20);
  network.Reset();
  EXPECT_EQ(network.TotalBytes(), 0u);
  EXPECT_EQ(network.MessageCount(), 0u);
  EXPECT_DOUBLE_EQ(network.TotalTransferSeconds(), 0.0);
}

TEST(NetworkTest, InfiniBandIsSubMillisecondForModelSizedPayloads) {
  // Sanity for the paper's setup: a 240 MB ResNet-152 snapshot crosses the
  // 100G link in ~20 ms — network time does not dominate save times.
  Network network(Link::InfiniBand100G());
  const double seconds = network.Transfer(240ull << 20);
  EXPECT_LT(seconds, 0.05);
  EXPECT_GT(seconds, 0.01);
}

TEST(FaultPlanTest, InactiveWithoutProbabilities) {
  EXPECT_FALSE(FaultPlan{}.active());
  FaultPlan plan;
  plan.drop_probability = 0.1;
  EXPECT_TRUE(plan.active());
}

TEST(FaultPlanTest, TryTransferMatchesTransferWithoutPlan) {
  Network network(Link{1000.0, 0.5});
  const TransferAttempt attempt = network.TryTransfer(500);
  EXPECT_TRUE(attempt.status.ok());
  EXPECT_FALSE(attempt.corrupted);
  EXPECT_DOUBLE_EQ(attempt.seconds, 1.0);
  EXPECT_EQ(network.TotalBytes(), 500u);
  EXPECT_EQ(network.FaultCount(), 0u);
}

TEST(FaultPlanTest, CertainDropIsUnavailableAndChargesLatencyOnly) {
  Network network(Link{1000.0, 0.5});
  FaultPlan plan;
  plan.drop_probability = 1.0;
  network.set_fault_plan(plan);

  const TransferAttempt attempt = network.TryTransfer(500);
  EXPECT_EQ(attempt.status.code(), StatusCode::kUnavailable);
  EXPECT_DOUBLE_EQ(attempt.seconds, 0.5);  // latency, no payload time
  EXPECT_EQ(network.DropCount(), 1u);
  // A dropped message moved no bytes but counts as an attempt.
  EXPECT_EQ(network.TotalBytes(), 0u);
  EXPECT_EQ(network.MessageCount(), 1u);
}

TEST(FaultPlanTest, CertainTimeoutChargesTimeoutSeconds) {
  Network network(Link{1000.0, 0.5});
  FaultPlan plan;
  plan.timeout_probability = 1.0;
  plan.timeout_seconds = 2.5;
  network.set_fault_plan(plan);

  const TransferAttempt attempt = network.TryTransfer(500);
  EXPECT_EQ(attempt.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_DOUBLE_EQ(attempt.seconds, 2.5);
  EXPECT_EQ(network.TimeoutCount(), 1u);
  EXPECT_DOUBLE_EQ(network.TotalTransferSeconds(), 2.5);
}

TEST(FaultPlanTest, CertainCorruptionDeliversDamagedPayload) {
  Network network(Link{1000.0, 0.5});
  FaultPlan plan;
  plan.corrupt_probability = 1.0;
  network.set_fault_plan(plan);

  const TransferAttempt attempt = network.TryTransfer(500);
  EXPECT_TRUE(attempt.status.ok());
  EXPECT_TRUE(attempt.corrupted);
  EXPECT_DOUBLE_EQ(attempt.seconds, 1.0);  // full transfer time charged
  EXPECT_EQ(network.CorruptionCount(), 1u);
  EXPECT_EQ(network.TotalBytes(), 500u);

  // CorruptPayload flips exactly one byte.
  const Bytes original(64, 0xAB);
  Bytes damaged = original;
  network.CorruptPayload(&damaged);
  size_t diffs = 0;
  for (size_t i = 0; i < original.size(); ++i) {
    diffs += original[i] != damaged[i] ? 1 : 0;
  }
  EXPECT_EQ(diffs, 1u);
}

TEST(FaultPlanTest, FaultSequenceIsSeedDeterministic) {
  FaultPlan plan;
  plan.drop_probability = 0.2;
  plan.timeout_probability = 0.1;
  plan.corrupt_probability = 0.1;
  plan.seed = 77;

  auto run = [&plan]() {
    Network network;
    network.set_fault_plan(plan);
    std::vector<StatusCode> codes;
    for (int i = 0; i < 200; ++i) {
      codes.push_back(network.TryTransfer(1000).status.code());
    }
    return std::make_pair(codes, network.FaultCount());
  };
  const auto [codes_a, faults_a] = run();
  const auto [codes_b, faults_b] = run();
  EXPECT_EQ(codes_a, codes_b);
  EXPECT_EQ(faults_a, faults_b);
  // With these rates, 200 messages see some but not only faults.
  EXPECT_GT(faults_a, 0u);
  EXPECT_LT(faults_a, 200u);
}

TEST(FaultPlanTest, SetFaultPlanReseedsAndClearsCounters) {
  Network network;
  FaultPlan plan;
  plan.drop_probability = 1.0;
  network.set_fault_plan(plan);
  network.TryTransfer(100);
  EXPECT_EQ(network.DropCount(), 1u);

  network.set_fault_plan(FaultPlan{});
  EXPECT_EQ(network.DropCount(), 0u);
  EXPECT_TRUE(network.TryTransfer(100).status.ok());
}

// ---------------------------------------------------------------------------
// Membership: one lifecycle contract, checked in every node space
// ---------------------------------------------------------------------------

constexpr Space kSpaces[] = {Space::kNode, Space::kReplica, Space::kWorker};

class MembershipTest : public ::testing::TestWithParam<Space> {};

TEST_P(MembershipTest, CrashAndRestartChargeTheClockAndCheckState) {
  const Space space = GetParam();
  Network network;
  network.Configure(space, 3);
  EXPECT_EQ(network.MemberCount(space), 3u);
  for (Space other : kSpaces) {
    if (other != space) {
      EXPECT_EQ(network.MemberCount(other), 0u);
    }
  }
  EXPECT_TRUE(network.IsReachable(space, 0));
  EXPECT_FALSE(network.IsUp(space, 3));

  ASSERT_TRUE(network.Crash(space, 1).ok());
  EXPECT_DOUBLE_EQ(network.TotalTransferSeconds(),
                   Network::kCrashDetectSeconds);
  EXPECT_FALSE(network.IsUp(space, 1));
  EXPECT_FALSE(network.IsReachable(space, 1));
  EXPECT_FALSE(network.PairReachable(space, 0, 1));
  EXPECT_TRUE(network.PairReachable(space, 0, 2));

  // Refused calls change nothing and charge nothing.
  EXPECT_EQ(network.Crash(space, 1).code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(network.Crash(space, 3).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(network.Restart(space, 0).code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(network.Restart(space, 3).code(), StatusCode::kInvalidArgument);
  EXPECT_DOUBLE_EQ(network.TotalTransferSeconds(),
                   Network::kCrashDetectSeconds);

  ASSERT_TRUE(network.Restart(space, 1).ok());
  EXPECT_DOUBLE_EQ(network.TotalTransferSeconds(),
                   Network::kCrashDetectSeconds + Network::kRestartSeconds);
  EXPECT_TRUE(network.IsReachable(space, 1));
  const MemberCounters counters = network.Counters(space, 1).value();
  EXPECT_EQ(counters.crashes, 1u);
  EXPECT_EQ(counters.restarts, 1u);
  EXPECT_EQ(counters.rejects, 0u);
  EXPECT_EQ(network.Counters(space, 0).value().crashes, 0u);
  EXPECT_EQ(network.Counters(space, 3).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_P(MembershipTest, PartitionGroupsGateReachabilityUntilHeal) {
  const Space space = GetParam();
  Network network;
  network.Configure(space, 4);
  ASSERT_TRUE(network.Partition(space, {{2, 3}}).ok());
  EXPECT_TRUE(network.IsReachable(space, 0));
  EXPECT_TRUE(network.IsReachable(space, 1));
  EXPECT_FALSE(network.IsReachable(space, 2));
  EXPECT_FALSE(network.IsReachable(space, 3));
  EXPECT_TRUE(network.IsUp(space, 2));  // cut off, not down
  // Pairs inside one group talk; pairs across the cut do not, and a member
  // is never its own pair.
  EXPECT_TRUE(network.PairReachable(space, 0, 1));
  EXPECT_TRUE(network.PairReachable(space, 2, 3));
  EXPECT_FALSE(network.PairReachable(space, 1, 2));
  EXPECT_FALSE(network.PairReachable(space, 1, 1));
  EXPECT_FALSE(network.PairReachable(space, 0, 4));

  // An unknown id, or one listed twice, is refused and changes nothing.
  EXPECT_EQ(network.Partition(space, {{9}}).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(network.Partition(space, {{0}, {0}}).code(),
            StatusCode::kInvalidArgument);
  EXPECT_FALSE(network.IsReachable(space, 2));
  EXPECT_EQ(network.PartitionCount(), 1u);

  network.Heal(space);
  EXPECT_TRUE(network.IsReachable(space, 2));
  EXPECT_TRUE(network.PairReachable(space, 1, 3));
  EXPECT_EQ(network.HealCount(), 1u);
  EXPECT_DOUBLE_EQ(network.TotalTransferSeconds(), 0.0);
}

TEST_P(MembershipTest, CounterResetKeepsMembershipAndResetRestoresIt) {
  const Space space = GetParam();
  Network network;
  network.Configure(space, 2);
  ASSERT_TRUE(network.Crash(space, 0).ok());
  ASSERT_TRUE(network.Partition(space, {{1}}).ok());
  network.Heal(space);
  ASSERT_TRUE(network.Partition(space, {{1}}).ok());
  const double clock = network.TotalTransferSeconds();

  // ResetFaultCounters zeroes every counter and nothing else.
  network.ResetFaultCounters();
  EXPECT_EQ(network.Counters(space, 0).value().crashes, 0u);
  EXPECT_EQ(network.PartitionCount(), 0u);
  EXPECT_EQ(network.HealCount(), 0u);
  EXPECT_FALSE(network.IsUp(space, 0));
  EXPECT_FALSE(network.IsReachable(space, 1));
  EXPECT_DOUBLE_EQ(network.TotalTransferSeconds(), clock);

  // Reset also rewinds the clock and brings every member back, keeping
  // the member count.
  ASSERT_TRUE(network.Restart(space, 0).ok());
  EXPECT_EQ(network.Counters(space, 0).value().restarts, 1u);
  network.Reset();
  EXPECT_EQ(network.MemberCount(space), 2u);
  EXPECT_EQ(network.Counters(space, 0).value().restarts, 0u);
  EXPECT_TRUE(network.IsReachable(space, 0));
  EXPECT_TRUE(network.IsReachable(space, 1));
  EXPECT_DOUBLE_EQ(network.TotalTransferSeconds(), 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    EverySpace, MembershipTest, ::testing::ValuesIn(kSpaces),
    [](const ::testing::TestParamInfo<Space>& info) -> std::string {
      switch (info.param) {
        case Space::kNode:
          return "Node";
        case Space::kReplica:
          return "Replica";
        case Space::kWorker:
          return "Worker";
      }
      return "Unknown";
    });

TEST(ReplicaPlanTest, ResetKeepsPerReplicaPlansAndReseedsThem) {
  Network network;
  network.Configure(Space::kReplica, 2);
  FaultPlan plan;
  plan.drop_probability = 0.5;
  plan.seed = 7;
  ASSERT_TRUE(network.SetReplicaFaultPlan(0, plan).ok());
  EXPECT_EQ(network.SetReplicaFaultPlan(2, plan).code(),
            StatusCode::kInvalidArgument);
  auto draws = [&network]() {
    std::vector<StatusCode> codes;
    for (int i = 0; i < 32; ++i) {
      codes.push_back(network.TryTransferToReplica(0, 100).status.code());
    }
    return codes;
  };
  const std::vector<StatusCode> first = draws();
  EXPECT_GT(network.Counters(Space::kReplica, 0).value().faults.drops, 0u);

  // The plan survives Reset and its stream starts over; replica 1 stays on
  // the inactive global plan.
  network.Reset();
  EXPECT_EQ(draws(), first);
  EXPECT_TRUE(network.TryTransferToReplica(1, 100).status.ok());

  // Configuring the space again drops the plan.
  network.Configure(Space::kReplica, 2);
  EXPECT_TRUE(network.TryTransferToReplica(0, 100).status.ok());
}

}  // namespace
}  // namespace mmlib::simnet
