#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/recover.h"
#include "dist/flow.h"
#include "docstore/document_store.h"
#include "filestore/file_store.h"
#include "hash/merkle_tree.h"
#include "hash/sha256.h"
#include "models/zoo.h"
#include "repl/replicated_store.h"
#include "repl/scrubber.h"
#include "simnet/network.h"
#include "util/thread_pool.h"

namespace mmlib {
namespace {

using simnet::Space;

/// Seed of the fault plans and schedules below; overridable so CI can sweep
/// several schedules over the same assertions (MMLIB_FAULT_SEED=2 ctest -R
/// replication ...).
uint64_t FaultSeed() {
  const char* env = std::getenv("MMLIB_FAULT_SEED");
  if (env != nullptr && *env != '\0') {
    return std::strtoull(env, nullptr, 10);
  }
  return 0x5eedfa17;
}

/// An N-replica storage cluster: one in-memory backend and one
/// replica-bound remote transport per replica, wrapped by the replicated
/// stores. Optionally gives every replica its own independently seeded
/// fault plan.
struct ReplicatedCluster {
  explicit ReplicatedCluster(size_t n, repl::QuorumConfig config = {},
                             double fault_rate = 0.0,
                             uint64_t fault_seed = 0)
      : network(simnet::Link{1e6, 1e-3}) {
    network.Configure(Space::kReplica, n);
    std::vector<filestore::RemoteFileStore*> file_ptrs;
    std::vector<docstore::RemoteDocumentStore*> doc_ptrs;
    for (size_t r = 0; r < n; ++r) {
      file_backends.push_back(
          std::make_unique<filestore::InMemoryFileStore>());
      doc_backends.push_back(
          std::make_unique<docstore::InMemoryDocumentStore>());
      auto file_transport = std::make_unique<filestore::RemoteFileStore>(
          file_backends.back().get(), &network);
      file_transport->BindReplica(r);
      auto doc_transport = std::make_unique<docstore::RemoteDocumentStore>(
          doc_backends.back().get(), &network);
      doc_transport->BindReplica(r);
      if (fault_rate > 0.0) {
        simnet::FaultPlan plan;
        plan.drop_probability = fault_rate;
        plan.timeout_probability = fault_rate;
        plan.corrupt_probability = fault_rate;
        plan.timeout_seconds = 0.01;
        plan.seed = fault_seed + 0x9e3779b9ULL * (r + 1);
        EXPECT_TRUE(network.SetReplicaFaultPlan(r, plan).ok());
      }
      file_ptrs.push_back(file_transport.get());
      doc_ptrs.push_back(doc_transport.get());
      file_transports.push_back(std::move(file_transport));
      doc_transports.push_back(std::move(doc_transport));
    }
    files = repl::ReplicatedFileStore::Create(file_ptrs, &network, config)
                .value();
    docs = repl::ReplicatedDocumentStore::Create(doc_ptrs, &network, config)
               .value();
  }

  simnet::Network network;
  std::vector<std::unique_ptr<filestore::InMemoryFileStore>> file_backends;
  std::vector<std::unique_ptr<docstore::InMemoryDocumentStore>> doc_backends;
  std::vector<std::unique_ptr<filestore::RemoteFileStore>> file_transports;
  std::vector<std::unique_ptr<docstore::RemoteDocumentStore>> doc_transports;
  std::unique_ptr<repl::ReplicatedFileStore> files;
  std::unique_ptr<repl::ReplicatedDocumentStore> docs;
};

size_t PreferredReplicaOf(const std::string& id, size_t n) {
  return Crc32(reinterpret_cast<const uint8_t*>(id.data()), id.size()) % n;
}

// ---------------------------------------------------------------------------
// Quorum configuration and the healthy write/read path
// ---------------------------------------------------------------------------

TEST(QuorumConfigTest, MajorityDefaultsAndValidation) {
  EXPECT_EQ(repl::QuorumConfig::Majority(1), 1u);
  EXPECT_EQ(repl::QuorumConfig::Majority(3), 2u);
  EXPECT_EQ(repl::QuorumConfig::Majority(5), 3u);

  ReplicatedCluster cluster(3);
  EXPECT_EQ(cluster.files->write_quorum(), 2u);
  EXPECT_EQ(cluster.files->read_quorum(), 2u);
  EXPECT_EQ(cluster.docs->write_quorum(), 2u);

  // Out-of-range quorums are rejected at construction.
  std::vector<filestore::RemoteFileStore*> transports;
  for (const auto& t : cluster.file_transports) {
    transports.push_back(t.get());
  }
  repl::QuorumConfig bad;
  bad.write_quorum = 5;
  EXPECT_EQ(repl::ReplicatedFileStore::Create(transports, &cluster.network,
                                              bad)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(repl::ReplicatedFileStore::Create({}, &cluster.network)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(ReplicatedStoreTest, WritesReplicateEverywhereAndStatsStayLogical) {
  ReplicatedCluster cluster(3);
  const Bytes content(1000, 42);
  const std::string id = cluster.files->SaveFile(content).value();

  for (size_t r = 0; r < 3; ++r) {
    EXPECT_EQ(cluster.file_backends[r]->FileCount(), 1u) << "replica " << r;
    EXPECT_EQ(cluster.file_backends[r]->LoadFile(id).value(), content);
  }
  EXPECT_EQ(cluster.files->LoadFile(id).value(), content);
  // Logical stats report the model store's footprint; physical stats the
  // replication bill.
  EXPECT_EQ(cluster.files->FileCount(), 1u);
  EXPECT_EQ(cluster.files->TotalStoredBytes(), content.size());
  EXPECT_EQ(cluster.files->PhysicalStoredBytes(), 3 * content.size());

  json::Value doc = json::Value::MakeObject();
  doc.Set("kind", std::string("model"));
  const std::string doc_id = cluster.docs->Insert("models", doc).value();
  for (size_t r = 0; r < 3; ++r) {
    EXPECT_EQ(cluster.doc_backends[r]->DocumentCount(), 1u) << "replica " << r;
  }
  EXPECT_EQ(cluster.docs->Get("models", doc_id).value().GetString("kind")
                .value(),
            "model");
  EXPECT_EQ(cluster.docs->DocumentCount(), 1u);
}

// ---------------------------------------------------------------------------
// Degraded writes: one replica down, quorum intact
// ---------------------------------------------------------------------------

TEST(ReplicatedStoreTest, WritesCommitAtQuorumWithOneReplicaDown) {
  ReplicatedCluster cluster(3);
  ASSERT_TRUE(cluster.network.Crash(Space::kReplica, 1).ok());

  const Bytes content(500, 7);
  const std::string id = cluster.files->SaveFile(content).value();
  EXPECT_EQ(cluster.file_backends[0]->LoadFile(id).value(), content);
  EXPECT_EQ(cluster.file_backends[2]->LoadFile(id).value(), content);
  EXPECT_EQ(cluster.file_backends[1]->FileCount(), 0u);
  EXPECT_GT(cluster.files->replica_counters(1).write_skips, 0u);
  EXPECT_EQ(cluster.files->LoadFile(id).value(), content);

  // Once the replica returns, one anti-entropy pass re-copies the miss and
  // converges every replica to identical trees.
  ASSERT_TRUE(cluster.network.Restart(Space::kReplica, 1).ok());
  repl::Scrubber scrubber(cluster.files.get(), cluster.docs.get(),
                          &cluster.network);
  const repl::ScrubReport report = scrubber.ScrubOnce().value();
  EXPECT_GT(report.repaired_files, 0u);
  EXPECT_TRUE(report.converged);
  EXPECT_EQ(cluster.file_backends[1]->LoadFile(id).value(), content);
  EXPECT_GT(cluster.files->replica_counters(1).scrub_repairs, 0u);
}

TEST(ReplicatedStoreTest, BelowQuorumWritesFailFastAndLeaveNoTornState) {
  ReplicatedCluster cluster(3);
  ASSERT_TRUE(cluster.network.Crash(Space::kReplica, 1).ok());
  ASSERT_TRUE(cluster.network.Crash(Space::kReplica, 2).ok());

  const double before_seconds = cluster.network.TotalTransferSeconds();
  const auto saved = cluster.files->SaveFile(Bytes(100, 1));
  EXPECT_EQ(saved.status().code(), StatusCode::kUnavailable);
  // Fail-fast: the reachability precheck decides without burning a retry
  // ladder per replica (six attempts with capped backoff would cost whole
  // virtual seconds).
  EXPECT_LT(cluster.network.TotalTransferSeconds() - before_seconds, 0.5);
  // Nothing stays visible anywhere below quorum.
  for (size_t r = 0; r < 3; ++r) {
    EXPECT_EQ(cluster.file_backends[r]->FileCount(), 0u) << "replica " << r;
  }

  json::Value doc = json::Value::MakeObject();
  doc.Set("k", std::string("v"));
  EXPECT_EQ(cluster.docs->Insert("models", std::move(doc)).status().code(),
            StatusCode::kUnavailable);
  for (size_t r = 0; r < 3; ++r) {
    EXPECT_EQ(cluster.doc_backends[r]->DocumentCount(), 0u);
  }
}

TEST(ReplicatedStoreTest, IdSequenceIsIdenticalHoweverManyReplicasAreUp) {
  // Coordinator-side minting: the id sequence must not depend on replica
  // availability, or healthy and degraded runs would diverge structurally.
  std::vector<std::string> healthy_ids;
  {
    ReplicatedCluster cluster(3);
    for (int i = 0; i < 4; ++i) {
      healthy_ids.push_back(
          cluster.files->SaveFile(Bytes(64, uint8_t(i))).value());
    }
  }
  std::vector<std::string> degraded_ids;
  {
    ReplicatedCluster cluster(3);
    ASSERT_TRUE(cluster.network.Crash(Space::kReplica, 0).ok());
    for (int i = 0; i < 4; ++i) {
      degraded_ids.push_back(
          cluster.files->SaveFile(Bytes(64, uint8_t(i))).value());
    }
  }
  EXPECT_EQ(healthy_ids, degraded_ids);
}

// ---------------------------------------------------------------------------
// Read path: fallback, read-repair, quorum checks
// ---------------------------------------------------------------------------

TEST(ReplicatedStoreTest, ReadFallsBackOnBitRotAndRepairsInPassing) {
  ReplicatedCluster cluster(3);
  const Bytes content(800, 9);
  const std::string id = cluster.files->SaveFile(content).value();

  // Rot the copy on the replica the read path tries first, so the fallback
  // is actually exercised.
  const size_t preferred = PreferredReplicaOf(id, 3);
  Bytes rotted = content;
  rotted[100] ^= 0x40;
  ASSERT_TRUE(cluster.file_backends[preferred]  // lint:allow(no-direct-replica-write) deliberate damage
                  ->WriteAllocated(id, rotted)
                  .ok());

  // The read serves the committed bytes — the write-time digest catches the
  // divergent copy — and rewrites the rotted replica on the way out.
  EXPECT_EQ(cluster.files->LoadFile(id).value(), content);
  EXPECT_GT(cluster.files->replica_counters(preferred).read_fallbacks, 0u);
  EXPECT_EQ(cluster.files->replica_counters(preferred).read_repairs, 1u);
  EXPECT_EQ(cluster.file_backends[preferred]->LoadFile(id).value(), content);
}

TEST(ReplicatedStoreTest, DocumentReadRepairsDivergentReplica) {
  ReplicatedCluster cluster(3);
  json::Value doc = json::Value::MakeObject();
  doc.Set("version", static_cast<int64_t>(2));
  const std::string id = cluster.docs->Insert("models", doc).value();

  const size_t preferred =
      PreferredReplicaOf(repl::ReplicatedDocumentStore::KeyFor("models", id),
                         3);
  json::Value stale = json::Value::MakeObject();
  stale.Set("version", static_cast<int64_t>(1));
  ASSERT_TRUE(
      cluster.doc_backends[preferred]  // lint:allow(no-direct-replica-write) deliberate staleness
          ->InsertWithId("models", id, stale)
          .ok());

  const json::Value served = cluster.docs->Get("models", id).value();
  EXPECT_EQ(served.GetInt("version").value(), 2);
  EXPECT_EQ(cluster.docs->replica_counters(preferred).read_repairs, 1u);
  EXPECT_EQ(cluster.doc_backends[preferred]
                ->Get("models", id)
                .value()
                .GetInt("version")
                .value(),
            2);
}

TEST(ReplicatedStoreTest, ReadsBelowQuorumFailUnavailable) {
  ReplicatedCluster cluster(3);
  const std::string id = cluster.files->SaveFile(Bytes(100, 3)).value();

  ASSERT_TRUE(cluster.network.Partition(Space::kReplica, {{1, 2}}).ok());
  const auto loaded = cluster.files->LoadFile(id);
  EXPECT_EQ(loaded.status().code(), StatusCode::kUnavailable);

  cluster.network.Heal(Space::kReplica);
  EXPECT_EQ(cluster.files->LoadFile(id).value(), Bytes(100, 3));
}

// ---------------------------------------------------------------------------
// simnet: partition groups, per-replica fault streams, scheduled events
// ---------------------------------------------------------------------------

// The partition contract itself (groups, reachability predicates, bad ids,
// Heal) is checked once per node space in simnet_test MembershipTest.
TEST(SimnetReplicaTest, PartitionGroupsGateReachability) {
  simnet::Network network;
  network.Configure(Space::kReplica, 4);
  ASSERT_TRUE(network.Partition(Space::kReplica, {{2, 3}}).ok());

  // Client requests reach group 0 only; replica pairs talk inside a group.
  EXPECT_EQ(network.TryTransferToReplica(2, 100).status.code(),
            StatusCode::kUnavailable);
  EXPECT_TRUE(network.TryTransferToReplica(1, 100).status.ok());
  EXPECT_EQ(network.TryTransferBetweenReplicas(1, 3, 100).status.code(),
            StatusCode::kUnavailable);
  EXPECT_TRUE(network.TryTransferBetweenReplicas(2, 3, 100).status.ok());
  EXPECT_EQ(network.Counters(Space::kReplica, 2).value().rejects, 1u);
  EXPECT_EQ(network.Counters(Space::kReplica, 3).value().rejects, 1u);

  network.Heal(Space::kReplica);
  EXPECT_TRUE(network.TryTransferToReplica(3, 100).status.ok());
}

TEST(SimnetReplicaTest, ReplicaFaultStreamsAreIndependent) {
  simnet::Network network;
  network.Configure(Space::kReplica, 2);
  simnet::FaultPlan noisy;
  noisy.drop_probability = 0.5;
  noisy.seed = FaultSeed();
  ASSERT_TRUE(network.SetReplicaFaultPlan(0, noisy).ok());
  // Replica 1 keeps the (inactive) global plan: no faults at all.
  for (int i = 0; i < 100; ++i) {
    (void)network.TryTransferToReplica(0, 100);
    (void)network.TryTransferToReplica(1, 100);
  }
  EXPECT_GT(network.Counters(Space::kReplica, 0).value().faults.Total(), 0u);
  EXPECT_EQ(network.Counters(Space::kReplica, 1).value().faults.Total(), 0u);
  EXPECT_EQ(network.Counters(Space::kReplica, 7).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(SimnetReplicaTest, ScheduledEventsFireOnTheVirtualClock) {
  simnet::Network network(simnet::Link{1e6, 1e-3});
  network.Configure(Space::kReplica, 2);
  network.Schedule({/*at_seconds=*/1.0, simnet::ReplicaEvent::kCrash, 1});
  network.Schedule({/*at_seconds=*/2.0, simnet::ReplicaEvent::kRestart, 1});
  network.Schedule({4.0, simnet::ReplicaEvent::kPartition, 0, {{0}}});
  network.Schedule({6.0, simnet::ReplicaEvent::kHeal});

  // Before t=1 the replica serves.
  EXPECT_TRUE(network.TryTransferToReplica(1, 100).status.ok());

  network.ChargeSeconds(1.5);  // past the crash, before the restart
  EXPECT_EQ(network.TryTransferToReplica(1, 100).status.code(),
            StatusCode::kUnavailable);
  EXPECT_EQ(network.Counters(Space::kReplica, 1).value().crashes, 1u);

  // Past the restart (t ≈ 2.55; the applied restart itself charges another
  // 0.5 s of reboot time before the message goes out).
  network.ChargeSeconds(1.0);
  EXPECT_TRUE(network.TryTransferToReplica(1, 100).status.ok());
  EXPECT_EQ(network.Counters(Space::kReplica, 1).value().restarts, 1u);

  network.ChargeSeconds(1.0);  // past the partition (t ≈ 4.05)
  network.ApplyDueReplicaEvents();
  EXPECT_FALSE(network.IsReachable(Space::kReplica, 0));
  EXPECT_TRUE(network.IsReachable(Space::kReplica, 1));

  network.ChargeSeconds(2.0);  // past the heal (t ≈ 6.05)
  network.ApplyDueReplicaEvents();
  EXPECT_TRUE(network.IsReachable(Space::kReplica, 0));
}

// ---------------------------------------------------------------------------
// Scrubber: Merkle anti-entropy
// ---------------------------------------------------------------------------

TEST(ScrubberTest, HealthyReplicasMatchByRootExchangeAlone) {
  ReplicatedCluster cluster(3);
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(cluster.files->SaveFile(Bytes(100 + i, uint8_t(i))).ok());
  }
  json::Value doc = json::Value::MakeObject();
  doc.Set("x", static_cast<int64_t>(1));
  ASSERT_TRUE(cluster.docs->Insert("models", std::move(doc)).ok());

  repl::Scrubber scrubber(cluster.files.get(), cluster.docs.get(),
                          &cluster.network);
  const repl::ScrubReport report = scrubber.ScrubOnce().value();
  EXPECT_EQ(report.sessions, 3u);  // pairs (0,1) (0,2) (1,2)
  // Every session matched roots for both stores: 32 bytes each way, no
  // descent, no repairs.
  EXPECT_EQ(report.root_matches, 6u);
  EXPECT_EQ(report.bucket_comparisons, 0u);
  EXPECT_EQ(report.repaired_files, 0u);
  EXPECT_EQ(report.repaired_documents, 0u);
  EXPECT_TRUE(report.converged);
}

TEST(ScrubberTest, BitRotHealsWithoutAnyReadObservingIt) {
  ReplicatedCluster cluster(3);
  std::vector<std::string> ids;
  std::vector<Bytes> contents;
  for (int i = 0; i < 6; ++i) {
    contents.emplace_back(200 + 17 * i, uint8_t(i + 1));
    ids.push_back(cluster.files->SaveFile(contents.back()).value());
  }

  // Bit-rot on replica 2: two files silently damaged at rest.
  for (size_t k = 0; k < 2; ++k) {
    Bytes rotted = contents[k];
    rotted[rotted.size() / 2] ^= 0x01;
    ASSERT_TRUE(cluster.file_backends[2]  // lint:allow(no-direct-replica-write) deliberate bit-rot
                    ->WriteAllocated(ids[k], rotted)
                    .ok());
  }

  repl::Scrubber scrubber(cluster.files.get(), cluster.docs.get(),
                          &cluster.network);
  const repl::ScrubReport report = scrubber.ScrubOnce().value();
  EXPECT_GE(report.repaired_files, 2u);
  EXPECT_GT(report.bucket_comparisons, 0u);
  EXPECT_TRUE(report.converged);
  EXPECT_EQ(report.unresolved, 0u);

  // The damage healed replica-to-replica: no client read ever saw it, and
  // reads afterwards find every copy intact.
  for (size_t r = 0; r < 3; ++r) {
    EXPECT_EQ(cluster.files->replica_counters(r).read_fallbacks, 0u);
  }
  for (size_t k = 0; k < ids.size(); ++k) {
    EXPECT_EQ(cluster.files->LoadFile(ids[k]).value(), contents[k]);
  }
  for (size_t r = 0; r < 3; ++r) {
    EXPECT_EQ(cluster.files->replica_counters(r).read_fallbacks, 0u)
        << "replica " << r << " served damaged bytes after the scrub";
  }
}

TEST(ScrubberTest, QuorumDeleteTombstoneWinsOverStragglerCopy) {
  ReplicatedCluster cluster(3);
  const Bytes content(300, 5);
  const std::string id = cluster.files->SaveFile(content).value();

  // Replica 1 misses the delete; its copy becomes a straggler.
  ASSERT_TRUE(cluster.network.Crash(Space::kReplica, 1).ok());
  ASSERT_TRUE(cluster.files->Delete(id).ok());
  ASSERT_TRUE(cluster.network.Restart(Space::kReplica, 1).ok());
  ASSERT_EQ(cluster.file_backends[1]->FileCount(), 1u);

  // Anti-entropy must re-delete the straggler, not re-spread it.
  repl::Scrubber scrubber(cluster.files.get(), cluster.docs.get(),
                          &cluster.network);
  const repl::ScrubReport report = scrubber.ScrubOnce().value();
  EXPECT_GT(report.repaired_files, 0u);
  EXPECT_TRUE(report.converged);
  for (size_t r = 0; r < 3; ++r) {
    EXPECT_EQ(cluster.file_backends[r]->FileCount(), 0u) << "replica " << r;
  }
  EXPECT_EQ(cluster.files->LoadFile(id).status().code(),
            StatusCode::kNotFound);
}

TEST(ScrubberTest, SkipsUnreachablePairsAndCatchesUpAfterHeal) {
  ReplicatedCluster cluster(3);
  const std::string id = cluster.files->SaveFile(Bytes(100, 8)).value();
  ASSERT_TRUE(cluster.network.Crash(Space::kReplica, 2).ok());
  Bytes rotted(100, 8);
  rotted[3] ^= 0x02;
  ASSERT_TRUE(cluster.file_backends[2]  // lint:allow(no-direct-replica-write) deliberate bit-rot
                  ->WriteAllocated(id, rotted)
                  .ok());

  repl::Scrubber scrubber(cluster.files.get(), cluster.docs.get(),
                          &cluster.network);
  const repl::ScrubReport down = scrubber.ScrubOnce().value();
  EXPECT_EQ(down.sessions, 1u);  // only (0,1) can talk
  EXPECT_FALSE(down.converged);  // replica 2 still diverges

  ASSERT_TRUE(cluster.network.Restart(Space::kReplica, 2).ok());
  const repl::ScrubReport healed = scrubber.ScrubOnce().value();
  EXPECT_EQ(healed.sessions, 3u);
  EXPECT_TRUE(healed.converged);
  EXPECT_EQ(cluster.file_backends[2]->LoadFile(id).value(), Bytes(100, 8));
  EXPECT_EQ(scrubber.lifetime().sessions, 4u);
}

// ---------------------------------------------------------------------------
// Property suite: DIST-5 flows over a degraded replica set
// ---------------------------------------------------------------------------

struct ReplicatedFlowOutcome {
  bool ok = false;
  StatusCode code = StatusCode::kOk;
  std::vector<std::string> model_ids;
  std::string last_params_hash;
  std::vector<uint64_t> write_skips;      // per replica, files + docs
  std::vector<uint64_t> scrub_repairs;    // per replica, files + docs
  uint64_t scrub_sessions = 0;
  bool scrub_converged = false;
  uint64_t messages = 0;
  uint64_t replica_crashes = 0;
  double seconds = 0.0;
};

struct DegradedSchedule {
  bool enabled = false;
  double crash_seconds = 0.0;
  double restart_seconds = 0.0;
  std::vector<size_t> crash_replicas;
  bool restart = true;
};

/// Runs the DIST-5 evaluation flow (5 nodes, 2 iterations, simulated
/// training) with all storage behind R=3 W=R=2 replicated stores, each
/// replica on its own independently seeded flaky link, scrubbing after
/// every iteration. Optionally degrades the run by crashing replicas on the
/// virtual clock mid-flow.
ReplicatedFlowOutcome RunReplicatedDistFlow(size_t pool_size, uint64_t seed,
                                            const DegradedSchedule& schedule) {
  repl::QuorumConfig quorum;
  quorum.write_quorum = 2;
  quorum.read_quorum = 2;
  ReplicatedCluster cluster(3, quorum, /*fault_rate=*/0.01,
                            /*fault_seed=*/seed);
  if (schedule.enabled) {
    for (size_t replica : schedule.crash_replicas) {
      cluster.network.Schedule(
          {schedule.crash_seconds, simnet::ReplicaEvent::kCrash, replica});
      if (schedule.restart) {
        cluster.network.Schedule({schedule.restart_seconds,
                                  simnet::ReplicaEvent::kRestart, replica});
      }
    }
  }
  util::ThreadPool pool(pool_size);
  core::StorageBackends backends{cluster.docs.get(), cluster.files.get(),
                                 &cluster.network, &pool};

  dist::FlowConfig config;
  config.approach = dist::ApproachKind::kBaseline;
  config.model = models::DefaultConfig(models::Architecture::kMobileNetV2);
  config.model.channel_divisor = 8;
  config.model.image_size = 28;
  config.model.num_classes = 125;
  config.num_nodes = 5;
  config.u3_iterations = 2;
  config.dataset_divisor = 4096;
  config.training_mode = dist::TrainingMode::kSimulated;
  config.recover_models = true;
  config.scrub_every_iterations = 1;

  dist::EvaluationFlow flow(config, backends);
  auto result = flow.Run();

  ReplicatedFlowOutcome outcome;
  outcome.ok = result.ok();
  outcome.code = result.status().code();
  outcome.messages = cluster.network.MessageCount();
  for (size_t r = 0; r < 3; ++r) {
    outcome.replica_crashes +=
        cluster.network.Counters(Space::kReplica, r).value().crashes;
  }
  outcome.seconds = cluster.network.TotalTransferSeconds();
  if (!result.ok()) {
    return outcome;
  }
  for (const dist::UseCaseRecord& record : result->records) {
    outcome.model_ids.push_back(record.model_id);
    EXPECT_TRUE(record.recovered) << record.label;
  }
  outcome.write_skips.resize(result->replica_counters.size());
  outcome.scrub_repairs.resize(result->replica_counters.size());
  for (size_t r = 0; r < result->replica_counters.size(); ++r) {
    outcome.write_skips[r] = result->replica_counters[r].write_skips;
    outcome.scrub_repairs[r] = result->replica_counters[r].scrub_repairs;
  }
  outcome.scrub_sessions = result->scrub.sessions;
  outcome.scrub_converged = result->scrub.converged;

  core::ModelRecoverer recoverer(backends);
  auto last = recoverer.Recover(result->records.back().model_id,
                                core::RecoverOptions{});
  EXPECT_TRUE(last.ok()) << last.status();
  if (last.ok()) {
    outcome.last_params_hash = last->model.ParamsHash().ToHex();
  }
  return outcome;
}

TEST(ReplicatedFlowTest, DegradedFlowIsBitIdenticalToHealthyRun) {
  const uint64_t seed = FaultSeed();
  const ReplicatedFlowOutcome healthy =
      RunReplicatedDistFlow(/*pool_size=*/1, seed, DegradedSchedule{});
  ASSERT_TRUE(healthy.ok);
  ASSERT_EQ(healthy.model_ids.size(), 22u);  // 2 + 5 nodes * 2 * 2 iters
  ASSERT_FALSE(healthy.last_params_hash.empty());
  EXPECT_TRUE(healthy.scrub_converged);

  // Kill replica 1 a quarter of the way through (virtual time), bring it
  // back at the halfway mark. W = R = 2 of 3 holds throughout.
  DegradedSchedule schedule;
  schedule.enabled = true;
  schedule.crash_replicas = {1};
  schedule.crash_seconds = healthy.seconds * 0.25;
  schedule.restart_seconds = healthy.seconds * 0.5;
  const ReplicatedFlowOutcome degraded =
      RunReplicatedDistFlow(/*pool_size=*/1, seed, schedule);
  ASSERT_TRUE(degraded.ok);

  // The degradation really happened: the scheduled crash fired and writes
  // in the outage window committed at quorum without replica 1...
  EXPECT_EQ(degraded.replica_crashes, 1u);
  EXPECT_GT(degraded.write_skips[1], healthy.write_skips[1]);
  // ...the scrubber re-copied the misses and converged the replicas...
  EXPECT_GT(degraded.scrub_repairs[1], 0u);
  EXPECT_TRUE(degraded.scrub_converged);
  // ...and the flow's outputs are bit-identical to the healthy run.
  EXPECT_EQ(degraded.model_ids, healthy.model_ids);
  EXPECT_EQ(degraded.last_params_hash, healthy.last_params_hash);
}

TEST(ReplicatedFlowTest, DegradedFlowIsDeterministicAcrossPoolSizes) {
  const uint64_t seed = FaultSeed();
  const ReplicatedFlowOutcome probe =
      RunReplicatedDistFlow(/*pool_size=*/1, seed, DegradedSchedule{});
  ASSERT_TRUE(probe.ok);

  DegradedSchedule schedule;
  schedule.enabled = true;
  schedule.crash_replicas = {2};
  schedule.crash_seconds = probe.seconds * 0.3;
  schedule.restart_seconds = probe.seconds * 0.55;

  const ReplicatedFlowOutcome serial =
      RunReplicatedDistFlow(/*pool_size=*/1, seed, schedule);
  ASSERT_TRUE(serial.ok);
  const ReplicatedFlowOutcome repeat =
      RunReplicatedDistFlow(/*pool_size=*/1, seed, schedule);
  const ReplicatedFlowOutcome parallel =
      RunReplicatedDistFlow(/*pool_size=*/8, seed, schedule);
  for (const ReplicatedFlowOutcome* other : {&repeat, &parallel}) {
    ASSERT_TRUE(other->ok);
    EXPECT_EQ(serial.model_ids, other->model_ids);
    EXPECT_EQ(serial.last_params_hash, other->last_params_hash);
    EXPECT_EQ(serial.write_skips, other->write_skips);
    EXPECT_EQ(serial.scrub_repairs, other->scrub_repairs);
    EXPECT_EQ(serial.scrub_sessions, other->scrub_sessions);
    EXPECT_EQ(serial.messages, other->messages);
    EXPECT_EQ(serial.replica_crashes, other->replica_crashes);
    EXPECT_EQ(serial.seconds, other->seconds);
  }
}

TEST(ReplicatedFlowTest, BelowQuorumFlowFailsUnavailableNotHangsOrTears) {
  const uint64_t seed = FaultSeed();
  const ReplicatedFlowOutcome probe =
      RunReplicatedDistFlow(/*pool_size=*/1, seed, DegradedSchedule{});
  ASSERT_TRUE(probe.ok);

  // Two of three replicas die mid-flow and never return: W = 2 becomes
  // unreachable, and the flow must fail fast with Unavailable — not hang in
  // retry ladders and not complete against a single replica.
  DegradedSchedule schedule;
  schedule.enabled = true;
  schedule.crash_replicas = {1, 2};
  schedule.crash_seconds = probe.seconds * 0.25;
  schedule.restart = false;
  const ReplicatedFlowOutcome outcome =
      RunReplicatedDistFlow(/*pool_size=*/1, seed, schedule);
  EXPECT_FALSE(outcome.ok);
  EXPECT_EQ(outcome.code, StatusCode::kUnavailable);
  // Fail-fast bound: the run ends within a small multiple of the healthy
  // flow's virtual time instead of compounding per-replica backoff ladders.
  EXPECT_LT(outcome.seconds, probe.seconds * 3.0);
}


// ---------------------------------------------------------------------------
// Document-side twins of the scrubber and delete paths
// ---------------------------------------------------------------------------

json::Value VersionDoc(int64_t version) {
  json::Value doc = json::Value::MakeObject();
  doc.Set("version", version);
  return doc;
}

TEST(ScrubberTest, DocumentBitRotHealsWithoutAnyReadObservingIt) {
  ReplicatedCluster cluster(3);
  std::vector<std::string> ids;
  for (int64_t i = 0; i < 4; ++i) {
    ids.push_back(cluster.docs->Insert("models", VersionDoc(i)).value());
  }
  // Replica 1 silently holds a stale copy of one document.
  ASSERT_TRUE(cluster.doc_backends[1]  // lint:allow(no-direct-replica-write) deliberate bit-rot
                  ->InsertWithId("models", ids[2], VersionDoc(99))
                  .ok());

  repl::Scrubber scrubber(cluster.files.get(), cluster.docs.get(),
                          &cluster.network);
  const repl::ScrubReport report = scrubber.ScrubOnce().value();
  EXPECT_GT(report.repaired_documents, 0u);
  EXPECT_EQ(report.repaired_files, 0u);
  EXPECT_EQ(report.unresolved, 0u);
  EXPECT_TRUE(report.converged);
  EXPECT_GT(cluster.docs->replica_counters(1).scrub_repairs, 0u);
  EXPECT_EQ(cluster.doc_backends[1]
                ->Get("models", ids[2])
                .value()
                .GetInt("version")
                .value(),
            2);
  for (size_t r = 0; r < 3; ++r) {
    EXPECT_EQ(cluster.docs->replica_counters(r).read_fallbacks, 0u);
  }
}

TEST(ScrubberTest, DocumentQuorumDeleteTombstoneWinsOverStragglerCopy) {
  ReplicatedCluster cluster(3);
  const std::string id =
      cluster.docs->Insert("models", VersionDoc(1)).value();

  // Replica 0 misses the delete; its copy becomes a straggler.
  ASSERT_TRUE(cluster.network.Crash(Space::kReplica, 0).ok());
  ASSERT_TRUE(cluster.docs->Delete("models", id).ok());
  ASSERT_TRUE(cluster.network.Restart(Space::kReplica, 0).ok());
  ASSERT_EQ(cluster.doc_backends[0]->DocumentCount(), 1u);

  repl::Scrubber scrubber(cluster.files.get(), cluster.docs.get(),
                          &cluster.network);
  const repl::ScrubReport report = scrubber.ScrubOnce().value();
  EXPECT_GT(report.repaired_documents, 0u);
  EXPECT_TRUE(report.converged);
  for (size_t r = 0; r < 3; ++r) {
    EXPECT_EQ(cluster.doc_backends[r]->DocumentCount(), 0u) << "replica " << r;
  }
  EXPECT_EQ(cluster.docs->Get("models", id).status().code(),
            StatusCode::kNotFound);
}

TEST(ScrubberTest, MajorityVoteRepairsWithoutWriteTimeDigests) {
  ReplicatedCluster cluster(3);
  const Bytes content(250, 6);
  const std::string file_id = cluster.files->SaveFile(content).value();
  const std::string doc_id =
      cluster.docs->Insert("models", VersionDoc(3)).value();
  Bytes rotted = content;
  rotted[17] ^= 0x10;
  ASSERT_TRUE(cluster.file_backends[2]  // lint:allow(no-direct-replica-write) deliberate bit-rot
                  ->WriteAllocated(file_id, rotted)
                  .ok());
  ASSERT_TRUE(cluster.doc_backends[0]  // lint:allow(no-direct-replica-write) deliberate bit-rot
                  ->InsertWithId("models", doc_id, VersionDoc(4))
                  .ok());

  // A fresh coordinator over the same replicas has no write-time digest
  // and no tombstone: the two agreeing replicas outvote the damaged one.
  std::vector<filestore::RemoteFileStore*> file_ptrs;
  std::vector<docstore::RemoteDocumentStore*> doc_ptrs;
  for (size_t r = 0; r < 3; ++r) {
    file_ptrs.push_back(cluster.file_transports[r].get());
    doc_ptrs.push_back(cluster.doc_transports[r].get());
  }
  auto files =
      repl::ReplicatedFileStore::Create(file_ptrs, &cluster.network).value();
  auto docs =
      repl::ReplicatedDocumentStore::Create(doc_ptrs, &cluster.network)
          .value();
  ASSERT_EQ(files->FindExpectedDigest(file_id), nullptr);
  ASSERT_EQ(docs->FindExpectedDigest(
                repl::ReplicatedDocumentStore::KeyFor("models", doc_id)),
            nullptr);

  repl::Scrubber scrubber(files.get(), docs.get(), &cluster.network);
  const repl::ScrubReport report = scrubber.ScrubOnce().value();
  EXPECT_GT(report.repaired_files, 0u);
  EXPECT_GT(report.repaired_documents, 0u);
  EXPECT_EQ(report.unresolved, 0u);
  EXPECT_TRUE(report.converged);
  EXPECT_GT(files->replica_counters(2).scrub_repairs, 0u);
  EXPECT_GT(docs->replica_counters(0).scrub_repairs, 0u);
  EXPECT_EQ(cluster.file_backends[2]->LoadFile(file_id).value(), content);
  EXPECT_EQ(cluster.doc_backends[0]
                ->Get("models", doc_id)
                .value()
                .GetInt("version")
                .value(),
            3);
}

TEST(ReplicatedStoreTest, DocumentDeleteBelowQuorumFailsUnavailable) {
  ReplicatedCluster cluster(3);
  const std::string id =
      cluster.docs->Insert("models", VersionDoc(1)).value();
  ASSERT_TRUE(cluster.network.Crash(Space::kReplica, 0).ok());
  ASSERT_TRUE(cluster.network.Crash(Space::kReplica, 2).ok());

  EXPECT_EQ(cluster.docs->Delete("models", id).code(),
            StatusCode::kUnavailable);
  // Nothing was deleted anywhere, and no tombstone was recorded.
  for (size_t r = 0; r < 3; ++r) {
    EXPECT_EQ(cluster.doc_backends[r]->DocumentCount(), 1u) << "replica " << r;
  }
  EXPECT_FALSE(cluster.docs->IsTombstoned(
      repl::ReplicatedDocumentStore::KeyFor("models", id)));

  ASSERT_TRUE(cluster.network.Restart(Space::kReplica, 0).ok());
  ASSERT_TRUE(cluster.network.Restart(Space::kReplica, 2).ok());
  EXPECT_EQ(cluster.docs->Get("models", id).value().GetInt("version").value(),
            1);
}

// ---------------------------------------------------------------------------
// Golden traffic: one scripted R=3 scenario, pinned message for message
// ---------------------------------------------------------------------------

/// Expected per-replica counters of one replicated store.
struct CounterRow {
  uint64_t read_fallbacks;
  uint64_t read_repairs;
  uint64_t write_skips;
  uint64_t scrub_repairs;
};

template <typename Store>
void ExpectCounters(const Store& store, const std::vector<CounterRow>& want,
                    const char* what) {
  ASSERT_EQ(store.replica_count(), want.size());
  for (size_t r = 0; r < want.size(); ++r) {
    const repl::ReplicaCounters& got = store.replica_counters(r);
    EXPECT_EQ(got.read_fallbacks, want[r].read_fallbacks) << what << " " << r;
    EXPECT_EQ(got.read_repairs, want[r].read_repairs) << what << " " << r;
    EXPECT_EQ(got.write_skips, want[r].write_skips) << what << " " << r;
    EXPECT_EQ(got.scrub_repairs, want[r].scrub_repairs) << what << " " << r;
  }
}

/// Drives the replicated stores directly through every quorum path —
/// degraded writes, at-rest damage with fallback and read-repair, in-flight
/// damage with the file re-check, a hedged read, a quorum delete that
/// leaves stragglers, a scrub, and a second coordinator that adopts digests
/// — and pins the resulting traffic exactly. Any change to the order or
/// size of a replica call moves one of these numbers.
TEST(ReplicationGoldenTest, ScriptedScenarioTrafficIsPinned) {
  ReplicatedCluster cluster(3);
  repl::ReplicatedFileStore& files = *cluster.files;
  repl::ReplicatedDocumentStore& docs = *cluster.docs;

  // Quorum writes while replica 2 is down.
  ASSERT_TRUE(cluster.network.Crash(Space::kReplica, 2).ok());
  std::vector<Bytes> contents;
  std::vector<std::string> file_ids;
  for (int i = 0; i < 5; ++i) {
    contents.emplace_back(300 + 41 * i, uint8_t(i + 1));
    file_ids.push_back(files.SaveFile(contents.back()).value());
  }
  std::vector<std::string> doc_ids;
  for (int64_t i = 0; i < 3; ++i) {
    doc_ids.push_back(docs.Insert("models", VersionDoc(i)).value());
  }
  ASSERT_TRUE(cluster.network.Restart(Space::kReplica, 2).ok());

  // At-rest damage on each entry's preferred replica, then reads: fallback
  // to a good copy and read-repair of the damaged and the missing ones.
  Bytes rotted = contents[0];
  rotted[10] ^= 0x01;
  ASSERT_TRUE(cluster.file_backends[PreferredReplicaOf(file_ids[0], 3)]  // lint:allow(no-direct-replica-write) deliberate bit-rot
                  ->WriteAllocated(file_ids[0], rotted)
                  .ok());
  const size_t doc_home = PreferredReplicaOf(
      repl::ReplicatedDocumentStore::KeyFor("models", doc_ids[0]), 3);
  ASSERT_TRUE(cluster.doc_backends[doc_home]  // lint:allow(no-direct-replica-write) deliberate bit-rot
                  ->InsertWithId("models", doc_ids[0], VersionDoc(50))
                  .ok());
  EXPECT_EQ(files.LoadFile(file_ids[0]).value(), contents[0]);
  EXPECT_EQ(docs.Get("models", doc_ids[0]).value().GetInt("version").value(),
            0);
  EXPECT_EQ(docs.Get("models", doc_ids[2]).value().GetInt("version").value(),
            2);

  // A flaky link to one replica damages payloads in flight: the file read
  // asks the server for its digest and re-fetches.
  const size_t flaky_replica = PreferredReplicaOf(file_ids[1], 3);
  simnet::FaultPlan flaky;
  flaky.corrupt_probability = 0.5;
  flaky.seed = 4;
  ASSERT_TRUE(cluster.network.SetReplicaFaultPlan(flaky_replica, flaky).ok());
  for (int round = 0; round < 3; ++round) {
    for (size_t k = 1; k < 4; ++k) {
      EXPECT_EQ(files.LoadFile(file_ids[k]).value(), contents[k]);
    }
  }
  ASSERT_TRUE(
      cluster.network.SetReplicaFaultPlan(flaky_replica, simnet::FaultPlan{})
          .ok());

  // A hedged read whose primary copy is damaged at rest.
  Bytes rotted_hedge = contents[4];
  rotted_hedge[3] ^= 0x80;
  ASSERT_TRUE(cluster.file_backends[PreferredReplicaOf(file_ids[4], 3)]  // lint:allow(no-direct-replica-write) deliberate bit-rot
                  ->WriteAllocated(file_ids[4], rotted_hedge)
                  .ok());
  EXPECT_EQ(files.LoadFileHedged(file_ids[4], 0.0).value(), contents[4]);

  // Quorum deletes while replica 1 is down leave straggler copies there.
  ASSERT_TRUE(cluster.network.Crash(Space::kReplica, 1).ok());
  EXPECT_TRUE(files.Delete(file_ids[1]).ok());
  EXPECT_TRUE(docs.Delete("models", doc_ids[1]).ok());
  ASSERT_TRUE(cluster.network.Restart(Space::kReplica, 1).ok());

  // One anti-entropy pass heals the misses, the rot and the stragglers.
  repl::Scrubber scrubber(&files, &docs, &cluster.network);
  const repl::ScrubReport report = scrubber.ScrubOnce().value();

  // A second coordinator over the same replicas knows no digest: its reads
  // adopt one, digest queries and listings go to the replicas.
  std::vector<filestore::RemoteFileStore*> file_ptrs;
  std::vector<docstore::RemoteDocumentStore*> doc_ptrs;
  for (size_t r = 0; r < 3; ++r) {
    file_ptrs.push_back(cluster.file_transports[r].get());
    doc_ptrs.push_back(cluster.doc_transports[r].get());
  }
  auto fresh_files =
      repl::ReplicatedFileStore::Create(file_ptrs, &cluster.network).value();
  auto fresh_docs =
      repl::ReplicatedDocumentStore::Create(doc_ptrs, &cluster.network)
          .value();
  EXPECT_TRUE(fresh_files->ContentDigest(file_ids[2]).ok());
  EXPECT_EQ(fresh_files->LoadFile(file_ids[3]).value(), contents[3]);
  fresh_files->ReportDamaged(file_ids[3]);
  EXPECT_EQ(fresh_files->LoadFile(file_ids[3]).value(), contents[3]);
  EXPECT_EQ(fresh_files->FileSize(file_ids[0]).value(), contents[0].size());
  EXPECT_EQ(fresh_files->ListFileIds().value().size(), 4u);
  EXPECT_EQ(fresh_files->LoadFile(file_ids[1]).status().code(),
            StatusCode::kNotFound);
  EXPECT_TRUE(fresh_docs->DocumentDigest("models", doc_ids[2]).ok());
  EXPECT_EQ(
      fresh_docs->Get("models", doc_ids[0]).value().GetInt("version").value(),
      0);
  EXPECT_EQ(fresh_docs->ListIds("models").value().size(), 2u);
  EXPECT_EQ(fresh_docs->ListCollections().value().size(), 1u);
  EXPECT_EQ(fresh_docs->Get("models", doc_ids[1]).status().code(),
            StatusCode::kNotFound);

  EXPECT_EQ(cluster.network.MessageCount(), 202u);
  EXPECT_EQ(cluster.network.TotalBytes(), 21917u);
  EXPECT_EQ(std::bit_cast<uint64_t>(cluster.network.TotalTransferSeconds()),
            4614275793520973952u);

  ExpectCounters(files, {{2, 1, 0, 0}, {3, 2, 1, 1}, {3, 3, 5, 2}}, "file");
  ExpectCounters(docs, {{0, 0, 0, 0}, {0, 0, 1, 1}, {2, 1, 3, 1}}, "doc");
  ExpectCounters(*fresh_files, {{1, 0, 0, 0}, {1, 0, 0, 0}, {1, 0, 0, 0}},
                 "fresh file");
  ExpectCounters(*fresh_docs, {{1, 0, 0, 0}, {1, 0, 0, 0}, {1, 0, 0, 0}},
                 "fresh doc");
  // The hedge copy is missing (its replica was down during the writes), so
  // neither fetch verifies and the read falls through to the quorum path.
  EXPECT_EQ(files.hedged_read_count(), 1u);
  EXPECT_EQ(files.hedge_issued_count(), 1u);
  EXPECT_EQ(files.hedge_win_count(), 0u);

  EXPECT_EQ(report.sessions, 3u);
  EXPECT_EQ(report.root_matches, 2u);
  EXPECT_EQ(report.bucket_comparisons, 60u);
  EXPECT_EQ(report.repaired_files, 3u);
  EXPECT_EQ(report.repaired_documents, 2u);
  EXPECT_EQ(report.unresolved, 0u);
  EXPECT_TRUE(report.converged);
}

}  // namespace
}  // namespace mmlib
