#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/baseline.h"
#include "core/model_code.h"
#include "core/recover.h"
#include "docstore/document_store.h"
#include "env/environment.h"
#include "filestore/file_store.h"
#include "models/zoo.h"
#include "repl/replicated_store.h"
#include "serve/backend.h"
#include "serve/breaker.h"
#include "serve/core_backend.h"
#include "serve/frontend.h"
#include "serve/queue.h"
#include "serve/workload.h"
#include "simnet/network.h"
#include "simnet/retry.h"

namespace mmlib {
namespace {

using simnet::Space;

/// Overridable so CI can sweep several fault schedules over the same
/// assertions (MMLIB_FAULT_SEED=3 ctest -R serving ...).
uint64_t FaultSeed() {
  const char* env = std::getenv("MMLIB_FAULT_SEED");
  if (env != nullptr && *env != '\0') {
    return std::strtoull(env, nullptr, 10);
  }
  return 0x5eedfa17;
}

// ---------------------------------------------------------------------------
// Circuit breaker state machine

TEST(CircuitBreakerTest, TripsHalfOpensAndRecovers) {
  serve::BreakerOptions options;
  options.failure_threshold = 3;
  options.open_seconds = 1.0;
  serve::CircuitBreaker breaker(options);
  EXPECT_EQ(serve::CircuitBreaker::kRecoveryThreshold, 2);

  // Closed: requests flow, failures accumulate.
  EXPECT_EQ(breaker.state(), serve::CircuitBreaker::State::kClosed);
  EXPECT_TRUE(breaker.Allow(0.0));
  breaker.RecordFailure(0.0);
  breaker.RecordFailure(0.1);
  EXPECT_EQ(breaker.state(), serve::CircuitBreaker::State::kClosed);
  // A success resets the consecutive-failure count.
  breaker.RecordSuccess(0.2);
  breaker.RecordFailure(0.3);
  breaker.RecordFailure(0.4);
  EXPECT_EQ(breaker.state(), serve::CircuitBreaker::State::kClosed);
  breaker.RecordFailure(0.5);
  EXPECT_EQ(breaker.state(), serve::CircuitBreaker::State::kOpen);
  EXPECT_EQ(breaker.trip_count(), 1u);

  // Open: fast rejects until the cooldown elapses.
  EXPECT_FALSE(breaker.Allow(0.6));
  EXPECT_FALSE(breaker.Allow(1.4));
  EXPECT_EQ(breaker.fast_reject_count(), 2u);

  // Cooldown over: exactly one probe is admitted (half-open).
  EXPECT_TRUE(breaker.Allow(1.6));
  EXPECT_EQ(breaker.state(), serve::CircuitBreaker::State::kHalfOpen);
  EXPECT_FALSE(breaker.Allow(1.7));  // probe in flight, others rejected

  // Probe fails: back to open, cooldown restarts.
  breaker.RecordFailure(1.8);
  EXPECT_EQ(breaker.state(), serve::CircuitBreaker::State::kOpen);
  EXPECT_EQ(breaker.trip_count(), 2u);
  EXPECT_FALSE(breaker.Allow(2.0));

  // Next probe succeeds twice: recovered.
  EXPECT_TRUE(breaker.Allow(3.0));
  breaker.RecordSuccess(3.1);
  EXPECT_EQ(breaker.state(), serve::CircuitBreaker::State::kHalfOpen);
  EXPECT_TRUE(breaker.Allow(3.2));
  breaker.RecordSuccess(3.3);
  EXPECT_EQ(breaker.state(), serve::CircuitBreaker::State::kClosed);
  EXPECT_EQ(breaker.recovery_count(), 1u);
  EXPECT_TRUE(breaker.Allow(3.4));
}

// ---------------------------------------------------------------------------
// Bounded queues + DRR fairness

TEST(TenantQueuesTest, AdmissionIsBounded) {
  serve::QueueOptions options;
  options.per_tenant_capacity = 3;
  serve::TenantQueues queues(2, options);
  serve::Request request;
  request.tenant = 0;
  EXPECT_TRUE(queues.Admit(request));
  EXPECT_TRUE(queues.Admit(request));
  EXPECT_TRUE(queues.Admit(request));
  EXPECT_FALSE(queues.Admit(request));  // full: shed
  request.tenant = 1;
  EXPECT_TRUE(queues.Admit(request));  // other tenant unaffected
}

TEST(TenantQueuesTest, DeficitRoundRobinInterleavesTenants) {
  serve::QueueOptions options;
  options.per_tenant_capacity = 16;
  serve::TenantQueues queues(2, options);
  serve::Request request;
  for (uint64_t i = 0; i < 10; ++i) {
    request.sequence = i;
    request.tenant = 0;
    ASSERT_TRUE(queues.Admit(request));
  }
  for (uint64_t i = 10; i < 16; ++i) {
    request.sequence = i;
    request.tenant = 1;
    ASSERT_TRUE(queues.Admit(request));
  }
  // Quantum 4: four per tenant and visit while both are backlogged; the
  // rest of tenant 0 once tenant 1 is drained.
  EXPECT_EQ(serve::TenantQueues::kDrrQuantum, 4u);
  std::vector<uint32_t> order;
  serve::Request out;
  while (queues.PopNext(&out)) {
    order.push_back(out.tenant);
  }
  const std::vector<uint32_t> expected = {0, 0, 0, 0, 1, 1, 1, 1,
                                          0, 0, 0, 0, 1, 1, 0, 0};
  EXPECT_EQ(order, expected);
}

// ---------------------------------------------------------------------------
// Serving scenarios over simnet

enum class Degradation { kNone, kReplicaCrash, kMinorityPartition };

/// One seeded serving run: 3 coordinator nodes over 3 simulated backends,
/// each bound to a simnet replica, with the requested mid-run degradation.
serve::ServeReport RunScenario(Degradation degradation, uint64_t seed,
                               double rate = 1500.0,
                               double tenant_skew = 1.0) {
  simnet::Network network(simnet::Link{1e9, 1e-4});
  network.Configure(Space::kReplica, 3);
  switch (degradation) {
    case Degradation::kNone:
      break;
    case Degradation::kReplicaCrash:
      network.Schedule({1.0, simnet::ReplicaEvent::kCrash, 1});
      network.Schedule({3.0, simnet::ReplicaEvent::kRestart, 1});
      break;
    case Degradation::kMinorityPartition:
      network.Schedule({1.0, simnet::ReplicaEvent::kPartition, 0, {{2}}});
      network.Schedule({3.0, simnet::ReplicaEvent::kHeal});
      break;
  }

  serve::SimulatedBackendOptions backend_options;
  backend_options.seed = seed ^ 0xbacULL;
  std::vector<std::unique_ptr<serve::SimulatedBackend>> backends;
  std::vector<serve::ServeBackend*> backend_ptrs;
  for (size_t r = 0; r < 3; ++r) {
    backends.push_back(std::make_unique<serve::SimulatedBackend>(
        backend_options, &network, r));
    backend_ptrs.push_back(backends.back().get());
  }

  serve::FrontendOptions options;
  options.node_count = 3;
  options.workers_per_node = 4;
  options.tenant_count = 4;
  options.queue.per_tenant_capacity = 32;
  options.breaker.failure_threshold = 4;
  options.breaker.open_seconds = 0.25;
  options.seed = seed ^ 0xf207ULL;
  serve::ServingFrontend frontend(options, backend_ptrs, &network);

  serve::WorkloadSpec spec;
  spec.arrival_rate_per_second = rate;
  spec.horizon_seconds = 5.0;
  spec.deadline_seconds = 0.5;
  spec.tenant_skew = tenant_skew;
  spec.seed = seed;
  serve::WorkloadGenerator workload(spec, options.tenant_count);
  return frontend.Run(workload);
}

TEST(ServingFrontendTest, HealthyRunServesNearlyEverything) {
  const serve::ServeReport report = RunScenario(Degradation::kNone, 42,
                                                /*rate=*/800.0);
  EXPECT_GT(report.counters.arrivals, 3500u);
  EXPECT_EQ(report.counters.admitted + report.counters.shed(),
            report.counters.arrivals);
  // Under capacity: nearly everything is served and nothing trips.
  EXPECT_GT(report.counters.served(),
            report.counters.arrivals * 95 / 100);
  EXPECT_EQ(report.counters.breaker_trips, 0u);
  EXPECT_GT(report.counters.batched, 0u);
  EXPECT_LE(report.latency.Quantile(0.99), 0.5);
}

TEST(ServingFrontendTest, OverloadShedsButKeepsGoodput) {
  // Saturation reference, then 2x the offered load: goodput must hold at
  // >= 80% of the saturation throughput, and admitted requests keep a
  // bounded p99 (the deadline guarantees it: anything later is not
  // "served").
  const serve::ServeReport saturated =
      RunScenario(Degradation::kNone, 42, /*rate=*/3000.0);
  const serve::ServeReport overloaded =
      RunScenario(Degradation::kNone, 42, /*rate=*/6000.0);
  EXPECT_GT(overloaded.counters.shed(), 0u);
  EXPECT_GE(overloaded.goodput_rps, 0.8 * saturated.goodput_rps);
  EXPECT_LE(overloaded.latency.Quantile(0.99), 0.5);
  // Shedding happened at admission (queue bound), not by deadline collapse.
  EXPECT_GT(overloaded.counters.shed_queue_full, 0u);
}

TEST(ServingFrontendTest, HotTenantCannotStarveOthers) {
  // Zipf skew 2.5 at overload: tenant 0 floods the system. DRR + bounded
  // queues must keep every tenant served.
  const serve::ServeReport report = RunScenario(
      Degradation::kNone, 7, /*rate=*/6000.0, /*tenant_skew=*/2.5);
  EXPECT_GT(report.counters.shed(), 0u);
  EXPECT_GT(report.counters.served(), 0u);
  // The hot tenant absorbs the sheds; the run still serves the large
  // majority of admitted requests.
  EXPECT_GE(report.counters.served() * 10,
            report.counters.admitted * 9);
}

TEST(ServingFrontendTest, ReplicaCrashTripsBreakerThenRecovers) {
  const serve::ServeReport report =
      RunScenario(Degradation::kReplicaCrash, FaultSeed());
  EXPECT_GE(report.counters.breaker_trips, 1u);
  EXPECT_GE(report.counters.breaker_probes, 1u);
  EXPECT_GE(report.counters.breaker_recoveries, 1u);
  EXPECT_GT(report.counters.breaker_fast_rejects, 0u);
  EXPECT_GT(report.counters.backend_failures, 0u);
  // The two healthy backends keep serving throughout.
  EXPECT_GT(report.counters.served(), report.counters.arrivals / 2);
}

TEST(ServingFrontendTest, DegradedRunsAreBitIdenticalPerSeed) {
  const std::vector<Degradation> modes = {
      Degradation::kNone, Degradation::kReplicaCrash,
      Degradation::kMinorityPartition};
  const std::vector<uint64_t> seeds = {FaultSeed(), FaultSeed() + 1,
                                       FaultSeed() + 2};
  for (const Degradation mode : modes) {
    for (const uint64_t seed : seeds) {
      const std::string first = RunScenario(mode, seed).Digest();
      const std::string second = RunScenario(mode, seed).Digest();
      EXPECT_EQ(first, second)
          << "mode=" << static_cast<int>(mode) << " seed=" << seed;
    }
    // Different seeds must explore different executions.
    EXPECT_NE(RunScenario(mode, seeds[0]).Digest(),
              RunScenario(mode, seeds[1]).Digest());
  }
}

// ---------------------------------------------------------------------------
// Deadline propagation through the Retrier

TEST(DeadlinePropagationTest, RetrierAbandonsPastRequestDeadline) {
  simnet::Network network(simnet::Link{1e6, 1e-3});
  network.ChargeSeconds(1.0);  // virtual now = 1.0

  simnet::Retrier retrier(&network);

  int attempts = 0;
  {
    // Deadline already behind the clock: the first retryable failure is
    // abandoned instead of retried.
    simnet::Network::DeadlineScope scope(&network, 0.5);
    const Status status = retrier.Run([&]() -> Status {
      ++attempts;
      return Status::Unavailable("backend down");
    });
    EXPECT_EQ(status.code(), StatusCode::kDeadlineExceeded);
    EXPECT_EQ(attempts, 1);
    EXPECT_EQ(retrier.request_deadline_abandoned_count(), 1u);
  }

  // Scope closed: the same failure now retries the full ladder.
  attempts = 0;
  const Status status = retrier.Run([&]() -> Status {
    ++attempts;
    return Status::Unavailable("backend down");
  });
  EXPECT_EQ(status.code(), StatusCode::kUnavailable);
  EXPECT_EQ(attempts, simnet::Retrier::kMaxAttempts);
}

// ---------------------------------------------------------------------------
// Hedged reads against the replicated file store

struct MiniCluster {
  explicit MiniCluster(size_t n) : network(simnet::Link{1e6, 1e-3}) {
    network.Configure(Space::kReplica, n);
    std::vector<filestore::RemoteFileStore*> ptrs;
    for (size_t r = 0; r < n; ++r) {
      backends.push_back(std::make_unique<filestore::InMemoryFileStore>());
      auto transport = std::make_unique<filestore::RemoteFileStore>(
          backends.back().get(), &network);
      transport->BindReplica(r);
      ptrs.push_back(transport.get());
      transports.push_back(std::move(transport));
    }
    files = repl::ReplicatedFileStore::Create(ptrs, &network).value();
  }

  simnet::Network network;
  std::vector<std::unique_ptr<filestore::InMemoryFileStore>> backends;
  std::vector<std::unique_ptr<filestore::RemoteFileStore>> transports;
  std::unique_ptr<repl::ReplicatedFileStore> files;
};

TEST(HedgedReadTest, HedgesAroundACrashedPreferredReplica) {
  MiniCluster cluster(3);
  const Bytes payload(4096, 0x5a);
  std::vector<std::string> ids;
  for (int i = 0; i < 8; ++i) {
    ids.push_back(cluster.files->SaveFile(payload).value());
  }
  // Crash one replica: every id preferring it must hedge to its second
  // replica and still serve the right bytes.
  ASSERT_TRUE(cluster.network.Crash(Space::kReplica, 1).ok());
  for (const std::string& id : ids) {
    auto loaded = cluster.files->LoadFileHedged(id, /*threshold=*/0.0);
    ASSERT_TRUE(loaded.ok()) << id;
    EXPECT_EQ(loaded.value(), payload);
  }
  EXPECT_EQ(cluster.files->hedged_read_count(), ids.size());
  EXPECT_GT(cluster.files->hedge_issued_count(), 0u);
  EXPECT_GT(cluster.files->hedge_win_count(), 0u);
}

TEST(HedgedReadTest, SlowPrimaryHedgesOnThreshold) {
  MiniCluster cluster(3);
  const Bytes payload(64 * 1024, 0x11);
  const std::string id = cluster.files->SaveFile(payload).value();
  // Threshold far below the transfer time of 64 KiB at 1 MB/s: the primary
  // read is "slow", so a hedge fires even though the primary succeeds.
  auto loaded = cluster.files->LoadFileHedged(id, /*threshold=*/1e-6);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value(), payload);
  EXPECT_EQ(cluster.files->hedge_issued_count(), 1u);
  // A healthy run without thresholds never hedges.
  auto again = cluster.files->LoadFileHedged(id, /*threshold=*/0.0);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(cluster.files->hedge_issued_count(), 1u);
}

// ---------------------------------------------------------------------------
// CoreBackend: real core services behind the front end

TEST(CoreBackendTest, ServesRealOpsAndCountsCoreOps) {
  auto run_digest = [](uint64_t seed, std::string* digest) {
    simnet::Network network(simnet::Link{300e6, 0.2e-3});
    network.Configure(Space::kReplica, 3);
    std::vector<std::unique_ptr<filestore::InMemoryFileStore>> file_backends;
    std::vector<std::unique_ptr<docstore::InMemoryDocumentStore>>
        doc_backends;
    std::vector<std::unique_ptr<filestore::RemoteFileStore>> file_transports;
    std::vector<std::unique_ptr<docstore::RemoteDocumentStore>>
        doc_transports;
    std::vector<filestore::RemoteFileStore*> file_ptrs;
    std::vector<docstore::RemoteDocumentStore*> doc_ptrs;
    for (size_t r = 0; r < 3; ++r) {
      file_backends.push_back(
          std::make_unique<filestore::InMemoryFileStore>());
      doc_backends.push_back(
          std::make_unique<docstore::InMemoryDocumentStore>());
      auto ft = std::make_unique<filestore::RemoteFileStore>(
          file_backends.back().get(), &network);
      ft->BindReplica(r);
      auto dt = std::make_unique<docstore::RemoteDocumentStore>(
          doc_backends.back().get(), &network);
      dt->BindReplica(r);
      file_ptrs.push_back(ft.get());
      doc_ptrs.push_back(dt.get());
      file_transports.push_back(std::move(ft));
      doc_transports.push_back(std::move(dt));
    }
    auto files =
        repl::ReplicatedFileStore::Create(file_ptrs, &network).value();
    auto docs =
        repl::ReplicatedDocumentStore::Create(doc_ptrs, &network).value();

    models::ModelConfig config = models::DefaultConfig(
        models::Architecture::kMobileNetV2);
    config.channel_divisor = 8;
    config.image_size = 28;
    config.num_classes = 10;
    auto model = models::BuildModel(config).value();
    const env::EnvironmentInfo environment = env::CollectEnvironment();

    core::StorageBackends backends{docs.get(), files.get(), &network};
    core::BaselineSaveService save_service(backends);
    core::ModelRecoverer recoverer(backends);

    serve::CoreBackendContext context;
    context.save_service = &save_service;
    context.recoverer = &recoverer;
    context.docs = docs.get();
    context.files = files.get();
    context.network = &network;
    context.model = &model;
    context.environment = &environment;
    context.code = core::CodeDescriptorFor(config);
    context.seed = seed;

    // Pre-save two models so recover/probe/inference have targets.
    for (int i = 0; i < 2; ++i) {
      core::SaveRequest request;
      request.model = &model;
      request.code = context.code;
      request.environment = &environment;
      auto saved = save_service.SaveModel(request);
      ASSERT_TRUE(saved.ok());
      context.model_ids.push_back(saved.value().model_id);
    }
    context.file_ids = files->ListFileIds().value();
    ASSERT_FALSE(context.file_ids.empty());

    serve::CoreBackend backend(context);
    std::vector<serve::ServeBackend*> backend_ptrs = {&backend};

    serve::FrontendOptions options;
    options.node_count = 1;
    options.workers_per_node = 2;
    options.tenant_count = 2;
    options.seed = seed ^ 0xf207ULL;
    serve::ServingFrontend frontend(options, backend_ptrs, &network);

    serve::WorkloadSpec spec;
    spec.arrival_rate_per_second = 40.0;
    spec.horizon_seconds = 2.0;
    spec.deadline_seconds = 0.0;  // core ops are slow; no client deadline
    spec.seed = seed;
    serve::WorkloadGenerator workload(spec, options.tenant_count);
    serve::ServeReport report = frontend.Run(workload);

    EXPECT_GT(report.counters.arrivals, 0u);
    EXPECT_GT(report.counters.served(), 0u);
    // The backend counted every save/recover it ran.
    EXPECT_GT(backend.core_ops(), 0u);
    // Fold the hedged-read counters into the report before digesting.
    report.counters.hedged_reads = backend.hedged_reads();
    report.counters.hedge_wins = backend.hedge_wins();
    *digest = report.Digest();
  };

  std::string first;
  std::string second;
  run_digest(11, &first);
  run_digest(11, &second);
  ASSERT_FALSE(first.empty());
  EXPECT_EQ(first, second);
}

// The services a CoreBackend wraps outlive it: saving and recovering after
// the backend is gone must not reach back into the destroyed backend.
TEST(CoreBackendTest, WrappedServicesWorkAfterTheBackendIsDestroyed) {
  filestore::InMemoryFileStore files;
  docstore::InMemoryDocumentStore docs;
  core::StorageBackends backends{&docs, &files};
  core::BaselineSaveService save_service(backends);
  core::ModelRecoverer recoverer(backends);

  models::ModelConfig config = models::DefaultConfig(
      models::Architecture::kMobileNetV2);
  config.channel_divisor = 8;
  config.image_size = 28;
  config.num_classes = 10;
  auto model = models::BuildModel(config).value();
  const env::EnvironmentInfo environment = env::CollectEnvironment();

  serve::CoreBackendContext context;
  context.save_service = &save_service;
  context.recoverer = &recoverer;
  context.docs = &docs;
  context.model = &model;
  context.environment = &environment;
  context.code = core::CodeDescriptorFor(config);
  auto backend = std::make_unique<serve::CoreBackend>(context);
  backend.reset();

  core::SaveRequest request;
  request.model = &model;
  request.code = context.code;
  request.environment = &environment;
  auto saved = save_service.SaveModel(request);
  ASSERT_TRUE(saved.ok()) << saved.status();
  auto recovered =
      recoverer.Recover(saved.value().model_id, core::RecoverOptions{});
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  EXPECT_EQ(recovered.value().model.ParamsHash(), model.ParamsHash());
}

}  // namespace
}  // namespace mmlib
