/// Serving front-end microbenchmark: drives the overload-robust
/// multi-tenant front end (src/serve/) with seeded open-loop workloads on
/// the virtual clock and prices its robustness machinery. Sweeps offered
/// load to locate the saturation throughput, then doubles it and verifies
/// that admission control keeps goodput at >= 80% of saturation with a
/// bounded admitted-request p99 (load shedding, not collapse). Degraded
/// scenarios — a replica crash mid-run and a minority partition — must land
/// bit-identical per seed (run twice, digests compared). A CoreBackend run
/// serves real save/recover/probe/inference ops over replicated stores and
/// reports the hedged-read traffic. Writes BENCH_serving.json. `--smoke`
/// shrinks the horizons and gates only the bit-identity invariants (exit
/// code), not the throughput numbers.
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "core/baseline.h"
#include "core/model_code.h"
#include "core/recover.h"
#include "json/json.h"
#include "repl/replicated_store.h"
#include "serve/backend.h"
#include "serve/core_backend.h"
#include "serve/frontend.h"
#include "serve/workload.h"

using namespace mmlib;

namespace {

bool g_smoke = false;

constexpr uint64_t kSeed = 0x5e41e5;

double HorizonSeconds() { return g_smoke ? 1.0 : 10.0; }

enum class Degradation { kNone, kReplicaCrash, kMinorityPartition };

const char* DegradationName(Degradation d) {
  switch (d) {
    case Degradation::kNone:
      return "healthy";
    case Degradation::kReplicaCrash:
      return "replica_crash";
    case Degradation::kMinorityPartition:
      return "minority_partition";
  }
  return "?";
}

/// One seeded run of the simulated-backend scenario: 3 coordinator nodes
/// over 3 backends, each bound to a simnet replica.
serve::ServeReport RunSimulated(double rate, Degradation degradation,
                                uint64_t seed) {
  simnet::Network network(simnet::Link{1e9, 1e-4});
  network.Configure(simnet::Space::kReplica, 3);
  const double horizon = HorizonSeconds();
  switch (degradation) {
    case Degradation::kNone:
      break;
    case Degradation::kReplicaCrash:
      network.Schedule({0.2 * horizon, simnet::ReplicaEvent::kCrash, 1});
      network.Schedule({0.6 * horizon, simnet::ReplicaEvent::kRestart, 1});
      break;
    case Degradation::kMinorityPartition:
      network.Schedule(
          {0.2 * horizon, simnet::ReplicaEvent::kPartition, 0, {{2}}});
      network.Schedule({0.6 * horizon, simnet::ReplicaEvent::kHeal});
      break;
  }

  serve::SimulatedBackendOptions backend_options;
  backend_options.seed = seed ^ 0xbacULL;
  std::vector<std::unique_ptr<serve::SimulatedBackend>> backends;
  std::vector<serve::ServeBackend*> backend_ptrs;
  for (size_t r = 0; r < 3; ++r) {
    backends.push_back(
        std::make_unique<serve::SimulatedBackend>(backend_options, &network, r));
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
  spec.horizon_seconds = horizon;
  spec.deadline_seconds = 0.5;
  spec.seed = seed;
  serve::WorkloadGenerator workload(spec, options.tenant_count);
  return frontend.Run(workload);
}

struct CoreRunOutcome {
  serve::ServeReport report;
  uint64_t core_ops = 0;
};

/// Real core services behind the front end: baseline saves, recovers,
/// probes, and hedged inference reads over 3-way replicated stores. A
/// replica crash mid-run makes the hedged-read path earn its keep.
CoreRunOutcome RunCore(uint64_t seed) {
  simnet::Network network(bench::StorageServiceLink());
  network.Configure(simnet::Space::kReplica, 3);
  const double horizon = g_smoke ? 1.0 : 4.0;
  network.Schedule({0.3 * horizon, simnet::ReplicaEvent::kCrash, 0});
  network.Schedule({0.8 * horizon, simnet::ReplicaEvent::kRestart, 0});

  std::vector<std::unique_ptr<filestore::InMemoryFileStore>> file_backends;
  std::vector<std::unique_ptr<docstore::InMemoryDocumentStore>> doc_backends;
  std::vector<std::unique_ptr<filestore::RemoteFileStore>> file_transports;
  std::vector<std::unique_ptr<docstore::RemoteDocumentStore>> doc_transports;
  std::vector<filestore::RemoteFileStore*> file_ptrs;
  std::vector<docstore::RemoteDocumentStore*> doc_ptrs;
  for (size_t r = 0; r < 3; ++r) {
    file_backends.push_back(std::make_unique<filestore::InMemoryFileStore>());
    doc_backends.push_back(std::make_unique<docstore::InMemoryDocumentStore>());
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
  auto files = repl::ReplicatedFileStore::Create(file_ptrs, &network).value();
  auto docs = repl::ReplicatedDocumentStore::Create(doc_ptrs, &network).value();

  models::ModelConfig config =
      models::DefaultConfig(models::Architecture::kMobileNetV2);
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

  for (int i = 0; i < 2; ++i) {
    core::SaveRequest request;
    request.model = &model;
    request.code = context.code;
    request.environment = &environment;
    auto saved = save_service.SaveModel(request);
    if (!saved.ok()) {
      std::cerr << "pre-save failed: " << saved.status() << "\n";
      std::abort();
    }
    context.model_ids.push_back(saved.value().model_id);
  }
  context.file_ids = files->ListFileIds().value();

  serve::CoreBackend backend(context);
  std::vector<serve::ServeBackend*> backend_ptrs = {&backend};

  serve::FrontendOptions options;
  options.node_count = 1;
  options.workers_per_node = 2;
  options.tenant_count = 2;
  options.seed = seed ^ 0xf207ULL;
  serve::ServingFrontend frontend(options, backend_ptrs, &network);

  serve::WorkloadSpec spec;
  spec.arrival_rate_per_second = g_smoke ? 20.0 : 40.0;
  spec.horizon_seconds = horizon;
  spec.deadline_seconds = 0.0;  // core ops run to completion
  spec.seed = seed;
  serve::WorkloadGenerator workload(spec, options.tenant_count);

  CoreRunOutcome outcome;
  outcome.report = frontend.Run(workload);
  outcome.report.counters.hedged_reads = backend.hedged_reads();
  outcome.report.counters.hedge_wins = backend.hedge_wins();
  outcome.core_ops = backend.core_ops();
  return outcome;
}

json::Value ReportRow(double rate, const serve::ServeReport& r) {
  json::Value row = json::Value::MakeObject();
  row.Set("offered_rps", rate);
  row.Set("arrivals", static_cast<int64_t>(r.counters.arrivals));
  row.Set("admitted", static_cast<int64_t>(r.counters.admitted));
  row.Set("served", static_cast<int64_t>(r.counters.served()));
  row.Set("shed", static_cast<int64_t>(r.counters.shed()));
  row.Set("goodput_rps", r.goodput_rps);
  row.Set("p50_ms", r.latency.Quantile(0.50) * 1e3);
  row.Set("p99_ms", r.latency.Quantile(0.99) * 1e3);
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      g_smoke = true;
    }
  }

  bench::PrintHeader(
      "micro_serving", "Overload-robust serving front end",
      "3 coordinator nodes x 4 workers over 3 simulated backends on simnet\n"
      "(Poisson arrivals, 4 tenants, 500 ms deadlines). Sweeps offered load\n"
      "for the saturation throughput, doubles it to price admission control,\n"
      "then prices degraded runs (replica crash, minority partition) and a\n"
      "CoreBackend run with real save/recover/probe/hedged-inference ops.\n"
      "Every scenario runs twice; digests must match (bit-identity).");
  if (g_smoke) {
    std::printf("(smoke mode: 1 s horizons, throughput gates skipped)\n\n");
  }

  bool deterministic = true;
  auto check_identical = [&deterministic](const serve::ServeReport& a,
                                          const serve::ServeReport& b,
                                          const char* what) {
    if (a.Digest() != b.Digest()) {
      std::printf("BIT-IDENTITY FAILURE: %s\n", what);
      deterministic = false;
    }
  };

  // --- Load sweep: find saturation -----------------------------------------
  const std::vector<double> rates =
      g_smoke ? std::vector<double>{500, 2000}
              : std::vector<double>{500, 1000, 2000, 3000, 4000, 6000};
  TablePrinter table({"offered rps", "arrivals", "served", "shed",
                      "goodput rps", "p50", "p99"});
  json::Value sweep_rows = json::Value::MakeArray();
  double saturation_goodput = 0.0;
  double saturation_rate = rates.front();
  for (double rate : rates) {
    const serve::ServeReport report =
        RunSimulated(rate, Degradation::kNone, kSeed);
    check_identical(report, RunSimulated(rate, Degradation::kNone, kSeed),
                    "load sweep rerun");
    if (report.goodput_rps > saturation_goodput) {
      saturation_goodput = report.goodput_rps;
      saturation_rate = rate;
    }
    table.AddRow({std::to_string(static_cast<int>(rate)),
                  std::to_string(report.counters.arrivals),
                  std::to_string(report.counters.served()),
                  std::to_string(report.counters.shed()),
                  std::to_string(static_cast<int>(report.goodput_rps)),
                  bench::Millis(report.latency.Quantile(0.50)),
                  bench::Millis(report.latency.Quantile(0.99))});
    sweep_rows.Append(ReportRow(rate, report));
  }
  table.Print(std::cout);

  // --- 2x saturation: shedding must preserve goodput -----------------------
  const double overload_rate = 2.0 * saturation_rate;
  const serve::ServeReport overloaded =
      RunSimulated(overload_rate, Degradation::kNone, kSeed);
  check_identical(overloaded,
                  RunSimulated(overload_rate, Degradation::kNone, kSeed),
                  "overload rerun");
  const double retention =
      saturation_goodput > 0.0 ? overloaded.goodput_rps / saturation_goodput
                               : 0.0;
  const bool goodput_holds = g_smoke || retention >= 0.8;
  std::printf(
      "\nsaturation %.0f rps at offered %.0f | 2x offered %.0f rps -> goodput "
      "%.0f rps (%.0f%% of saturation, p99 %s, shed %llu): %s\n",
      saturation_goodput, saturation_rate, overload_rate,
      overloaded.goodput_rps, retention * 100.0,
      bench::Millis(overloaded.latency.Quantile(0.99)).c_str(),
      static_cast<unsigned long long>(overloaded.counters.shed()),
      goodput_holds ? "holds" : "COLLAPSED");

  // --- Degraded scenarios: priced and bit-identical ------------------------
  json::Value degraded_rows = json::Value::MakeArray();
  const double degraded_rate = g_smoke ? 800.0 : 1500.0;
  for (Degradation mode :
       {Degradation::kReplicaCrash, Degradation::kMinorityPartition}) {
    const serve::ServeReport report = RunSimulated(degraded_rate, mode, kSeed);
    check_identical(report, RunSimulated(degraded_rate, mode, kSeed),
                    DegradationName(mode));
    std::printf(
        "%s @ %.0f rps: served %llu/%llu, trips %llu, probes %llu, "
        "recoveries %llu, fast-rejects %llu\n",
        DegradationName(mode), degraded_rate,
        static_cast<unsigned long long>(report.counters.served()),
        static_cast<unsigned long long>(report.counters.arrivals),
        static_cast<unsigned long long>(report.counters.breaker_trips),
        static_cast<unsigned long long>(report.counters.breaker_probes),
        static_cast<unsigned long long>(report.counters.breaker_recoveries),
        static_cast<unsigned long long>(report.counters.breaker_fast_rejects));
    json::Value row = ReportRow(degraded_rate, report);
    row.Set("scenario", std::string(DegradationName(mode)));
    row.Set("breaker_trips",
            static_cast<int64_t>(report.counters.breaker_trips));
    row.Set("breaker_probes",
            static_cast<int64_t>(report.counters.breaker_probes));
    row.Set("breaker_recoveries",
            static_cast<int64_t>(report.counters.breaker_recoveries));
    row.Set("breaker_fast_rejects",
            static_cast<int64_t>(report.counters.breaker_fast_rejects));
    row.Set("backend_failures",
            static_cast<int64_t>(report.counters.backend_failures));
    row.Set("digest", report.Digest());
    degraded_rows.Append(std::move(row));
  }

  // --- CoreBackend: real ops, hedged reads ---------------------------------
  const CoreRunOutcome core = RunCore(kSeed);
  check_identical(core.report, RunCore(kSeed).report, "core backend rerun");
  std::printf(
      "core backend (replica 0 down mid-run): served %llu/%llu, core ops "
      "%llu, hedged reads %llu (wins %llu)\n",
      static_cast<unsigned long long>(core.report.counters.served()),
      static_cast<unsigned long long>(core.report.counters.arrivals),
      static_cast<unsigned long long>(core.core_ops),
      static_cast<unsigned long long>(core.report.counters.hedged_reads),
      static_cast<unsigned long long>(core.report.counters.hedge_wins));

  // --- BENCH_serving.json --------------------------------------------------
  json::Value doc = json::Value::MakeObject();
  doc.Set("bench", "micro_serving");
  bench::SetHostMetadata(&doc, /*pool_size=*/0);
  doc.Set("smoke", g_smoke);
  doc.Set("horizon_seconds", HorizonSeconds());
  doc.Set("load_sweep", std::move(sweep_rows));

  json::Value saturation_doc = json::Value::MakeObject();
  saturation_doc.Set("throughput_rps", saturation_goodput);
  saturation_doc.Set("offered_rps", saturation_rate);
  doc.Set("saturation", std::move(saturation_doc));

  json::Value overload_doc = ReportRow(overload_rate, overloaded);
  overload_doc.Set("goodput_vs_saturation", retention);
  overload_doc.Set("shed_queue_full",
                   static_cast<int64_t>(overloaded.counters.shed_queue_full));
  overload_doc.Set("batched",
                   static_cast<int64_t>(overloaded.counters.batched));
  overload_doc.Set("batches_flushed",
                   static_cast<int64_t>(overloaded.counters.batches_flushed));
  doc.Set("overload_2x", std::move(overload_doc));

  doc.Set("degraded", std::move(degraded_rows));

  json::Value core_doc = ReportRow(g_smoke ? 20.0 : 40.0, core.report);
  core_doc.Set("core_ops", static_cast<int64_t>(core.core_ops));
  core_doc.Set("hedged_reads",
               static_cast<int64_t>(core.report.counters.hedged_reads));
  core_doc.Set("hedge_wins",
               static_cast<int64_t>(core.report.counters.hedge_wins));
  core_doc.Set("digest", core.report.Digest());
  doc.Set("core_backend", std::move(core_doc));

  doc.Set("deterministic", deterministic);
  doc.Set("goodput_retention_ok", goodput_holds);

  const std::string json_text = doc.DumpPretty();
  std::FILE* out = std::fopen("BENCH_serving.json", "w");
  if (out != nullptr) {
    std::fwrite(json_text.data(), 1, json_text.size(), out);
    std::fputc('\n', out);
    std::fclose(out);
    std::printf("\nwrote BENCH_serving.json\n");
  }

  const bool ok = deterministic && goodput_holds;
  std::printf("bit-identity and goodput retention: %s\n", ok ? "yes" : "NO");
  return ok ? 0 : 1;
}
