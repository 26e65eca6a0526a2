/// Replication-overhead microbenchmark: runs the save/recover flow of the
/// fig-2-scale MobileNetV2 model against an R-way replicated store, sweeping
/// the replica count R in {1, 3, 5} and the W/R quorum split (majority,
/// write-all/read-one, write-one/read-all). Measures what durability costs —
/// virtual save/recover time, network messages and bytes, physical vs
/// logical storage — relative to the unreplicated R=1 baseline, and checks
/// that every configuration stores the same logical content (same record
/// stream, same logical byte count). Writes BENCH_replication.json.
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "env/environment.h"
#include "json/json.h"
#include "repl/replicated_store.h"
#include "simnet/network.h"

using namespace mmlib;

namespace {

struct QuorumSweepEntry {
  size_t replicas = 1;
  size_t write_quorum = 1;
  size_t read_quorum = 1;
  const char* name = "";
};

/// R=1 is the unreplicated baseline every other row is compared against.
/// For R>1 the three interesting W/R splits: majority/majority (the
/// default), write-all/read-one (cheap reads, expensive writes), and
/// write-one/read-all (the reverse). W + R > N holds for all of them.
constexpr QuorumSweepEntry kSweep[] = {
    {1, 1, 1, "baseline"},
    {3, 2, 2, "majority"},
    {3, 3, 1, "write-all"},
    {3, 1, 3, "read-all"},
    {5, 3, 3, "majority"},
    {5, 5, 1, "write-all"},
    {5, 1, 5, "read-all"},
};

/// An R-way replicated storage service: one in-memory backend plus one
/// replica-bound remote transport per replica, all sharing the storage
/// service link, wrapped by the quorum stores.
struct ReplicatedBacking {
  ReplicatedBacking(size_t n, repl::QuorumConfig config)
      : network(bench::StorageServiceLink()) {
    network.Configure(simnet::Space::kReplica, n);
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
      file_ptrs.push_back(file_transport.get());
      doc_ptrs.push_back(doc_transport.get());
      file_transports.push_back(std::move(file_transport));
      doc_transports.push_back(std::move(doc_transport));
    }
    auto files_or =
        repl::ReplicatedFileStore::Create(file_ptrs, &network, config);
    auto docs_or =
        repl::ReplicatedDocumentStore::Create(doc_ptrs, &network, config);
    if (!files_or.ok() || !docs_or.ok()) {
      std::cerr << "replicated store setup failed\n";
      std::abort();
    }
    files = std::move(files_or).value();
    docs = std::move(docs_or).value();
  }

  simnet::Network network;
  std::vector<std::unique_ptr<filestore::InMemoryFileStore>> file_backends;
  std::vector<std::unique_ptr<docstore::InMemoryDocumentStore>> doc_backends;
  std::vector<std::unique_ptr<filestore::RemoteFileStore>> file_transports;
  std::vector<std::unique_ptr<docstore::RemoteDocumentStore>> doc_transports;
  std::unique_ptr<repl::ReplicatedFileStore> files;
  std::unique_ptr<repl::ReplicatedDocumentStore> docs;
};

/// Save/recover flow of the fig-2-scale model: every saved model is also
/// recovered (U4), so the sweep prices both the quorum write path and the
/// preferred-replica read path.
dist::FlowConfig ReplicationFlowConfig() {
  dist::FlowConfig config;
  config.approach = dist::ApproachKind::kBaseline;
  config.model = bench::TrainScaleModel(models::Architecture::kMobileNetV2);
  config.num_nodes = 1;
  config.u3_iterations = 2;
  config.dataset_divisor = 4096;
  config.training_mode = dist::TrainingMode::kSimulated;
  config.recover_models = true;
  config.scrub_every_iterations = 1;  // healthy anti-entropy: root exchanges
  return config;
}

struct Measurement {
  QuorumSweepEntry entry;
  double save_seconds = 0.0;     // summed TTS across all saved models
  double recover_seconds = 0.0;  // summed TTR across all recovered models
  double virtual_seconds = 0.0;  // total virtual clock, incl. scrub traffic
  uint64_t messages = 0;
  uint64_t network_bytes = 0;
  int64_t logical_bytes = 0;
  int64_t physical_bytes = 0;
  uint64_t scrub_sessions = 0;
  uint64_t scrub_root_matches = 0;
  std::vector<std::string> model_ids;
};

Measurement RunOnce(const QuorumSweepEntry& entry) {
  repl::QuorumConfig quorums;
  quorums.write_quorum = entry.write_quorum;
  quorums.read_quorum = entry.read_quorum;
  ReplicatedBacking backing(entry.replicas, quorums);
  core::StorageBackends backends{backing.docs.get(), backing.files.get(),
                                 &backing.network};
  dist::EvaluationFlow flow(ReplicationFlowConfig(), backends);
  auto result = flow.Run();
  if (!result.ok()) {
    std::cerr << "flow failed: " << result.status() << "\n";
    std::abort();
  }
  Measurement m;
  m.entry = entry;
  for (const dist::UseCaseRecord& record : result.value().records) {
    m.save_seconds += record.tts_seconds;
    m.recover_seconds += record.ttr_seconds;
    m.model_ids.push_back(record.model_id);
  }
  m.virtual_seconds = backing.network.TotalTransferSeconds();
  m.messages = backing.network.MessageCount();
  m.network_bytes = backing.network.TotalBytes();
  m.logical_bytes = static_cast<int64_t>(backing.files->TotalStoredBytes() +
                                         backing.docs->TotalStoredBytes());
  m.physical_bytes = static_cast<int64_t>(backing.files->PhysicalStoredBytes() +
                                          backing.docs->PhysicalStoredBytes());
  m.scrub_sessions = result.value().scrub.sessions;
  m.scrub_root_matches = result.value().scrub.root_matches;
  return m;
}

std::string Ratio(double value, double baseline) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.2fx",
                baseline > 0.0 ? value / baseline : 0.0);
  return buffer;
}

}  // namespace

int main() {
  bench::PrintHeader(
      "micro_replication", "Quorum replication overhead",
      "Save/recover flow of the fig-2-scale MobileNetV2 model (6 models,\n"
      "every one recovered) over an R-way replicated store on the storage\n"
      "service link, with one anti-entropy pass per U3 iteration. Sweeps\n"
      "R in {1, 3, 5} and the W/R quorum split; overheads are relative to\n"
      "the unreplicated R=1 baseline. Logical content must be identical\n"
      "in every configuration — replication multiplies physical bytes\n"
      "and traffic, never what the store logically holds.");

  std::vector<Measurement> measurements;
  for (const QuorumSweepEntry& entry : kSweep) {
    measurements.push_back(RunOnce(entry));
  }
  const Measurement& baseline = measurements.front();

  TablePrinter table({"R", "W", "Rq", "config", "save", "recover", "vtime",
                      "msgs", "phys/logical", "save x", "recover x"});
  for (const Measurement& m : measurements) {
    table.AddRow({std::to_string(m.entry.replicas),
                  std::to_string(m.entry.write_quorum),
                  std::to_string(m.entry.read_quorum), m.entry.name,
                  bench::Secs(m.save_seconds), bench::Secs(m.recover_seconds),
                  bench::Secs(m.virtual_seconds), std::to_string(m.messages),
                  Ratio(static_cast<double>(m.physical_bytes),
                        static_cast<double>(m.logical_bytes)),
                  Ratio(m.save_seconds, baseline.save_seconds),
                  Ratio(m.recover_seconds, baseline.recover_seconds)});
  }
  table.Print(std::cout);

  bool logical_identical = true;
  json::Value rows = json::Value::MakeArray();
  for (const Measurement& m : measurements) {
    logical_identical = logical_identical &&
                        m.logical_bytes == baseline.logical_bytes &&
                        m.model_ids == baseline.model_ids;
    json::Value row = json::Value::MakeObject();
    row.Set("replicas", static_cast<int64_t>(m.entry.replicas));
    row.Set("write_quorum", static_cast<int64_t>(m.entry.write_quorum));
    row.Set("read_quorum", static_cast<int64_t>(m.entry.read_quorum));
    row.Set("config", std::string(m.entry.name));
    row.Set("save_seconds", m.save_seconds);
    row.Set("recover_seconds", m.recover_seconds);
    row.Set("virtual_seconds", m.virtual_seconds);
    row.Set("messages", static_cast<int64_t>(m.messages));
    row.Set("network_bytes", static_cast<int64_t>(m.network_bytes));
    row.Set("logical_bytes", m.logical_bytes);
    row.Set("physical_bytes", m.physical_bytes);
    row.Set("scrub_sessions", static_cast<int64_t>(m.scrub_sessions));
    row.Set("scrub_root_matches",
            static_cast<int64_t>(m.scrub_root_matches));
    row.Set("save_overhead",
            baseline.save_seconds > 0.0
                ? m.save_seconds / baseline.save_seconds
                : 0.0);
    row.Set("recover_overhead",
            baseline.recover_seconds > 0.0
                ? m.recover_seconds / baseline.recover_seconds
                : 0.0);
    rows.Append(std::move(row));
  }
  json::Value doc = json::Value::MakeObject();
  doc.Set("bench", "micro_replication");
  bench::SetHostMetadata(&doc, /*pool_size=*/0);
  // Every save stores this host's environment document (CPU model, kernel
  // release, compiler), so byte counts and virtual seconds match another
  // host's run only when this size matches too; message counts always do.
  doc.Set("environment_bytes",
          static_cast<int64_t>(
              env::CollectEnvironment().ToJson().Dump().size()));
  doc.Set("logical_content_identical", logical_identical);
  doc.Set("results", std::move(rows));
  const std::string json_text = doc.DumpPretty();
  std::FILE* out = std::fopen("BENCH_replication.json", "w");
  if (out != nullptr) {
    std::fwrite(json_text.data(), 1, json_text.size(), out);
    std::fputc('\n', out);
    std::fclose(out);
    std::printf("\nwrote BENCH_replication.json\n");
  }

  std::printf("logical content identical across configurations: %s\n",
              logical_identical ? "yes" : "NO");
  return logical_identical ? 0 : 1;
}
