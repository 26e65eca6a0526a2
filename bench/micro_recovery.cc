/// Recovery-under-crash microbenchmark: runs a DIST-5-style evaluation flow
/// with a fixed node-crash schedule while sweeping the training checkpoint
/// interval K, and measures what recovery costs — virtual time added over
/// the crash-free run, optimizer steps retrained, storage retries. Training
/// compute is charged to the virtual clock (step_compute_seconds), so redone
/// steps and checkpoint stalls are visible in every number. Verifies that
/// the crashed-and-resumed run leaves the stores bit-identical to the clean
/// one. Writes BENCH_recovery.json.
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "json/json.h"

using namespace mmlib;

namespace {

constexpr int64_t kIntervalSweep[] = {1, 2, 4, 8};

/// Virtual cost of one optimizer step — roughly 10x the ~23 ms transfer of
/// one checkpoint over the 300 MB/s storage link. Big enough that redoing
/// steps after a crash dominates the recovery cost (the axis the K sweep
/// measures), while the per-checkpoint stall stays visible on the clean
/// run.
constexpr double kStepComputeSeconds = 0.25;

struct Measurement {
  int64_t every_steps = 0;
  uint64_t crashes = 0;
  uint64_t restarts = 0;
  uint64_t retrained_steps = 0;
  uint64_t retries = 0;
  double clean_seconds = 0.0;
  double crash_seconds = 0.0;
  bool bit_identical = false;
};

dist::FlowConfig RecoveryFlowConfig(int64_t every_steps) {
  dist::FlowConfig config;
  config.approach = dist::ApproachKind::kBaseline;
  config.model = models::DefaultConfig(models::Architecture::kMobileNetV2);
  config.model.channel_divisor = 8;
  config.model.image_size = 28;
  config.model.num_classes = 10;
  config.num_nodes = 5;
  config.u3_iterations = 2;
  config.dataset_divisor = 4096;
  config.training_mode = dist::TrainingMode::kReal;
  config.recover_models = false;
  // 8 optimizer steps per update, so every K in the sweep checkpoints at a
  // different set of steps (K=4 and K=8 no longer both checkpoint only at
  // step 0, which made their retrained-step counts degenerate).
  config.train.epochs = 2;
  config.train.max_batches_per_epoch = 4;
  config.train.seed = 77;
  config.train.sgd.momentum = 0.9f;
  config.train.loader.batch_size = 4;
  config.train.loader.image_size = 28;
  config.train.loader.num_classes = 10;
  config.train.loader.seed = config.train.seed;
  config.checkpoint_every_steps = every_steps;
  config.step_compute_seconds = kStepComputeSeconds;
  return config;
}

/// Three kills spread over nodes/phases: late (7 steps done), middle
/// (5 done), early (2 done). How much of that work survives depends on K:
/// retrained steps are 0 / 2 / 6 / 14 for K = 1 / 2 / 4 / 8.
std::vector<dist::NodeCrashEvent> CrashSchedule() {
  return {
      {/*phase=*/1, /*iteration=*/2, /*node=*/1, /*at_step=*/8},
      {/*phase=*/2, /*iteration=*/1, /*node=*/3, /*at_step=*/6},
      {/*phase=*/2, /*iteration=*/2, /*node=*/0, /*at_step=*/3},
  };
}

/// A mildly lossy storage link, so recovery is measured under the same
/// transient faults the robustness suite exercises (drops feed the
/// Retrier; its backoff is charged to the virtual clock).
simnet::FaultPlan LossyPlan() {
  simnet::FaultPlan plan;
  plan.drop_probability = 0.02;
  return plan;
}

struct RunOutcome {
  dist::FlowResult result;
  double virtual_seconds = 0.0;
  size_t file_count = 0;
  size_t document_count = 0;
  int64_t total_storage = 0;
};

RunOutcome RunOnce(int64_t every_steps, bool with_crashes) {
  bench::RemoteBacking backing;
  backing.network.set_fault_plan(LossyPlan());
  dist::FlowConfig config = RecoveryFlowConfig(every_steps);
  if (with_crashes) {
    config.crash_schedule = CrashSchedule();
  }
  dist::EvaluationFlow flow(std::move(config), backing.backends);
  auto result = flow.Run();
  if (!result.ok()) {
    std::cerr << "flow failed: " << result.status() << "\n";
    std::abort();
  }
  RunOutcome outcome;
  outcome.result = std::move(result).value();
  outcome.virtual_seconds = backing.network.TotalTransferSeconds();
  outcome.file_count = backing.files_raw.FileCount();
  outcome.document_count = backing.docs_raw.DocumentCount();
  outcome.total_storage = outcome.result.TotalStorage();
  return outcome;
}

/// The crash/resume path may not change what ends up stored: same record
/// stream (ids and sizes) and the same artifact counts as the clean run.
bool StoresBitIdentical(const RunOutcome& clean, const RunOutcome& other) {
  if (clean.file_count != other.file_count ||
      clean.document_count != other.document_count ||
      clean.total_storage != other.total_storage ||
      clean.result.records.size() != other.result.records.size()) {
    return false;
  }
  for (size_t i = 0; i < clean.result.records.size(); ++i) {
    const dist::UseCaseRecord& a = clean.result.records[i];
    const dist::UseCaseRecord& b = other.result.records[i];
    if (a.model_id != b.model_id || a.storage_bytes != b.storage_bytes) {
      return false;
    }
  }
  return true;
}

}  // namespace

int main() {
  bench::PrintHeader(
      "micro_recovery", "Recovery cost vs checkpoint interval",
      "DIST-5-style flow (5 nodes, 2 U3 iterations/phase, 8 steps/update,\n"
      "250 ms virtual compute per step) with three scheduled node kills on\n"
      "a 2%-drop storage link. Sweeping checkpoint interval K trades\n"
      "checkpoint traffic in the crash-free run against steps retrained\n"
      "after a crash. Crashed runs must land bit-identical to the clean\n"
      "run.");

  std::vector<Measurement> measurements;
  for (int64_t every_steps : kIntervalSweep) {
    const RunOutcome clean = RunOnce(every_steps, /*with_crashes=*/false);
    const RunOutcome crashed = RunOnce(every_steps, /*with_crashes=*/true);
    Measurement m;
    m.every_steps = every_steps;
    m.crashes = crashed.result.TotalCrashes();
    m.restarts = crashed.result.TotalRestarts();
    m.retrained_steps = crashed.result.TotalRetrainedSteps();
    m.retries = crashed.result.TotalRetries();
    m.clean_seconds = clean.virtual_seconds;
    m.crash_seconds = crashed.virtual_seconds;
    m.bit_identical = StoresBitIdentical(clean, crashed);
    measurements.push_back(m);
  }

  TablePrinter table({"K", "crashes", "retrained", "retries", "clean",
                      "crashed", "recovery cost", "bit-identical"});
  for (const Measurement& m : measurements) {
    table.AddRow(
        {std::to_string(m.every_steps), std::to_string(m.crashes),
         std::to_string(m.retrained_steps), std::to_string(m.retries),
         bench::Secs(m.clean_seconds), bench::Secs(m.crash_seconds),
         bench::Secs(m.crash_seconds - m.clean_seconds),
         m.bit_identical ? "yes" : "NO"});
  }
  table.Print(std::cout);

  bool all_identical = true;
  json::Value rows = json::Value::MakeArray();
  for (const Measurement& m : measurements) {
    all_identical = all_identical && m.bit_identical;
    json::Value row = json::Value::MakeObject();
    row.Set("checkpoint_every_steps", m.every_steps);
    row.Set("crashes", static_cast<int64_t>(m.crashes));
    row.Set("restarts", static_cast<int64_t>(m.restarts));
    row.Set("retrained_steps", static_cast<int64_t>(m.retrained_steps));
    row.Set("storage_retries", static_cast<int64_t>(m.retries));
    row.Set("clean_virtual_seconds", m.clean_seconds);
    row.Set("crash_virtual_seconds", m.crash_seconds);
    row.Set("recovery_cost_seconds", m.crash_seconds - m.clean_seconds);
    row.Set("bit_identical", m.bit_identical);
    rows.Append(std::move(row));
  }
  json::Value doc = json::Value::MakeObject();
  doc.Set("bench", "micro_recovery");
  bench::SetHostMetadata(&doc, /*pool_size=*/0);
  doc.Set("scheduled_crashes",
          static_cast<int64_t>(CrashSchedule().size()));
  doc.Set("steps_per_update", static_cast<int64_t>(8));
  doc.Set("step_compute_seconds", kStepComputeSeconds);
  doc.Set("all_bit_identical", all_identical);
  doc.Set("results", std::move(rows));
  const std::string json_text = doc.DumpPretty();
  std::FILE* out = std::fopen("BENCH_recovery.json", "w");
  if (out != nullptr) {
    std::fwrite(json_text.data(), 1, json_text.size(), out);
    std::fputc('\n', out);
    std::fclose(out);
    std::printf("\nwrote BENCH_recovery.json\n");
  }

  std::printf("crashed runs bit-identical to clean runs: %s\n",
              all_identical ? "yes" : "NO");
  return all_identical ? 0 : 1;
}
