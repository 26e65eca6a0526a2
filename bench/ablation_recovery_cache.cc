/// Ablation: a snapshot cache in the recoverer (the storage-retraining
/// tradeoff knob of paper Section 4.7). The PUA/MPA TTR staircase exists
/// because recovering a derived model recovers all its base models; caching
/// recovered states flattens it at the cost of memory.
#include <cstdio>

#include "bench/bench_common.h"
#include "core/recover.h"

using namespace mmlib;
using namespace mmlib::bench;
using namespace mmlib::dist;

int main() {
  PrintHeader(
      "Ablation", "Recoverer snapshot cache vs recursive recovery (MPA)",
      "Fully updated MobileNetV2 chain saved with the provenance approach;\n"
      "each model recovered once in save order (use case U4). Without the\n"
      "cache, recovering U3-x-n replays n trainings; with it, one.");

  // Build a deep MPA chain once (real deterministic training).
  Backing backing;
  FlowConfig config;
  config.approach = ApproachKind::kProvenance;
  config.model = TrainScaleModel(models::Architecture::kMobileNetV2);
  config.u3_iterations = 8;
  config.dataset_divisor = 2048;
  config.train.epochs = 1;
  config.train.max_batches_per_epoch = 1;
  config.train.loader.batch_size = 4;
  config.recover_models = false;
  EvaluationFlow flow(config, backing.backends);
  auto flow_result = flow.Run();
  if (!flow_result.ok()) {
    std::fprintf(stderr, "flow failed: %s\n",
                 flow_result.status().ToString().c_str());
    return 1;
  }

  auto recover_all = [&](bool cached) {
    core::ModelRecoverer recoverer(backing.backends);
    if (cached) {
      recoverer.EnableSnapshotCache(256 << 20);
    }
    std::vector<std::pair<std::string, double>> times;
    for (const UseCaseRecord& record : flow_result->records) {
      core::PhaseTimer timer(backing.backends.network);
      auto recovered =
          recoverer.Recover(record.model_id, core::RecoverOptions{});
      if (!recovered.ok()) {
        std::fprintf(stderr, "recover failed: %s\n",
                     recovered.status().ToString().c_str());
        std::abort();
      }
      times.push_back({record.label, timer.ElapsedSeconds()});
    }
    return times;
  };

  const auto uncached = recover_all(false);
  const auto cached = recover_all(true);

  TablePrinter table({"use case", "TTR (no cache)", "TTR (cache)",
                      "speedup"});
  double uncached_total = 0;
  double cached_total = 0;
  for (size_t i = 0; i < uncached.size(); ++i) {
    char speedup[32];
    std::snprintf(speedup, sizeof(speedup), "%.1fx",
                  uncached[i].second / cached[i].second);
    table.AddRow({uncached[i].first, Millis(uncached[i].second),
                  Millis(cached[i].second), speedup});
    uncached_total += uncached[i].second;
    cached_total += cached[i].second;
  }
  table.Print(std::cout);
  std::printf(
      "\ntotal U4 sweep: %.3f s without cache vs %.3f s with cache "
      "(%.1fx);\nthe cache removes the staircase (each model's bases were "
      "recovered before it).\n",
      uncached_total, cached_total, uncached_total / cached_total);
  return 0;
}
