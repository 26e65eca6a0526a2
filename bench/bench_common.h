#pragma once

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "dist/flow.h"
#include "docstore/document_store.h"
#include "filestore/file_store.h"
#include "json/json.h"
#include "util/strings.h"
#include "util/table_printer.h"

namespace mmlib::bench {

/// In-memory backends for one experiment run.
struct Backing {
  docstore::InMemoryDocumentStore docs;
  filestore::InMemoryFileStore files;
  core::StorageBackends backends{&docs, &files, nullptr};
};

/// Prints the standard header for a figure/table reproduction.
inline void PrintHeader(const std::string& id, const std::string& title,
                        const std::string& setup) {
  std::cout << "\n=== " << id << ": " << title << " ===\n";
  if (!setup.empty()) {
    std::cout << setup << "\n";
  }
  std::cout << "\n";
}

/// The paper claims one figure or table reproduction checks. Check records
/// a claim; Report prints one `  claim: yes` or `  claim: NO` line per
/// claim (followed by `detail`, the measured values, when given) and
/// returns the binary's exit status: 1 when any claim failed, else 0.
class Gate {
 public:
  void Check(const std::string& claim, bool holds,
             const std::string& detail = "") {
    std::string line = "  " + claim + ": " + (holds ? "yes" : "NO");
    if (!detail.empty()) {
      line += " (" + detail + ")";
    }
    lines_.push_back(std::move(line));
    all_hold_ = all_hold_ && holds;
  }

  /// Prints `title` and the claim lines.
  int Report(const std::string& title) const {
    std::cout << "\n" << title << "\n";
    for (const std::string& line : lines_) {
      std::cout << line << "\n";
    }
    return all_hold_ ? 0 : 1;
  }

 private:
  std::vector<std::string> lines_;
  bool all_hold_ = true;
};

/// Runs one evaluation flow against fresh in-memory backends; aborts the
/// benchmark on error (benchmarks have no error recovery story).
inline dist::FlowResult RunFlow(dist::FlowConfig config) {
  Backing backing;
  dist::EvaluationFlow flow(std::move(config), backing.backends);
  auto result = flow.Run();
  if (!result.ok()) {
    std::cerr << "flow failed: " << result.status() << "\n";
    std::abort();
  }
  return std::move(result).value();
}

/// Stamps the host environment into a BENCH_*.json metadata block. The
/// committed reference numbers come from a single-core CI container, where
/// pool sweeps cannot show real parallel speedups — recording the core
/// count with every result makes that visible instead of mysterious.
/// `pool_size` is the thread-pool size the benchmark actually ran with
/// (0 = serial, no pool).
inline void SetHostMetadata(json::Value* doc, size_t pool_size) {
  doc->Set("hardware_concurrency",
           static_cast<int64_t>(std::thread::hardware_concurrency()));
  doc->Set("thread_pool_size", static_cast<int64_t>(pool_size));
}

/// Cost model of the paper's storage services (MongoDB on a third machine +
/// shared external storage): roughly 300 MB/s effective throughput and a
/// millisecond per operation, derived from the paper's baseline numbers
/// (saving a 241.7 MB ResNet-152 takes ~0.8 s, Section 4.3).
inline simnet::Link StorageServiceLink() {
  return simnet::Link{300e6, 0.2e-3};
}

/// Backends whose document/file traffic is charged to a simulated storage
/// service link; use for time measurements (TTS/TTR figures), where
/// persistence cost matters. Storage figures use plain Backing.
struct RemoteBacking {
  docstore::InMemoryDocumentStore docs_raw;
  filestore::InMemoryFileStore files_raw;
  simnet::Network network{StorageServiceLink()};
  docstore::RemoteDocumentStore docs{&docs_raw, &network};
  filestore::RemoteFileStore files{&files_raw, &network};
  core::StorageBackends backends{&docs, &files, &network};
};

/// RunFlow against storage reached over the simulated service link.
inline dist::FlowResult RunFlowRemote(dist::FlowConfig config) {
  RemoteBacking backing;
  dist::EvaluationFlow flow(std::move(config), backing.backends);
  auto result = flow.Run();
  if (!result.ok()) {
    std::cerr << "flow failed: " << result.status() << "\n";
    std::abort();
  }
  return std::move(result).value();
}

/// Laptop-scale model configuration used by the storage/TTS figures
/// (channel divisor 4 ~ paper parameter-count ratios preserved).
inline models::ModelConfig StorageScaleModel(models::Architecture arch) {
  models::ModelConfig config = models::DefaultConfig(arch);
  config.channel_divisor = 4;
  config.image_size = 56;
  config.num_classes = 250;
  return config;
}

/// Smaller configuration used by figures that actually (re)train models
/// (TTR and deterministic-training experiments).
inline models::ModelConfig TrainScaleModel(models::Architecture arch) {
  models::ModelConfig config = models::DefaultConfig(arch);
  config.channel_divisor = 8;
  config.image_size = 28;
  config.num_classes = 125;
  return config;
}

/// Training recipe of the figures that replay real training for recovery
/// (Fig 11): the one perfbench's `mpa_replay` workload trains with (its
/// Workload::TrainConfigFor), i.e. the paper's reduced schedule (two
/// epochs of two batches of 4, Section 4.4) with momentum-free SGD at
/// lr 0.001. At the flows' default lr of 0.01, MobileNetV2 at 28 px
/// diverges to non-finite logits (EXPERIMENTS.md). The flow sets the
/// loader's image size and class count from the model.
inline core::TrainConfig ReplayTrainRecipe() {
  core::TrainConfig train;
  train.epochs = 2;
  train.max_batches_per_epoch = 2;
  train.sgd.momentum = 0.0f;
  train.sgd.learning_rate = 0.001f;
  train.loader.batch_size = 4;
  return train;
}

/// Dataset divisor that preserves the paper's dataset-to-model byte ratio:
/// parameter counts scale with the square of the channel divisor, so the
/// dataset must shrink by the same factor (DESIGN.md Section 1).
inline uint64_t MatchedDatasetDivisor(const models::ModelConfig& model) {
  return static_cast<uint64_t>(model.channel_divisor * model.channel_divisor);
}

inline std::string Mb(int64_t bytes) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.2f MB", bytes / 1e6);
  return buffer;
}

inline std::string Kb(int64_t bytes) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.1f KB", bytes / 1e3);
  return buffer;
}

inline std::string Secs(double seconds) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.4f s", seconds);
  return buffer;
}

inline std::string Millis(double seconds) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.2f ms", seconds * 1e3);
  return buffer;
}

inline std::string Pct(double fraction) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%+.1f%%", fraction * 100.0);
  return buffer;
}

}  // namespace mmlib::bench

