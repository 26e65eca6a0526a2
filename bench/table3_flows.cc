/// Reproduces paper Table 3: the evaluation flows with their node and model
/// counts, and verifies each flow actually saves that many models.
///
/// The flows run over the simulated storage link, so each one declares its
/// participant nodes on a simnet::Network. `--check` gates the table: it
/// exits non-zero unless every flow saves exactly the paper's model count
/// (10, 102, 202, 402).
#include <cstdio>
#include <cstring>

#include "bench/bench_common.h"

using namespace mmlib;
using namespace mmlib::bench;
using namespace mmlib::dist;

int main(int argc, char** argv) {
  bool check = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--check") == 0) {
      check = true;
    } else {
      std::fprintf(stderr, "usage: %s [--check]\n", argv[0]);
      return 2;
    }
  }

  PrintHeader("Table 3", "Evaluation flows",
              "STANDARD has 4 U3 iterations per phase; DIST flows have 10.");

  struct FlowSpec {
    const char* name;
    int nodes;
    int iterations;
    int paper_models;
  };
  TablePrinter table({"name", "#nodes", "#models (run)", "#models (paper)"});
  bool counts_match = true;
  for (const FlowSpec spec :
       {FlowSpec{"STANDARD", 1, 4, 10}, FlowSpec{"DIST-5", 5, 10, 102},
        FlowSpec{"DIST-10", 10, 10, 202}, FlowSpec{"DIST-20", 20, 10, 402}}) {
    FlowConfig config;
    config.approach = ApproachKind::kBaseline;
    config.model = TrainScaleModel(models::Architecture::kMobileNetV2);
    config.num_nodes = spec.nodes;
    config.u3_iterations = spec.iterations;
    config.dataset_divisor = 4096;
    config.training_mode = TrainingMode::kSimulated;
    config.recover_models = false;
    const FlowResult result = RunFlowRemote(config);
    counts_match = counts_match && static_cast<int>(result.records.size()) ==
                                       spec.paper_models;
    table.AddRow({spec.name, std::to_string(spec.nodes),
                  std::to_string(result.records.size()),
                  std::to_string(spec.paper_models)});
  }
  table.Print(std::cout);
  if (!check) {
    return 0;
  }
  std::printf("\ncount check: every flow saves the paper's model count: %s\n",
              counts_match ? "yes" : "NO");
  return counts_match ? 0 : 1;
}
