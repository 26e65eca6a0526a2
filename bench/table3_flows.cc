/// Reproduces paper Table 3: the evaluation flows with their node and model
/// counts, and verifies each flow actually saves that many models.
///
/// The flows run over the simulated storage link, so each one declares its
/// participant nodes on a simnet::Network. Exits 1 unless every flow saves
/// exactly the paper's model count (10, 102, 202, 402).
#include <cstdio>
#include <string>

#include "bench/bench_common.h"

using namespace mmlib;
using namespace mmlib::bench;
using namespace mmlib::dist;

int main() {
  PrintHeader("Table 3", "Evaluation flows",
              "STANDARD has 4 U3 iterations per phase; DIST flows have 10.");

  struct FlowSpec {
    const char* name;
    int nodes;
    int iterations;
    int paper_models;
  };
  TablePrinter table({"name", "#nodes", "#models (run)", "#models (paper)"});
  Gate gate;
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
    gate.Check(std::string(spec.name) + " saves " +
                   std::to_string(spec.paper_models) + " models",
               static_cast<int>(result.records.size()) == spec.paper_models,
               std::to_string(result.records.size()));
    table.AddRow({spec.name, std::to_string(spec.nodes),
                  std::to_string(result.records.size()),
                  std::to_string(spec.paper_models)});
  }
  table.Print(std::cout);
  return gate.Report("claim check: every flow saves the paper's model count");
}
