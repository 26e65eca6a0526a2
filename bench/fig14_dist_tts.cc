/// Reproduces paper Figure 14: median time-to-save (TTS) for fully updated
/// MobileNetV2 versions across approaches on the DIST-20 evaluation flow
/// (20 nodes, 10 U3 iterations per phase, 402 models per run). Values are
/// per-use-case medians over the 20 nodes. All U3 models trained on CO-512.
#include <cstdio>

#include "bench/bench_common.h"

using namespace mmlib;
using namespace mmlib::bench;
using namespace mmlib::dist;

int main() {
  PrintHeader(
      "Figure 14", "DIST-20 median TTS, fully updated MobileNetV2",
      "Expected shape (paper Section 4.6): per-use-case TTS is flat across\n"
      "iterations; BA ~ PUA (fully updated => full-size update); MPA is\n"
      "higher (about 2x BA in U3, more in U2) because it persists the\n"
      "dataset archive.");

  std::vector<std::string> headers = {"use case"};
  std::vector<FlowResult> results;
  for (ApproachKind approach : {ApproachKind::kBaseline,
                                ApproachKind::kParamUpdate,
                                ApproachKind::kProvenance}) {
    headers.push_back(std::string(ApproachName(approach)));
    FlowConfig config;
    config.approach = approach;
    config.model = TrainScaleModel(models::Architecture::kMobileNetV2);
    config.u3_dataset = data::PaperDatasetId::kCocoOutdoor512;
    config.dataset_divisor = MatchedDatasetDivisor(config.model);
    config.num_nodes = 20;
    config.u3_iterations = 10;
    config.train.epochs = 1;
    config.train.max_batches_per_epoch = 1;
    config.train.loader.batch_size = 4;
    config.training_mode = TrainingMode::kSimulated;
    config.recover_models = false;
    results.push_back(RunFlowRemote(config));
  }

  TablePrinter table(headers);
  for (const std::string& label : results[0].Labels()) {
    std::vector<std::string> row = {label};
    for (const FlowResult& result : results) {
      row.push_back(Millis(result.MedianTts(label)));
    }
    table.AddRow(std::move(row));
  }
  table.Print(std::cout);

  std::printf("\nModels saved per run: %zu (paper: 402)\n",
              results[0].records.size());
  return 0;
}
