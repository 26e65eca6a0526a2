/// Reproduces paper Figure 15: median time-to-recover (TTR) for fully
/// updated MobileNetV2 versions across approaches on the DIST-20 evaluation
/// flow. Expected shape: BA flat; PUA and MPA staircases restarting at U1
/// and U3-2-1, with ten steps per phase (vs four in the standard flow) and
/// MPA far above PUA (training is reproduced on recovery).
///
/// Real deterministic training (required for MPA recovery), one batch per
/// epoch to keep the 402-model run tractable; 2,200 trainings are replayed
/// during the recovery phase. The optimizer is the one of
/// ReplayTrainRecipe (momentum-free SGD at lr 0.001; a protocol deviation,
/// see EXPERIMENTS.md).
///
/// Those shapes are gated, read from the printed medians: the binary exits
/// 1 unless they hold. The staircase of phase p is read from sums of
/// two steps: the rise is TTR(U3-p-9) + TTR(U3-p-10) over TTR(U3-p-1) +
/// TTR(U3-p-2). In both phases BA must stay flat (rise below 1.5), PUA and
/// MPA must rise (above 1.25), and MPA must sit above PUA at step 10.
#include <cstdio>
#include <string>

#include "bench/bench_common.h"

using namespace mmlib;
using namespace mmlib::bench;
using namespace mmlib::dist;

int main() {
  PrintHeader("Figure 15", "DIST-20 median TTR, fully updated MobileNetV2",
              "Per-use-case medians over 20 nodes; checksum-verified "
              "recovery of all 402 models per approach.");

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
    config.dataset_divisor = 2048;
    config.num_nodes = 20;
    config.u3_iterations = 10;
    config.train.epochs = 1;
    config.train.max_batches_per_epoch = 1;
    config.train.loader.batch_size = 4;
    config.train.sgd = ReplayTrainRecipe().sgd;
    config.training_mode = TrainingMode::kReal;
    config.recover_models = true;
    results.push_back(RunFlowRemote(config));
  }

  TablePrinter table(headers);
  for (const std::string& label : results[0].Labels()) {
    std::vector<std::string> row = {label};
    for (const FlowResult& result : results) {
      row.push_back(Millis(result.MedianTtr(label)));
    }
    table.AddRow(std::move(row));
  }
  table.Print(std::cout);

  const double pua_step1 = results[1].MedianTtr("U3-1-1");
  const double pua_step10 = results[1].MedianTtr("U3-1-10");
  const double mpa_step1 = results[2].MedianTtr("U3-1-1");
  const double mpa_step10 = results[2].MedianTtr("U3-1-10");
  std::printf(
      "\nstaircase U3-1-1 -> U3-1-10:  PUA %.2fx   MPA %.2fx; MPA/PUA at "
      "step 10: %.1fx\n",
      pua_step10 / pua_step1, mpa_step10 / mpa_step1,
      mpa_step10 / pua_step10);

  Gate gate;
  for (const char* phase : {"1", "2"}) {
    auto ttr = [&](size_t approach, int step) {
      return results[approach].MedianTtr(std::string("U3-") + phase + "-" +
                                         std::to_string(step));
    };
    auto rise = [&](size_t approach) {
      return (ttr(approach, 9) + ttr(approach, 10)) /
             (ttr(approach, 1) + ttr(approach, 2));
    };
    auto value = [](double v) {
      char buffer[32];
      std::snprintf(buffer, sizeof(buffer), "%.2f", v);
      return std::string(buffer);
    };
    const std::string prefix = std::string("U3-") + phase + " ";
    const double ba = rise(0);
    const double pua = rise(1);
    const double mpa = rise(2);
    gate.Check(prefix + "BA flat (rise < 1.5)", ba < 1.5, value(ba));
    gate.Check(prefix + "PUA rising (rise > 1.25)", pua > 1.25, value(pua));
    gate.Check(prefix + "MPA rising (rise > 1.25)", mpa > 1.25, value(mpa));
    gate.Check(prefix + "MPA > PUA at step 10 (ratio > 1)",
               ttr(2, 10) > ttr(1, 10), value(ttr(2, 10) / ttr(1, 10)));
  }
  return gate.Report("shape check");
}
