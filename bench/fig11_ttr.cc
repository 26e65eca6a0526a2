/// Reproduces paper Figure 11: median time-to-recover (TTR) across use
/// cases and approaches for MobileNetV2 and ResNet-152. Expected shapes:
/// BA flat; PUA a staircase restarting at U1 and U3-2-1 (recursive
/// recovery); MPA the same staircase but much higher (training is
/// reproduced). Real deterministic training with the paper's reduced
/// schedule (two epochs, two batches) at lr 0.001 (ReplayTrainRecipe; a
/// protocol deviation, see EXPERIMENTS.md).
///
/// Each cell is the median over three flows of the approach, since a single
/// flow measures each use case once and single cells jump by about 50%.
///
/// Those shapes are gated in each panel, read from the printed medians: the
/// binary exits 1 unless they hold. The staircase is read from
/// sums of two steps: the rise is TTR(U3-1-3) + TTR(U3-1-4) over
/// TTR(U3-1-1) + TTR(U3-1-2). BA must stay flat (rise below 1.5), PUA and
/// MPA must rise (above 1.25), and MPA's mean U3 TTR must exceed PUA's.
#include <algorithm>
#include <cstdio>
#include <string>

#include "bench/bench_common.h"

using namespace mmlib;
using namespace mmlib::bench;
using namespace mmlib::dist;

namespace {

constexpr int kRuns = 3;  // flows per approach; cells are their medians

/// Staircase rise within U3-1 and mean U3 TTR of one approach.
struct TtrShape {
  double rise = 0;
  double mean_u3 = 0;
};

/// Returns the shape of BA, PUA and MPA, in that order.
std::vector<TtrShape> Panel(const char* panel_id, models::Architecture arch) {
  std::printf("--- Figure 11(%s): %s, fully updated, CO-512 ---\n", panel_id,
              std::string(models::ArchitectureName(arch)).c_str());

  std::vector<std::string> headers = {"use case"};
  // results[approach][run]
  std::vector<std::vector<FlowResult>> results;
  for (ApproachKind approach : {ApproachKind::kBaseline,
                                ApproachKind::kParamUpdate,
                                ApproachKind::kProvenance}) {
    headers.push_back(std::string(ApproachName(approach)));
    std::vector<FlowResult> runs;
    for (int run = 0; run < kRuns; ++run) {
      FlowConfig config;
      config.approach = approach;
      config.model = TrainScaleModel(arch);
      config.u3_dataset = data::PaperDatasetId::kCocoOutdoor512;
      config.dataset_divisor = 512;
      config.train = ReplayTrainRecipe();
      config.training_mode = TrainingMode::kReal;
      config.recover_models = true;
      runs.push_back(RunFlowRemote(config));
    }
    results.push_back(std::move(runs));
  }

  auto median_ttr = [](const std::vector<FlowResult>& runs,
                       const std::string& label) {
    std::vector<double> values;
    for (const FlowResult& run : runs) {
      values.push_back(run.MedianTtr(label));
    }
    std::sort(values.begin(), values.end());
    return values[values.size() / 2];
  };

  TablePrinter table(headers);
  for (const std::string& label : results[0][0].Labels()) {
    std::vector<std::string> row = {label};
    for (const auto& runs : results) {
      row.push_back(Millis(median_ttr(runs, label)));
    }
    table.AddRow(std::move(row));
  }
  table.Print(std::cout);

  std::vector<TtrShape> shapes;
  for (const auto& runs : results) {
    auto ttr = [&](const std::string& label) {
      return median_ttr(runs, label);
    };
    TtrShape shape;
    shape.rise = (ttr("U3-1-3") + ttr("U3-1-4")) /
                 (ttr("U3-1-1") + ttr("U3-1-2"));
    int count = 0;
    for (const std::string& label : runs[0].Labels()) {
      if (label.rfind("U3-", 0) == 0) {
        shape.mean_u3 += ttr(label);
        ++count;
      }
    }
    shape.mean_u3 /= count;
    shapes.push_back(shape);
  }
  std::printf(
      "staircase rise (U3-1-3 + U3-1-4) / (U3-1-1 + U3-1-2):  BA %.2fx   "
      "PUA %.2fx   MPA %.2fx\n\n",
      shapes[0].rise, shapes[1].rise, shapes[2].rise);
  return shapes;
}

}  // namespace

int main() {
  PrintHeader(
      "Figure 11", "Median time-to-recover (TTR) across approaches",
      "Recovery of a PUA/MPA model recovers all its base models first\n"
      "(paper Sections 3.2/3.3). All models recovered losslessly (checksum\n"
      "verified); env-check and verify steps included in totals.");
  const std::vector<TtrShape> a =
      Panel("a", models::Architecture::kMobileNetV2);
  const std::vector<TtrShape> b =
      Panel("b", models::Architecture::kResNet152);

  Gate gate;
  auto check_panel = [&](const std::string& panel,
                         const std::vector<TtrShape>& shapes) {
    gate.Check(panel + " BA flat (rise < 1.5)", shapes[0].rise < 1.5);
    gate.Check(panel + " PUA rising (rise > 1.25)", shapes[1].rise > 1.25);
    gate.Check(panel + " MPA rising (rise > 1.25)", shapes[2].rise > 1.25);
    gate.Check(panel + " MPA > PUA (mean U3 TTR)",
               shapes[2].mean_u3 > shapes[1].mean_u3);
  };
  check_panel("(a)", a);
  check_panel("(b)", b);
  return gate.Report("shape check");
}
