/// Reproduces paper Figure 10: median time-to-save (TTS) across use cases
/// and approaches. Panels follow the paper: (a) MobileNetV2 fully updated,
/// (b) MobileNetV2 partially updated, (c) ResNet-152 partially updated.
/// All U3 models are trained on CO-512.
///
/// The figure's shape is gated on the mean U3 TTS: the binary exits 1
/// unless PUA saves faster than BA in panels (b) and (c), where only part
/// of each model changes, and MPA saves slower than BA in panels (a) and
/// (b), where MobileNetV2's dataset outweighs its parameters.
#include <cstdio>

#include "bench/bench_common.h"

using namespace mmlib;
using namespace mmlib::bench;
using namespace mmlib::dist;

namespace {

constexpr int kRuns = 5;  // median of five runs, as in the paper

/// Mean U3 TTS of each approach in one panel, in seconds.
struct PanelMeans {
  double ba = 0;
  double pua = 0;
  double mpa = 0;
};

PanelMeans Panel(const char* panel_id, models::Architecture arch,
           ModelRelation relation) {
  std::printf("--- Figure 10(%s): %s, %s versions, CO-512 ---\n", panel_id,
              std::string(models::ArchitectureName(arch)).c_str(),
              std::string(RelationName(relation)).c_str());

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
      config.model = StorageScaleModel(arch);
      config.relation = relation;
      config.u3_dataset = data::PaperDatasetId::kCocoOutdoor512;
      config.dataset_divisor = MatchedDatasetDivisor(config.model);
      config.training_mode = TrainingMode::kSimulated;
      config.recover_models = false;
      runs.push_back(RunFlowRemote(config));
    }
    results.push_back(std::move(runs));
  }

  auto median_tts = [](const std::vector<FlowResult>& runs,
                       const std::string& label) {
    std::vector<double> values;
    for (const FlowResult& run : runs) {
      values.push_back(run.MedianTts(label));
    }
    std::sort(values.begin(), values.end());
    return values[values.size() / 2];
  };

  TablePrinter table(headers);
  for (const std::string& label : results[0][0].Labels()) {
    if (label == "U2") {
      continue;  // excluded from comparison plots, as in the paper
    }
    std::vector<std::string> row = {label};
    for (const auto& runs : results) {
      row.push_back(Millis(median_tts(runs, label)));
    }
    table.AddRow(std::move(row));
  }
  table.Print(std::cout);

  PanelMeans means;
  int count = 0;
  for (const std::string& label : results[0][0].Labels()) {
    if (label == "U1" || label == "U2") {
      continue;
    }
    means.ba += median_tts(results[0], label);
    means.pua += median_tts(results[1], label);
    means.mpa += median_tts(results[2], label);
    ++count;
  }
  means.ba /= count;
  means.pua /= count;
  means.mpa /= count;
  std::printf("mean U3 TTS vs BA:  PUA %s   MPA %s\n\n",
              Pct(means.pua / means.ba - 1.0).c_str(),
              Pct(means.mpa / means.ba - 1.0).c_str());
  return means;
}

}  // namespace

int main() {
  PrintHeader(
      "Figure 10", "Median time-to-save (TTS) across approaches",
      "Paper headline numbers: PUA beats BA by up to 28.5% (MobileNetV2)\n"
      "and 51.7% (ResNet-152) for partially updated versions; MPA can beat\n"
      "both by up to 15.8% when its payload is small, and loses badly when\n"
      "the dataset dominates.");
  const PanelMeans a = Panel("a", models::Architecture::kMobileNetV2,
                             ModelRelation::kFullyUpdated);
  const PanelMeans b = Panel("b", models::Architecture::kMobileNetV2,
                             ModelRelation::kPartiallyUpdated);
  const PanelMeans c = Panel("c", models::Architecture::kResNet152,
                             ModelRelation::kPartiallyUpdated);

  Gate gate;
  gate.Check("(b) PUA < BA", b.pua < b.ba);
  gate.Check("(c) PUA < BA", c.pua < c.ba);
  gate.Check("(a) MPA > BA", a.mpa > a.ba);
  gate.Check("(b) MPA > BA", b.mpa > b.ba);
  return gate.Report("shape check: mean U3 TTS");
}
