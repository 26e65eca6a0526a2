/// Reproduces paper Figure 12: baseline time-to-recover broken down into
/// the recovery steps — loading the model data, recovering the model from
/// it, and verifying the recovered parameters — for model U3-1-3 across all
/// architectures. The environment-check time is excluded from the table, as
/// in the paper (it is constant across architectures).
///
/// The figure's shape is gated: the binary exits 1 unless ResNet-152 (the
/// most parameters) takes longer than MobileNetV2 (the fewest) in each of
/// load, recover and verify.
#include <cstdio>
#include <map>

#include "bench/bench_common.h"

using namespace mmlib;
using namespace mmlib::bench;
using namespace mmlib::dist;

int main() {
  PrintHeader(
      "Figure 12", "Baseline TTR breakdown for U3-1-3 per architecture",
      "Expected shape: every step grows with the parameter count. The\n"
      "paper's GoogLeNet 'recover' spike comes from torchvision's model\n"
      "initialization; restored models here are built without init draws,\n"
      "so it does not appear (EXPERIMENTS.md, Figure 12).");

  TablePrinter table({"model", "#params", "load", "recover", "verify",
                      "total (excl. env check)"});
  std::map<models::Architecture, core::RecoverBreakdown> breakdowns;
  for (models::Architecture arch : models::AllArchitectures()) {
    FlowConfig config;
    config.approach = ApproachKind::kBaseline;
    config.model = StorageScaleModel(arch);
    config.training_mode = TrainingMode::kSimulated;
    config.recover_models = true;
    const FlowResult result = RunFlowRemote(config);

    core::RecoverBreakdown breakdown;
    for (const UseCaseRecord& record : result.records) {
      if (record.label == "U3-1-3") {
        breakdown = record.ttr_breakdown;
      }
    }
    breakdowns[arch] = breakdown;
    auto model = models::BuildModel(config.model).value();
    const double total = breakdown.load_seconds + breakdown.recover_seconds +
                         breakdown.verify_seconds;
    table.AddRow({std::string(models::ArchitectureName(arch)),
                  std::to_string(model.TrainableParamCount()),
                  Millis(breakdown.load_seconds),
                  Millis(breakdown.recover_seconds),
                  Millis(breakdown.verify_seconds), Millis(total)});
  }
  table.Print(std::cout);

  const core::RecoverBreakdown& small =
      breakdowns[models::Architecture::kMobileNetV2];
  const core::RecoverBreakdown& large =
      breakdowns[models::Architecture::kResNet152];
  const struct {
    const char* step;
    double small_seconds;
    double large_seconds;
  } steps[] = {
      {"load", small.load_seconds, large.load_seconds},
      {"recover", small.recover_seconds, large.recover_seconds},
      {"verify", small.verify_seconds, large.verify_seconds},
  };
  Gate gate;
  for (const auto& s : steps) {
    gate.Check(s.step, s.large_seconds > s.small_seconds,
               Millis(s.large_seconds) + " > " + Millis(s.small_seconds));
  }
  return gate.Report("shape check: ResNet-152 > MobileNetV2 in every step");
}
