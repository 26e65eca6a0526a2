/// Reproduces paper Figure 8: storage consumption (baseline approach) and
/// number of parameters per model architecture — storage grows
/// proportionally with the parameter count. Exits 1 unless every model
/// stores 4.0-4.3 bytes per parameter and storage rises strictly with the
/// parameter count.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <utility>
#include <vector>

#include "bench/bench_common.h"
#include "core/baseline.h"
#include "core/model_code.h"
#include "env/environment.h"

using namespace mmlib;
using namespace mmlib::bench;

int main() {
  PrintHeader("Figure 8",
              "Baseline storage consumption and #parameters per model",
              "Channel divisor 4; the bytes-per-parameter column shows "
              "proportionality.");

  const env::EnvironmentInfo environment = env::CollectEnvironment();
  TablePrinter table({"model", "#params", "storage", "bytes/param",
                      "paper #params (full)"});
  // (#params, storage bytes) per model, for the proportionality check.
  std::vector<std::pair<int64_t, uint64_t>> points;
  bool ratios_in_band = true;
  for (const models::Table2Row& paper_row : models::Table2Reference()) {
    const models::Architecture arch =
        models::ArchitectureFromName(paper_row.name).value();
    const models::ModelConfig config = StorageScaleModel(arch);
    auto model = models::BuildModel(config).value();

    Backing backing;
    core::BaselineSaveService service(backing.backends);
    core::SaveRequest request;
    request.model = &model;
    request.code = core::CodeDescriptorFor(config);
    request.environment = &environment;
    const auto save = service.SaveModel(request).value();

    const double bytes_per_param = static_cast<double>(save.storage_bytes) /
                                   model.TrainableParamCount();
    ratios_in_band =
        ratios_in_band && bytes_per_param >= 4.0 && bytes_per_param <= 4.3;
    points.emplace_back(model.TrainableParamCount(), save.storage_bytes);
    char ratio[32];
    std::snprintf(ratio, sizeof(ratio), "%.2f", bytes_per_param);
    table.AddRow({paper_row.name, std::to_string(model.TrainableParamCount()),
                  Mb(save.storage_bytes), ratio,
                  std::to_string(paper_row.params)});
  }
  table.Print(std::cout);
  std::sort(points.begin(), points.end());
  bool rising = true;
  for (size_t i = 1; i < points.size(); ++i) {
    rising = rising && points[i].first > points[i - 1].first &&
             points[i].second > points[i - 1].second;
  }
  std::printf(
      "\nStorage increases proportionally with the parameter count\n"
      "(~4 bytes/param plus layer-name and metadata overhead), as in the "
      "paper.\n");

  Gate gate;
  gate.Check("bytes per parameter within [4.0, 4.3]", ratios_in_band);
  gate.Check("storage rises strictly with #params", rising);
  return gate.Report("claim check");
}
