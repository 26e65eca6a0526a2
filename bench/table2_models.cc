/// Reproduces paper Table 2: the model architectures with their trainable
/// parameter counts, partially-updated parameter counts, and sizes. Built at
/// full scale (channel divisor 1), where the counts must match the paper
/// exactly.
#include <cstdio>

#include "bench/bench_common.h"
#include "models/zoo.h"

using namespace mmlib;
using namespace mmlib::models;

int main() {
  bench::PrintHeader("Table 2", "Model architectures (full scale)",
                     "#Params / partially-updated params must equal the "
                     "paper exactly.");

  TablePrinter table({"name", "#params", "paper #params", "part. updated",
                      "paper part.", "size", "paper size"});
  bench::Gate gate;
  for (const Table2Row& row : Table2Reference()) {
    const Architecture arch = ArchitectureFromName(row.name).value();
    auto model = BuildModel(FullScaleConfig(arch)).value();
    const int64_t params = model.TrainableParamCount();
    const int64_t partial = ApplyPartialUpdateFreeze(&model);
    char size_buf[32];
    std::snprintf(size_buf, sizeof(size_buf), "%.1f MB",
                  params * 4.0 / 1e6);
    char paper_size[32];
    std::snprintf(paper_size, sizeof(paper_size), "%.1f MB", row.size_mb);
    table.AddRow({row.name, std::to_string(params),
                  std::to_string(row.params), std::to_string(partial),
                  std::to_string(row.partially_updated_params), size_buf,
                  paper_size});
    gate.Check(row.name + " #params and partially-updated equal the paper",
               params == row.params &&
                   partial == row.partially_updated_params);
  }
  table.Print(std::cout);
  return gate.Report("claim check: counts equal paper Table 2");
}
