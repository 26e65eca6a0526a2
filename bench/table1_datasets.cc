/// Reproduces paper Table 1: the evaluation datasets with image counts,
/// sizes, and associated use cases. The synthetic stand-ins are generated at
/// the repo-default 1/64 scale; the paper's original sizes are shown next to
/// the generated ones. Exits 1 unless every stand-in has the paper's image
/// count and the generated sizes keep the paper's order, INet-val >
/// mINet-val > CF-512 > CO-512.
#include <cstdio>
#include <string>

#include "bench/bench_common.h"
#include "data/dataset.h"

using namespace mmlib;
using namespace mmlib::data;

int main() {
  bench::PrintHeader(
      "Table 1", "Datasets used throughout the evaluation",
      "Synthetic stand-ins at 1/64 of the paper's sizes (DESIGN.md S1);\n"
      "relative sizes between datasets are preserved.");

  TablePrinter table({"short name", "images", "paper size", "generated size",
                      "stored dim", "use case"});
  bench::Gate gate;
  // Table1Reference lists the datasets from the largest to the smallest.
  size_t previous_bytes = 0;
  std::string previous_name;
  for (const Table1Row& row : Table1Reference()) {
    SyntheticImageDataset dataset(row.id, kDefaultDatasetDivisor);
    table.AddRow({row.short_name, std::to_string(dataset.size()),
                  FormatBytes(row.paper_bytes),
                  FormatBytes(dataset.TotalByteSize()),
                  std::to_string(dataset.stored_dim()) + "x" +
                      std::to_string(dataset.stored_dim()),
                  row.use_case});
    gate.Check(row.short_name + " has " + std::to_string(row.images) +
                   " images",
               dataset.size() == row.images, std::to_string(dataset.size()));
    if (!previous_name.empty()) {
      gate.Check(previous_name + " > " + row.short_name + " in bytes",
                 previous_bytes > dataset.TotalByteSize());
    }
    previous_bytes = dataset.TotalByteSize();
    previous_name = row.short_name;
  }
  table.Print(std::cout);

  // Content hashes document determinism: the same datasets regenerate
  // identically on any machine.
  std::printf("\nDataset content hashes (deterministic across machines):\n");
  for (const Table1Row& row : Table1Reference()) {
    if (row.id == PaperDatasetId::kImageNetVal) {
      // 50k images; skip hashing in the default run to keep this fast.
      std::printf("  %-10s (skipped: 50,000 images)\n",
                  row.short_name.c_str());
      continue;
    }
    SyntheticImageDataset dataset(row.id, kDefaultDatasetDivisor);
    std::printf("  %-10s %s\n", row.short_name.c_str(),
                dataset.ContentHash().ToHex().substr(0, 16).c_str());
  }
  return gate.Report("claim check: image counts and size order of Table 1");
}
