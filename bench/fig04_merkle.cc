/// Reproduces paper Figure 4: number of hash comparisons needed to locate
/// the changed layers via the Merkle tree, versus a naive layer-by-layer
/// scan. Paper values with the last two layers changed: 8 layers -> 7,
/// 64 -> 13, 128 -> 15. Exits 1 unless those three rows equal the paper.
#include <cstdio>

#include "bench/bench_common.h"
#include "hash/merkle_tree.h"

using namespace mmlib;

int main() {
  bench::PrintHeader("Figure 4",
                     "Merkle-tree comparisons to find changed layers",
                     "Last two layers changed, as in the paper's example.");

  TablePrinter table({"layers", "merkle comparisons", "naive comparisons",
                      "paper (merkle)"});
  struct PaperRow {
    size_t layers;
    size_t paper;  // 0: not in the paper
  };
  bench::Gate gate;
  for (const PaperRow row : {PaperRow{8, 7}, PaperRow{16, 0},
                             PaperRow{32, 0}, PaperRow{64, 13},
                             PaperRow{128, 15}, PaperRow{256, 0}}) {
    std::vector<Digest> leaves;
    for (size_t i = 0; i < row.layers; ++i) {
      leaves.push_back(Sha256::Hash("layer-" + std::to_string(i)));
    }
    const MerkleTree before = MerkleTree::Build(leaves).value();
    leaves[row.layers - 2] = Sha256::Hash("changed-a");
    leaves[row.layers - 1] = Sha256::Hash("changed-b");
    const MerkleTree after = MerkleTree::Build(leaves).value();
    const MerkleDiff diff = MerkleTree::Diff(before, after).value();
    table.AddRow({std::to_string(row.layers),
                  std::to_string(diff.comparisons),
                  std::to_string(before.NaiveComparisonCount()),
                  row.paper > 0 ? std::to_string(row.paper) : "-"});
    if (row.paper > 0) {
      gate.Check(std::to_string(row.layers) + " layers take " +
                     std::to_string(row.paper) + " comparisons",
                 diff.comparisons == row.paper,
                 std::to_string(diff.comparisons));
    }
  }
  table.Print(std::cout);
  return gate.Report("claim check: Merkle comparisons equal paper Figure 4");
}
