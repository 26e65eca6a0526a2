/// Probing-tool demo (paper Section 2.4): execute a model twice on the same
/// batch, capture every layer's forward output and backward gradient, and
/// compare the traces — in deterministic mode they match bit-for-bit; in
/// non-deterministic mode the tool pinpoints the first diverging layer.
#include <cstdio>

#include "core/probe.h"
#include "data/dataloader.h"
#include "models/zoo.h"

using namespace mmlib;

int main() {
  std::printf("probing tool demo\n=================\n\n");

  models::ModelConfig config =
      models::DefaultConfig(models::Architecture::kGoogLeNet);
  config.channel_divisor = 8;
  config.image_size = 28;
  config.num_classes = 125;
  auto model = models::BuildModel(config).value();
  std::printf("model: %s (%zu layers)\n",
              std::string(models::ArchitectureName(config.arch)).c_str(),
              model.node_count());

  data::SyntheticImageDataset dataset(
      data::PaperDatasetId::kCocoFood512, /*size_divisor=*/2048);
  data::DataLoaderOptions options;
  options.batch_size = 4;
  options.image_size = config.image_size;
  options.num_classes = config.num_classes;
  data::DataLoader loader(&dataset, options);
  const data::Batch batch = loader.GetBatch(0).value();

  bool deterministic_equal = false;
  for (const bool deterministic : {true, false}) {
    auto comparison =
        core::CheckReproducibility(&model, batch, deterministic, /*seed=*/3)
            .value();
    if (deterministic) {
      deterministic_equal = comparison.equal;
    }
    std::printf("\n%s execution: %s\n",
                deterministic ? "deterministic" : "non-deterministic",
                comparison.equal ? "all layer traces identical"
                                 : "traces diverge");
    if (!comparison.equal) {
      std::printf("  %s; %zu tensors captured per run\n",
                  comparison.FirstDivergence().c_str(),
                  2 * model.node_count());
    }
  }

  // Cross-machine verification: serialize a trace, "ship" it, compare.
  nn::ExecutionContext ctx = nn::ExecutionContext::Deterministic(3);
  auto trace = core::ProbeModel(&model, batch, &ctx).value();
  const Bytes shipped = trace.Serialize();
  std::printf("\nserialized trace: %zu bytes for %zu tensors, root %s\n",
              shipped.size(), trace.events.size(),
              trace.Root().value().ToHex().substr(0, 16).c_str());

  nn::ExecutionContext remote_ctx = nn::ExecutionContext::Deterministic(3);
  auto remote = core::ProbeModel(&model, batch, &remote_ctx).value();
  auto cross = core::CompareTraces(
      core::LayerTrace::Deserialize(shipped).value(), remote);
  std::printf("cross-machine comparison: %s\n",
              cross.equal ? "reproducible" : "NOT reproducible");
  // Non-zero exit unless deterministic execution reproduces, locally and
  // through the serialized trace.
  return deterministic_equal && cross.equal ? 0 : 1;
}
