/// Ablation: the cost of stateful-optimizer state files in MPA provenance.
/// The paper's MPA storage is >99.9% dataset for MobileNetV2 (Section 4.2),
/// which implies momentum-free SGD; with momentum, every provenance save
/// additionally persists velocity buffers of model size. This quantifies
/// that trade-off.
#include <cstdio>

#include "bench/bench_common.h"
#include "core/model_code.h"
#include "core/provenance.h"
#include "core/train_service.h"
#include "env/environment.h"

using namespace mmlib;
using namespace mmlib::bench;

int main() {
  PrintHeader(
      "Ablation", "Optimizer state files in MPA provenance",
      "MobileNetV2 (divisor 4); second derived save in a chain (the first\n"
      "save captures pre-training state, which is empty).");

  const models::ModelConfig model_config =
      StorageScaleModel(models::Architecture::kMobileNetV2);
  const env::EnvironmentInfo environment = env::CollectEnvironment();
  data::SyntheticImageDataset dataset(data::PaperDatasetId::kCocoOutdoor512,
                                      512);

  TablePrinter table({"sgd momentum", "state file", "MPA storage / save",
                      "dataset share"});
  for (const float momentum : {0.0f, 0.9f}) {
    auto model = models::BuildModel(model_config).value();
    Backing backing;
    core::ProvenanceSaveService service(backing.backends);
    core::SaveRequest request;
    request.model = &model;
    request.code = core::CodeDescriptorFor(model_config);
    request.environment = &environment;
    std::string base_id = service.SaveModel(request).value().model_id;

    core::TrainConfig train_config;
    train_config.epochs = 1;
    train_config.max_batches_per_epoch = 1;
    train_config.loader.batch_size = 4;
    train_config.loader.image_size = model_config.image_size;
    train_config.loader.num_classes = model_config.num_classes;
    train_config.sgd.momentum = momentum;
    core::ImageTrainService trainer(&dataset, train_config);

    core::SaveResult save;
    size_t state_bytes = 0;
    for (int round = 0; round < 2; ++round) {
      auto provenance = trainer.CaptureProvenance().value();
      state_bytes = provenance.optimizer_state.size();
      if (!trainer.Train(&model, true, 0).ok()) {
        return 1;
      }
      core::SaveRequest derived = request;
      derived.base_model_id = base_id;
      derived.provenance = &provenance;
      save = service.SaveModel(derived).value();
      base_id = save.model_id;
    }

    data::DatasetArchiver archiver(Codec::ForKind(CodecKind::kLz77));
    const size_t archive_bytes =
        archiver.Archive(dataset, dataset.ContentHash()).value().size();
    char momentum_buf[16];
    std::snprintf(momentum_buf, sizeof(momentum_buf), "%.1f", momentum);
    char share[16];
    std::snprintf(share, sizeof(share), "%.1f%%",
                  100.0 * archive_bytes / save.storage_bytes);
    table.AddRow({momentum_buf, Kb(state_bytes), Mb(save.storage_bytes),
                  share});
  }
  table.Print(std::cout);
  return 0;
}
