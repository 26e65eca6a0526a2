#include "workload.h"

#include <cmath>
#include <utility>

#include "core/baseline.h"
#include "core/model_code.h"
#include "core/param_update.h"
#include "core/provenance.h"
#include "env/environment.h"
#include "util/random.h"

namespace perfbench {

using mmlib::Result;
using mmlib::Status;
namespace core = mmlib::core;
namespace models = mmlib::models;
namespace nn = mmlib::nn;

namespace {

/// Versions the timed loop cycles through: enough that consecutive saves
/// differ, few enough to stay resident.
constexpr size_t kVersions = 3;

uint64_t Mix(uint64_t seed, uint64_t salt) {
  uint64_t x = seed * 0x9e3779b97f4a7c15ULL + salt;
  x ^= x >> 31;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 29;
  return x;
}

/// Deterministically perturbs every trainable parameter: a new model
/// version without the cost of training it.
void Perturb(nn::Model* model, uint64_t seed) {
  mmlib::Rng rng(seed);
  for (size_t i = 0; i < model->node_count(); ++i) {
    for (nn::Param& param : model->layer(i)->params()) {
      if (!param.trainable || param.is_buffer) {
        continue;
      }
      float* values = param.value.data();
      for (int64_t k = 0; k < param.value.numel(); ++k) {
        values[k] += rng.NextGaussian() * 0.01f;
      }
    }
  }
}

/// Times `op` and measures what it cost on both clocks and in the stores.
template <typename Op>
auto Measure(Stores* stores, const char* name, OpSample* sample, Op&& op) {
  const mmlib::simnet::Network& network = stores->network();
  const double virtual_before = network.TotalTransferSeconds();
  const uint64_t bytes_before = network.TotalBytes();
  const size_t stored_before = stores->local().TotalStoredBytes();
  const StoreCounters files_before = stores->file_counters();
  const StoreCounters docs_before = stores->doc_counters();
  ScopedSpan span(stores->tracer(), name);
  const uint64_t start = SteadyNowNs();
  auto result = op();
  sample->wall_ns = SteadyNowNs() - start;
  sample->span_id = span.id();
  sample->virtual_ns = static_cast<uint64_t>(std::llround(
      (network.TotalTransferSeconds() - virtual_before) * 1e9));
  sample->net_bytes = network.TotalBytes() - bytes_before;
  sample->stored_bytes =
      static_cast<int64_t>(stores->local().TotalStoredBytes()) -
      static_cast<int64_t>(stored_before);
  sample->files = stores->file_counters() - files_before;
  sample->docs = stores->doc_counters() - docs_before;
  return result;
}

}  // namespace

Result<WorkloadKind> ParseWorkload(std::string_view name) {
  for (WorkloadKind kind : {WorkloadKind::kBaSnapshot, WorkloadKind::kPuaChain,
                            WorkloadKind::kMpaReplay}) {
    if (WorkloadName(kind) == name) {
      return kind;
    }
  }
  return Status::InvalidArgument("unknown workload " + std::string(name));
}

std::string_view WorkloadName(WorkloadKind kind) {
  switch (kind) {
    case WorkloadKind::kBaSnapshot:
      return "ba_snapshot";
    case WorkloadKind::kPuaChain:
      return "pua_chain";
    case WorkloadKind::kMpaReplay:
      return "mpa_replay";
  }
  return "unknown";
}

Stores::Stores(mmlib::util::ThreadPool* pool, bool traced) {
  backends_ = remote_.backends;
  backends_.pool = pool;
  if (traced) {
    tracer_ = std::make_unique<Tracer>(&remote_.network);
    docs_traced_ =
        std::make_unique<TracedDocumentStore>(&remote_.docs, tracer_.get());
    files_traced_ =
        std::make_unique<TracedFileStore>(&remote_.files, tracer_.get());
    backends_.docs = docs_traced_.get();
    backends_.files = files_traced_.get();
  }
  local_.docs = &remote_.docs_raw;
  local_.files = &remote_.files_raw;
}

StoreCounters Stores::file_counters() const {
  return files_traced_ != nullptr ? files_traced_->counters()
                                  : StoreCounters{};
}

StoreCounters Stores::doc_counters() const {
  return docs_traced_ != nullptr ? docs_traced_->counters() : StoreCounters{};
}

std::vector<int64_t> Iteration::Deterministic() const {
  return {static_cast<int64_t>(save.virtual_ns),
          static_cast<int64_t>(save.net_bytes),
          save.stored_bytes,
          static_cast<int64_t>(raw_param_bytes),
          static_cast<int64_t>(recover.virtual_ns),
          static_cast<int64_t>(recover.net_bytes)};
}

std::vector<int64_t> Iteration::StoreWork() const {
  std::vector<int64_t> out;
  for (const StoreCounters* c :
       {&save.files, &save.docs, &recover.files, &recover.docs}) {
    out.push_back(static_cast<int64_t>(c->calls));
    out.push_back(static_cast<int64_t>(c->bytes_written));
    out.push_back(static_cast<int64_t>(c->bytes_read));
  }
  return out;
}

size_t Workload::ChainDepth(WorkloadKind kind) {
  switch (kind) {
    case WorkloadKind::kBaSnapshot:
      return 0;
    case WorkloadKind::kPuaChain:
      return 4;
    case WorkloadKind::kMpaReplay:
      return 2;
  }
  return 0;
}

Workload::Workload(WorkloadKind kind, uint64_t seed,
                   mmlib::util::ThreadPool* pool, Stores* stores)
    : kind_(kind),
      seed_(seed),
      pool_(pool),
      stores_(stores),
      recoverer_(stores->backends()),
      local_catalog_(stores->local()) {}

Result<std::unique_ptr<Workload>> Workload::Create(
    WorkloadKind kind, uint64_t seed, mmlib::util::ThreadPool* pool,
    Stores* stores) {
  std::unique_ptr<Workload> workload(new Workload(kind, seed, pool, stores));
  MMLIB_RETURN_IF_ERROR(workload->Build());
  return workload;
}

Result<nn::Model> Workload::NewModel() const {
  MMLIB_ASSIGN_OR_RETURN(nn::Model model, models::BuildModel(config_));
  if (kind_ == WorkloadKind::kPuaChain) {
    models::ApplyPartialUpdateFreeze(&model);
  } else {
    model.SetTrainableAll(true);
  }
  return model;
}

Result<nn::Model> Workload::CopyModel(const nn::Model& source) const {
  MMLIB_ASSIGN_OR_RETURN(nn::Model copy, NewModel());
  MMLIB_RETURN_IF_ERROR(copy.LoadParams(source.SerializeParams()));
  return copy;
}

core::TrainConfig Workload::TrainConfigFor(uint64_t train_seed) const {
  // The paper's reduced schedule (two epochs of two batches, Section 4.4)
  // with the flows' momentum-free SGD, so no optimizer state file is saved.
  // At the flows' learning rate of 0.01, about 5% of seeds diverge to
  // non-finite logits within the four steps on batches of 4; 0.001 trains
  // every seed tried, and the step costs the same.
  core::TrainConfig train;
  train.epochs = 2;
  train.max_batches_per_epoch = 2;
  train.sgd.momentum = 0.0f;
  train.sgd.learning_rate = 0.001f;
  train.loader.batch_size = 4;
  train.loader.image_size = config_.image_size;
  train.loader.num_classes = config_.num_classes;
  train.seed = train_seed;
  train.loader.seed = train_seed;
  return train;
}

Result<core::ProvenanceData> Workload::Train(nn::Model* model,
                                             uint64_t train_seed) const {
  core::ImageTrainService service(dataset_.get(), TrainConfigFor(train_seed));
  service.set_thread_pool(pool_);
  MMLIB_ASSIGN_OR_RETURN(core::ProvenanceData provenance,
                         service.CaptureProvenance());
  MMLIB_RETURN_IF_ERROR(service
                            .Train(model, /*deterministic=*/true,
                                   /*scheduler_seed=*/0)
                            .status());
  return provenance;
}

Status Workload::Update(nn::Model* model, uint64_t update_seed,
                        core::ProvenanceData* provenance) const {
  if (kind_ == WorkloadKind::kMpaReplay) {
    // Seeds of one width keep the provenance documents one size.
    MMLIB_ASSIGN_OR_RETURN(*provenance,
                           Train(model, 1000000 + update_seed % 9000000));
  } else {
    Perturb(model, update_seed);
  }
  return Status::OK();
}

Result<std::string> Workload::Save(nn::Model* model,
                                   const std::string& base_id,
                                   const core::ProvenanceData* provenance) {
  core::SaveRequest request;
  request.model = model;
  request.code = code_;
  request.environment = &environment_;
  request.base_model_id = base_id;
  request.provenance = provenance;
  MMLIB_ASSIGN_OR_RETURN(core::SaveResult saved, service_->SaveModel(request));
  return saved.model_id;
}

Status Workload::Build() {
  // The seed draws the model variant (classifier width) and every
  // perturbation or training seed; the architecture and scale are fixed.
  // TrainScaleModel of the figures that retrain (channel divisor 8, 28 px):
  // ResNet-152 is 3.9 MB there, still larger than a 2 MiB L2, and small
  // enough for 100 timed iterations per run.
  config_ = mmlib::bench::TrainScaleModel(
      kind_ == WorkloadKind::kMpaReplay ? models::Architecture::kMobileNetV2
                                        : models::Architecture::kResNet152);
  config_.num_classes = 124 + static_cast<int64_t>(seed_ % 3);
  config_.init_seed = Mix(seed_, 1);

  const core::StorageBackends& backends = stores_->backends();
  switch (kind_) {
    case WorkloadKind::kBaSnapshot:
      service_ = std::make_unique<core::BaselineSaveService>(backends);
      break;
    case WorkloadKind::kPuaChain:
      service_ = std::make_unique<core::ParamUpdateSaveService>(backends);
      break;
    case WorkloadKind::kMpaReplay: {
      service_ = std::make_unique<core::ProvenanceSaveService>(backends);
      // CO-512 at the byte divisor Fig 11 uses, resident like a file on
      // disk.
      mmlib::data::SyntheticImageDataset source(
          mmlib::data::PaperDatasetId::kCocoOutdoor512, 512);
      dataset_ = mmlib::data::Materialize(source);
      train_ = TrainConfigFor(1000000);
      break;
    }
  }
  environment_ = mmlib::env::CollectEnvironment();
  code_ = core::CodeDescriptorFor(config_);

  // The chain every timed save derives from: an initial snapshot and
  // ChainDepth - 1 derived versions, so each timed recovery walks exactly
  // ChainDepth links. BA has no chain.
  MMLIB_ASSIGN_OR_RETURN(nn::Model tip, NewModel());
  const size_t depth = ChainDepth(kind_);
  if (depth > 0) {
    MMLIB_ASSIGN_OR_RETURN(base_id_, Save(&tip, "", nullptr));
    for (size_t d = 1; d < depth; ++d) {
      core::ProvenanceData provenance;
      MMLIB_RETURN_IF_ERROR(Update(&tip, Mix(seed_, 100 + d), &provenance));
      MMLIB_ASSIGN_OR_RETURN(base_id_, Save(&tip, base_id_, &provenance));
    }
  }
  for (size_t v = 0; v < kVersions; ++v) {
    Version version;
    MMLIB_ASSIGN_OR_RETURN(version.model, CopyModel(tip));
    MMLIB_RETURN_IF_ERROR(Update(&version.model, Mix(seed_, 1000 + v),
                                 &version.provenance));
    version.expected_hash = version.model.ParamsHash();
    versions_.push_back(std::move(version));
  }
  return Status::OK();
}

Iteration Workload::Run(size_t index) {
  Iteration it;
  Version& version = versions_[index % versions_.size()];
  it.raw_param_bytes = version.model.ParamByteSize();

  ++it.attempted;
  Result<std::string> saved =
      Measure(stores_, "core.save", &it.save, [&] {
        return Save(&version.model, base_id_,
                    kind_ == WorkloadKind::kMpaReplay ? &version.provenance
                                                      : nullptr);
      });
  if (!saved.ok()) {
    ++it.failed;
    it.error = "save: " + saved.status().ToString();
    return it;
  }
  const std::string& id = saved.value();

  ++it.attempted;
  core::RecoverOptions options;
  options.verify_checksum = true;
  options.check_environment = true;
  Result<core::RecoveredModel> recovered =
      Measure(stores_, "core.recover", &it.recover,
              [&] { return recoverer_.Recover(id, options); });
  if (!recovered.ok()) {
    ++it.failed;
    it.error = "recover: " + recovered.status().ToString();
  } else if (!recovered.value().checksum_verified ||
             !recovered.value().environment_matches) {
    ++it.failed;
    it.error = "recover: checksum or environment not verified";
  } else if (recovered.value().model.ParamsHash() != version.expected_hash) {
    ++it.failed;
    it.error = "recover: recovered parameters differ from the saved version";
  }

  // Clean-up goes to the stores directly: it is not part of the workload
  // and must not move the virtual clock.
  ScopedSpan cleanup(stores_->tracer(), "bench.delete");
  Status deleted = local_catalog_.DeleteModel(id);
  if (!deleted.ok() && it.error.empty()) {
    it.error = "delete: " + deleted.ToString();
  }
  return it;
}

}  // namespace perfbench
