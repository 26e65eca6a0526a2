#include "core/train_service.h"

#include "nn/loss.h"
#include "util/clock.h"
#include "util/crash_point.h"

namespace mmlib::core {

namespace {

json::Value SgdOptionsToJson(const nn::SgdOptions& options) {
  json::Value doc = json::Value::MakeObject();
  doc.Set("learning_rate", static_cast<double>(options.learning_rate));
  doc.Set("momentum", static_cast<double>(options.momentum));
  doc.Set("weight_decay", static_cast<double>(options.weight_decay));
  return doc;
}

Result<nn::SgdOptions> SgdOptionsFromJson(const json::Value& doc) {
  nn::SgdOptions options;
  MMLIB_ASSIGN_OR_RETURN(double lr, doc.GetNumber("learning_rate"));
  MMLIB_ASSIGN_OR_RETURN(double momentum, doc.GetNumber("momentum"));
  MMLIB_ASSIGN_OR_RETURN(double wd, doc.GetNumber("weight_decay"));
  options.learning_rate = static_cast<float>(lr);
  options.momentum = static_cast<float>(momentum);
  options.weight_decay = static_cast<float>(wd);
  return options;
}

json::Value LoaderOptionsToJson(const data::DataLoaderOptions& options) {
  json::Value doc = json::Value::MakeObject();
  doc.Set("batch_size", options.batch_size);
  doc.Set("image_size", options.image_size);
  doc.Set("num_classes", options.num_classes);
  doc.Set("shuffle", options.shuffle);
  doc.Set("augment", options.augment);
  doc.Set("seed", static_cast<int64_t>(options.seed));
  doc.Set("preprocess", options.preprocess.ToJson());
  return doc;
}

Result<data::DataLoaderOptions> LoaderOptionsFromJson(
    const json::Value& doc) {
  data::DataLoaderOptions options;
  MMLIB_ASSIGN_OR_RETURN(options.batch_size, doc.GetInt("batch_size"));
  MMLIB_ASSIGN_OR_RETURN(options.image_size, doc.GetInt("image_size"));
  MMLIB_ASSIGN_OR_RETURN(options.num_classes, doc.GetInt("num_classes"));
  MMLIB_ASSIGN_OR_RETURN(options.shuffle, doc.GetBool("shuffle"));
  MMLIB_ASSIGN_OR_RETURN(options.augment, doc.GetBool("augment"));
  MMLIB_ASSIGN_OR_RETURN(int64_t seed, doc.GetInt("seed"));
  options.seed = static_cast<uint64_t>(seed);
  MMLIB_ASSIGN_OR_RETURN(const json::Value* preprocess,
                         doc.GetMember("preprocess"));
  MMLIB_ASSIGN_OR_RETURN(options.preprocess,
                         data::PreprocessorConfig::FromJson(*preprocess));
  return options;
}

}  // namespace

json::Value TrainConfig::ToJson() const {
  json::Value doc = json::Value::MakeObject();
  doc.Set("epochs", epochs);
  doc.Set("max_batches_per_epoch", max_batches_per_epoch);
  doc.Set("seed", static_cast<int64_t>(seed));
  doc.Set("sgd", SgdOptionsToJson(sgd));
  doc.Set("lr_decay_gamma", lr_decay_gamma);
  doc.Set("lr_decay_every_epochs", lr_decay_every_epochs);
  doc.Set("loader", LoaderOptionsToJson(loader));
  return doc;
}

Result<TrainConfig> TrainConfig::FromJson(const json::Value& doc) {
  TrainConfig config;
  MMLIB_ASSIGN_OR_RETURN(config.epochs, doc.GetInt("epochs"));
  MMLIB_ASSIGN_OR_RETURN(config.max_batches_per_epoch,
                         doc.GetInt("max_batches_per_epoch"));
  MMLIB_ASSIGN_OR_RETURN(int64_t seed, doc.GetInt("seed"));
  config.seed = static_cast<uint64_t>(seed);
  MMLIB_ASSIGN_OR_RETURN(const json::Value* sgd, doc.GetMember("sgd"));
  MMLIB_ASSIGN_OR_RETURN(config.sgd, SgdOptionsFromJson(*sgd));
  MMLIB_ASSIGN_OR_RETURN(config.lr_decay_gamma,
                         doc.GetNumber("lr_decay_gamma"));
  MMLIB_ASSIGN_OR_RETURN(config.lr_decay_every_epochs,
                         doc.GetInt("lr_decay_every_epochs"));
  MMLIB_ASSIGN_OR_RETURN(const json::Value* loader, doc.GetMember("loader"));
  MMLIB_ASSIGN_OR_RETURN(config.loader, LoaderOptionsFromJson(*loader));
  return config;
}

ImageTrainService::ImageTrainService(const data::Dataset* dataset,
                                     TrainConfig config)
    : dataset_(dataset), config_(config) {}

Result<std::unique_ptr<ImageTrainService>> ImageTrainService::FromProvenance(
    const json::Value& train_service_doc, Bytes optimizer_state,
    std::unique_ptr<data::Dataset> dataset) {
  MMLIB_ASSIGN_OR_RETURN(const json::Value* config_doc,
                         train_service_doc.GetMember("config"));
  MMLIB_ASSIGN_OR_RETURN(TrainConfig config,
                         TrainConfig::FromJson(*config_doc));
  auto service =
      std::make_unique<ImageTrainService>(dataset.get(), config);
  service->owned_dataset_ = std::move(dataset);
  service->pending_optimizer_state_ = std::move(optimizer_state);
  return service;
}

Result<nn::PhaseTimes> ImageTrainService::Train(nn::Model* model,
                                                bool deterministic,
                                                uint64_t scheduler_seed) {
  return RunTraining(model, deterministic, scheduler_seed, nullptr);
}

Result<nn::PhaseTimes> ImageTrainService::Resume(nn::Model* model) {
  if (checkpoints_ == nullptr) {
    return Status::FailedPrecondition(
        "Resume requires set_checkpoints to have been called");
  }
  TrainCheckpoint checkpoint;
  MMLIB_ASSIGN_OR_RETURN(bool found,
                         checkpoints_->LoadLatest(checkpoint_run_id_,
                                                  &checkpoint));
  if (!found) {
    resumed_from_step_ = 0;
    return RunTraining(model, /*deterministic=*/true, /*scheduler_seed=*/0,
                       nullptr);
  }
  resumed_from_step_ = checkpoint.step;
  return RunTraining(model, /*deterministic=*/true, /*scheduler_seed=*/0,
                     &checkpoint);
}

Status ImageTrainService::WriteCheckpoint(nn::Model* model, const Rng& rng,
                                          int64_t step, int64_t epoch,
                                          int64_t next_batch) {
  TrainCheckpoint checkpoint;
  checkpoint.run_id = checkpoint_run_id_;
  checkpoint.step = step;
  checkpoint.epoch = epoch;
  checkpoint.next_batch = next_batch;
  checkpoint.model_params = model->SerializeParams();
  checkpoint.optimizer_state = optimizer_->SerializeState();
  checkpoint.rng = rng.SaveState();
  checkpoint.last_loss = last_loss_;
  return checkpoints_->Write(checkpoint).status();
}

Result<nn::PhaseTimes> ImageTrainService::RunTraining(
    nn::Model* model, bool deterministic, uint64_t scheduler_seed,
    const TrainCheckpoint* resume_from) {
  if (resume_from != nullptr) {
    // Rewind to the checkpointed state: parameters first, then force the
    // optimizer to rebuild against them and load the checkpointed
    // momentum (which carries the scheduled learning rate).
    MMLIB_RETURN_IF_ERROR(model->LoadParams(resume_from->model_params));
    pending_optimizer_state_ = resume_from->optimizer_state;
    optimizer_.reset();
    bound_model_ = nullptr;
    last_loss_ = resume_from->last_loss;
  }
  if (!optimizer_.has_value() || bound_model_ != model) {
    optimizer_.emplace(model, config_.sgd);
    bound_model_ = model;
    if (!pending_optimizer_state_.empty()) {
      MMLIB_RETURN_IF_ERROR(
          optimizer_->LoadState(pending_optimizer_state_));
      pending_optimizer_state_.clear();
    }
  }

  nn::ExecutionContext ctx =
      deterministic
          ? nn::ExecutionContext::Deterministic(config_.seed)
          : nn::ExecutionContext::NonDeterministic(config_.seed,
                                                   scheduler_seed);
  ctx.set_training(true);
  if (pool_ != nullptr) {
    ctx.set_pool(pool_);
  }
  if (resume_from != nullptr) {
    // Continue the intentional-randomness stream exactly where the
    // checkpoint left it — dropout masks of the remaining steps come out
    // bit-identical to the uninterrupted run's.
    ctx.rng()->RestoreState(resume_from->rng);
  }

  // Checkpointing applies only to deterministic runs: a non-deterministic
  // run cannot be continued bit-identically, so a checkpoint of it would
  // promise recovery it cannot deliver.
  const bool checkpointing = checkpoints_ != nullptr && deterministic;
  const int64_t checkpoint_interval =
      checkpointing ? checkpoints_->every_steps() : 0;
  int64_t step = resume_from != nullptr ? resume_from->step : 0;
  const int64_t start_epoch = resume_from != nullptr ? resume_from->epoch : 0;
  const int64_t start_batch =
      resume_from != nullptr ? resume_from->next_batch : 0;

  data::DataLoader loader(dataset_, config_.loader);
  // Step-scoped temporaries reused across the whole run: the batch (filled
  // in place), gradient storage in `loss`, exp cache from the context's
  // scratch pool.
  data::Batch batch;
  nn::LossResult loss;
  if (checkpointing && resume_from == nullptr) {
    // Step-0 checkpoint: even a crash before the first periodic
    // checkpoint loses no more than the in-flight steps.
    MMLIB_RETURN_IF_ERROR(WriteCheckpoint(model, *ctx.rng(), 0, 0, 0));
  }
  for (int64_t epoch = start_epoch; epoch < config_.epochs; ++epoch) {
    size_t batches = loader.BatchesPerEpoch();
    if (config_.max_batches_per_epoch >= 0) {
      batches = std::min(
          batches, static_cast<size_t>(config_.max_batches_per_epoch));
    }
    const size_t first_batch =
        epoch == start_epoch ? static_cast<size_t>(start_batch) : 0;
    loader.StartEpoch(static_cast<uint64_t>(epoch));
    for (size_t b = first_batch; b < batches; ++b) {
      // At the top of the step: an armed crash at hit N kills the run
      // with exactly N-1 completed optimizer steps.
      MMLIB_CRASH_POINT("train.step");
      Stopwatch load_timer;
      MMLIB_RETURN_IF_ERROR(loader.FillBatch(b, &batch));
      ctx.times()->data_load_seconds += load_timer.ElapsedSeconds();

      optimizer_->ZeroGrad();
      Stopwatch forward_timer;
      MMLIB_ASSIGN_OR_RETURN(Tensor logits, model->Forward(batch.images,
                                                           &ctx));
      MMLIB_RETURN_IF_ERROR(nn::SoftmaxCrossEntropyInto(
          logits, batch.labels, ctx.scratch_pool(), &loss));
      ctx.times()->forward_seconds += forward_timer.ElapsedSeconds();
      last_loss_ = loss.loss;

      Stopwatch backward_timer;
      MMLIB_RETURN_IF_ERROR(
          model->Backward(loss.grad_logits, &ctx).status());
      if (step_sync_hook_) {
        // Gradients are final, the optimizer has not applied them: the
        // data-parallel barrier reduces here so every worker steps on the
        // same mean gradient.
        MMLIB_RETURN_IF_ERROR(step_sync_hook_(model, step + 1));
      }
      optimizer_->Step();
      ctx.times()->backward_seconds += backward_timer.ElapsedSeconds();
      ++step;
      if (checkpointing && step_compute_seconds_ > 0.0) {
        checkpoints_->ChargeCompute(step_compute_seconds_);
      }
      if (checkpoint_interval > 0 && step % checkpoint_interval == 0) {
        // Checkpoints land at exactly the K-multiples, whether or not
        // the run was resumed mid-stream — so the number and order of
        // persisted artifacts (and thus allocated storage ids) is
        // invariant under crash + resume.
        MMLIB_RETURN_IF_ERROR(WriteCheckpoint(model, *ctx.rng(), step,
                                              epoch,
                                              static_cast<int64_t>(b) + 1));
      }
    }
    // Step learning-rate schedule (part of the training logic; replayed
    // deterministically on provenance recovery).
    if (config_.lr_decay_gamma != 1.0 && config_.lr_decay_every_epochs > 0 &&
        (epoch + 1) % config_.lr_decay_every_epochs == 0) {
      optimizer_->SetLearningRate(
          optimizer_->learning_rate() *
          static_cast<float>(config_.lr_decay_gamma));
    }
  }
  return *ctx.times();
}

Result<ProvenanceData> ImageTrainService::CaptureProvenance() {
  ProvenanceData data;
  data.dataset = dataset_;
  if (optimizer_.has_value()) {
    data.optimizer_state = optimizer_->SerializeState();
  }

  // Wrapper objects (paper Figure 5): the stateless dataloader wrapper
  // records class name, import, and constructor configuration; the stateful
  // optimizer wrapper additionally references a state file.
  json::Value dataloader_wrapper = json::Value::MakeObject();
  dataloader_wrapper.Set("class_name", "data.DataLoader");
  dataloader_wrapper.Set("import", "data/dataloader.h");
  dataloader_wrapper.Set("config", LoaderOptionsToJson(config_.loader));

  json::Value optimizer_wrapper = json::Value::MakeObject();
  optimizer_wrapper.Set("class_name", "nn.SgdOptimizer");
  optimizer_wrapper.Set("import", "nn/optimizer.h");
  optimizer_wrapper.Set("config", SgdOptionsToJson(config_.sgd));
  optimizer_wrapper.Set("has_state", !data.optimizer_state.empty());
  // References to other objects are recorded by name; how they are handed
  // over is part of the training logic (the TrainConfig).
  optimizer_wrapper.Set("references", json::Value::Array{
                                          json::Value("model"),
                                      });

  json::Value wrappers = json::Value::MakeObject();
  wrappers.Set("dataloader", std::move(dataloader_wrapper));
  wrappers.Set("optimizer", std::move(optimizer_wrapper));

  json::Value doc = json::Value::MakeObject();
  doc.Set("class_name", std::string(class_name()));
  doc.Set("import", "core/train_service.h");
  doc.Set("config", config_.ToJson());
  doc.Set("wrappers", std::move(wrappers));
  data.train_service_doc = std::move(doc);
  return data;
}

Result<std::unique_ptr<TrainService>> RestoreTrainService(
    const json::Value& train_service_doc, Bytes optimizer_state,
    std::unique_ptr<data::Dataset> dataset) {
  MMLIB_ASSIGN_OR_RETURN(std::string class_name,
                         train_service_doc.GetString("class_name"));
  if (class_name == "ImageTrainService") {
    MMLIB_ASSIGN_OR_RETURN(
        std::unique_ptr<ImageTrainService> service,
        ImageTrainService::FromProvenance(
            train_service_doc, std::move(optimizer_state),
            std::move(dataset)));
    return std::unique_ptr<TrainService>(std::move(service));
  }
  return Status::NotFound("unknown TrainService class: " + class_name);
}

}  // namespace mmlib::core
