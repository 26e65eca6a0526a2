#include "dist/flow.h"

#include <algorithm>

#include "collective/gradient_sync.h"
#include "core/adaptive.h"
#include "core/baseline.h"
#include "core/model_code.h"
#include "core/param_update.h"
#include "core/provenance.h"
#include "env/environment.h"
#include "util/crash_point.h"

namespace mmlib::dist {

std::string_view ApproachName(ApproachKind kind) {
  switch (kind) {
    case ApproachKind::kBaseline:
      return "BA";
    case ApproachKind::kParamUpdate:
      return "PUA";
    case ApproachKind::kProvenance:
      return "MPA";
    case ApproachKind::kAdaptive:
      return "Adaptive";
  }
  return "unknown";
}

std::string_view RelationName(ModelRelation relation) {
  switch (relation) {
    case ModelRelation::kFullyUpdated:
      return "fully updated";
    case ModelRelation::kPartiallyUpdated:
      return "partially updated";
  }
  return "unknown";
}

std::vector<std::string> FlowResult::Labels() const {
  std::vector<std::string> labels;
  for (const UseCaseRecord& record : records) {
    if (std::find(labels.begin(), labels.end(), record.label) ==
        labels.end()) {
      labels.push_back(record.label);
    }
  }
  return labels;
}

namespace {

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  if (values.size() % 2 == 1) {
    return values[mid];
  }
  return (values[mid - 1] + values[mid]) / 2.0;
}

/// Deterministically perturbs all trainable parameters — the simulated
/// stand-in for a training run (TrainingMode::kSimulated).
void SimulateTrainingUpdate(nn::Model* model, uint64_t seed) {
  Rng rng(seed);
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

}  // namespace

double FlowResult::MedianTts(const std::string& label) const {
  std::vector<double> values;
  for (const UseCaseRecord& record : records) {
    if (record.label == label) {
      values.push_back(record.tts_seconds);
    }
  }
  return Median(std::move(values));
}

double FlowResult::MedianTtr(const std::string& label) const {
  std::vector<double> values;
  for (const UseCaseRecord& record : records) {
    if (record.label == label && record.recovered) {
      values.push_back(record.ttr_seconds);
    }
  }
  return Median(std::move(values));
}

int64_t FlowResult::MedianStorage(const std::string& label) const {
  std::vector<double> values;
  for (const UseCaseRecord& record : records) {
    if (record.label == label) {
      values.push_back(static_cast<double>(record.storage_bytes));
    }
  }
  return static_cast<int64_t>(Median(std::move(values)));
}

int64_t FlowResult::TotalStorage() const {
  int64_t total = 0;
  for (const UseCaseRecord& record : records) {
    total += record.storage_bytes;
  }
  return total;
}

uint64_t FlowResult::TotalCrashes() const {
  uint64_t total = 0;
  for (const NodeCounters& counters : node_counters) {
    total += counters.crashes;
  }
  return total;
}

uint64_t FlowResult::TotalRestarts() const {
  uint64_t total = 0;
  for (const NodeCounters& counters : node_counters) {
    total += counters.restarts;
  }
  return total;
}

uint64_t FlowResult::TotalRetries() const {
  uint64_t total = 0;
  for (const NodeCounters& counters : node_counters) {
    total += counters.retries;
  }
  return total;
}

uint64_t FlowResult::TotalRetrainedSteps() const {
  uint64_t total = 0;
  for (const NodeCounters& counters : node_counters) {
    total += counters.retrained_steps;
  }
  return total;
}

EvaluationFlow::EvaluationFlow(FlowConfig config,
                               core::StorageBackends backends)
    : config_(std::move(config)), backends_(backends) {}

int EvaluationFlow::ExpectedModelCount() const {
  return 2 + config_.num_nodes * 2 * config_.u3_iterations;
}

Result<std::unique_ptr<core::SaveService>> EvaluationFlow::MakeService()
    const {
  // The MPA archives datasets with the identity codec: the paper's image
  // datasets are JPEG-compressed already, so its "compress to a single
  // file" step neither shrinks nor costs much, and identity over our
  // size-scaled datasets models exactly that.
  core::ProvenanceOptions provenance_options;
  provenance_options.dataset_codec = CodecKind::kIdentity;
  switch (config_.approach) {
    case ApproachKind::kBaseline:
      return std::unique_ptr<core::SaveService>(
          new core::BaselineSaveService(backends_));
    case ApproachKind::kParamUpdate:
      return std::unique_ptr<core::SaveService>(
          new core::ParamUpdateSaveService(backends_));
    case ApproachKind::kProvenance:
      return std::unique_ptr<core::SaveService>(
          new core::ProvenanceSaveService(backends_, provenance_options));
    case ApproachKind::kAdaptive:
      return std::unique_ptr<core::SaveService>(
          new core::AdaptiveSaveService(backends_, provenance_options));
  }
  return Status::InvalidArgument("unknown approach");
}

Result<nn::Model> EvaluationFlow::CloneModel(const nn::Model& source) const {
  MMLIB_ASSIGN_OR_RETURN(
      nn::Model copy,
      models::BuildModelWithParams(config_.model, source.SerializeParams()));
  MMLIB_RETURN_IF_ERROR(ApplyRelation(&copy));
  return copy;
}

Status EvaluationFlow::ApplyRelation(nn::Model* model) const {
  if (config_.relation == ModelRelation::kPartiallyUpdated) {
    models::ApplyPartialUpdateFreeze(model);
  } else {
    model->SetTrainableAll(true);
  }
  return Status::OK();
}

Status EvaluationFlow::UpdateModel(nn::Model* model,
                                   core::TrainService* service,
                                   uint64_t update_seed,
                                   core::ProvenanceData* provenance) const {
  if (provenance != nullptr) {
    MMLIB_ASSIGN_OR_RETURN(*provenance, service->CaptureProvenance());
  }
  if (config_.training_mode == TrainingMode::kReal) {
    MMLIB_RETURN_IF_ERROR(service
                              ->Train(model, /*deterministic=*/true,
                                      /*scheduler_seed=*/0)
                              .status());
  } else {
    SimulateTrainingUpdate(model, update_seed);
  }
  return Status::OK();
}

Result<FlowResult> EvaluationFlow::Run() {
  if (config_.approach == ApproachKind::kProvenance &&
      config_.training_mode == TrainingMode::kSimulated &&
      config_.recover_models) {
    return Status::InvalidArgument(
        "provenance recovery with simulated training cannot verify "
        "checksums; disable recovery or use real training");
  }

  if (!config_.crash_schedule.empty()) {
    if (config_.training_mode != TrainingMode::kReal) {
      return Status::InvalidArgument(
          "crash_schedule requires TrainingMode::kReal");
    }
    if (config_.checkpoint_every_steps < 1) {
      return Status::InvalidArgument(
          "crash_schedule requires checkpoint_every_steps >= 1");
    }
    for (const NodeCrashEvent& event : config_.crash_schedule) {
      if (event.node < 0 || event.node >= config_.num_nodes ||
          event.phase < 1 || event.phase > 2 || event.iteration < 1 ||
          event.iteration > config_.u3_iterations || event.at_step < 1) {
        return Status::InvalidArgument("crash event out of range");
      }
      if (event.site != "train.step") {
        if (event.site != "collective.send" &&
            event.site != "collective.reduce" &&
            event.site != "collective.commit") {
          return Status::InvalidArgument("unknown crash site " + event.site);
        }
        if (config_.data_parallel_workers < 1) {
          return Status::InvalidArgument(
              "collective crash sites require data_parallel_workers >= 1");
        }
        if (event.worker < 0 ||
            event.worker >= config_.data_parallel_workers) {
          return Status::InvalidArgument("crash event worker out of range");
        }
      }
    }
  }
  if (config_.data_parallel_workers > 0) {
    if (config_.training_mode != TrainingMode::kReal) {
      return Status::InvalidArgument(
          "data_parallel_workers requires TrainingMode::kReal");
    }
    if (backends_.network == nullptr) {
      return Status::InvalidArgument(
          "data_parallel_workers requires a simnet network");
    }
  }

  MMLIB_ASSIGN_OR_RETURN(std::unique_ptr<core::SaveService> service,
                         MakeService());
  const env::EnvironmentInfo environment = env::CollectEnvironment();
  const json::Value code = core::CodeDescriptorFor(config_.model);

  // Datasets (Table 1). All nodes of an experiment train on the same U3
  // dataset, as in the paper. Materialized up front: per-save archiving
  // then measures byte handling, not procedural generation (the paper's
  // datasets are files on disk).
  data::SyntheticImageDataset u3_source(config_.u3_dataset,
                                        config_.dataset_divisor);
  data::SyntheticImageDataset u2_source(
      data::PaperDatasetId::kMiniImageNetVal, config_.dataset_divisor);
  const std::unique_ptr<data::InMemoryDataset> u3_dataset_owner =
      data::Materialize(u3_source);
  const std::unique_ptr<data::InMemoryDataset> u2_dataset_owner =
      data::Materialize(u2_source);
  const data::Dataset& u3_dataset = *u3_dataset_owner;
  const data::Dataset& u2_dataset = *u2_dataset_owner;

  // Training configuration, aligned with the model configuration.
  core::TrainConfig base_train = config_.train;
  base_train.loader.image_size = config_.model.image_size;
  base_train.loader.num_classes = config_.model.num_classes;

  FlowResult result;
  result.node_counters.assign(static_cast<size_t>(config_.num_nodes),
                              FlowResult::NodeCounters{});
  if (backends_.network != nullptr) {
    backends_.network->Configure(simnet::Space::kNode,
                                 static_cast<size_t>(config_.num_nodes));
    // Per-flow fault accounting: repeated flows over one network must not
    // report each other's drops/timeouts (clock, rng, and plans keep going).
    backends_.network->ResetFaultCounters();
  }
  // Degraded-mode plumbing: present when the flow writes through the
  // replicated stores instead of single remote backends.
  auto* replicated_files =
      dynamic_cast<repl::ReplicatedFileStore*>(backends_.files);
  auto* replicated_docs =
      dynamic_cast<repl::ReplicatedDocumentStore*>(backends_.docs);
  std::unique_ptr<repl::Scrubber> scrubber;
  if (config_.scrub_every_iterations > 0 &&
      (replicated_files != nullptr || replicated_docs != nullptr) &&
      backends_.network != nullptr) {
    scrubber = std::make_unique<repl::Scrubber>(
        replicated_files, replicated_docs, backends_.network);
  }
  // Data-parallel ring: one session spans the whole run, so worker
  // membership (losses are permanent) and robustness counters accumulate
  // across updates. Updates are numbered in execution order; a crash
  // recovery re-enters the interrupted update under the same number, so
  // membership keyed on (update, step) replays identically.
  std::unique_ptr<collective::RingSession> ring_session;
  std::unique_ptr<collective::GradientSynchronizer> gradient_sync;
  if (config_.data_parallel_workers > 0) {
    ring_session = std::make_unique<collective::RingSession>(
        static_cast<size_t>(config_.data_parallel_workers),
        config_.step_compute_seconds, config_.ring, backends_.network);
    gradient_sync =
        std::make_unique<collective::GradientSynchronizer>(ring_session.get());
  }
  int64_t next_update = 0;
  int completed_u3_iterations = 0;
  std::unique_ptr<core::CheckpointManager> checkpoints;
  if (config_.checkpoint_every_steps > 0) {
    checkpoints = std::make_unique<core::CheckpointManager>(
        backends_, config_.checkpoint_every_steps);
  }
  // Retries are attributed to a node by differencing the remote stores'
  // cumulative retry counters around its iteration.
  auto storage_retries = [&]() -> uint64_t {
    uint64_t total = 0;
    if (auto* files =
            dynamic_cast<filestore::RemoteFileStore*>(backends_.files)) {
      total += files->retry_count();
    }
    if (auto* docs =
            dynamic_cast<docstore::RemoteDocumentStore*>(backends_.docs)) {
      total += docs->retry_count();
    }
    if (replicated_files != nullptr) {
      total += replicated_files->TransportRetryCount();
    }
    if (replicated_docs != nullptr) {
      total += replicated_docs->TransportRetryCount();
    }
    return total;
  };

  auto record_save = [&](const std::string& label, int node,
                         const core::SaveResult& save) {
    UseCaseRecord record;
    record.label = label;
    record.node = node;
    record.model_id = save.model_id;
    record.tts_seconds = save.tts_seconds;
    record.storage_bytes = save.storage_bytes;
    result.records.push_back(record);
  };

  // --- U1: develop the initial model on the server and distribute it. ---
  MMLIB_ASSIGN_OR_RETURN(nn::Model server_model,
                         models::BuildModel(config_.model));
  MMLIB_RETURN_IF_ERROR(ApplyRelation(&server_model));

  core::SaveRequest u1_request;
  u1_request.model = &server_model;
  u1_request.code = code;
  u1_request.environment = &environment;
  MMLIB_ASSIGN_OR_RETURN(core::SaveResult u1_save,
                         service->SaveModel(u1_request));
  record_save("U1", /*node=*/-1, u1_save);

  struct NodeState {
    nn::Model model{""};
    std::unique_ptr<core::ImageTrainService> service;
    std::string base_id;
    core::TrainConfig train;
  };
  std::vector<NodeState> nodes(config_.num_nodes);
  for (int n = 0; n < config_.num_nodes; ++n) {
    MMLIB_ASSIGN_OR_RETURN(nodes[n].model, CloneModel(server_model));
    nodes[n].base_id = u1_save.model_id;
  }

  // Shared setup of a freshly built node service (phase start and
  // post-crash rebuild). In data-parallel mode the ring session charges
  // each step's compute share itself (slowest cohort member), so the
  // service-side per-step charge is zeroed to avoid double billing.
  auto configure_node_service = [&](core::ImageTrainService* node_service) {
    node_service->set_step_compute_seconds(
        gradient_sync != nullptr ? 0.0 : config_.step_compute_seconds);
    if (gradient_sync != nullptr) {
      node_service->set_step_sync_hook(
          [sync = gradient_sync.get()](nn::Model* model, int64_t step) {
            return sync->Sync(model, step);
          });
    }
  };

  auto run_phase = [&](int phase) -> Status {
    for (int n = 0; n < config_.num_nodes; ++n) {
      // Fresh train service per node and phase: the deployed model is new,
      // so optimizer state starts empty and then carries across the phase's
      // iterations (exercising the MPA's state files).
      core::TrainConfig node_train = base_train;
      node_train.seed = base_train.seed + 7919ULL * (n + 1) + 101ULL * phase;
      node_train.loader.seed = node_train.seed;
      nodes[n].train = node_train;
      nodes[n].service = std::make_unique<core::ImageTrainService>(
          &u3_dataset, node_train);
      configure_node_service(nodes[n].service.get());
    }
    for (int iter = 1; iter <= config_.u3_iterations; ++iter) {
      for (int n = 0; n < config_.num_nodes; ++n) {
        NodeState& node = nodes[n];
        const uint64_t retries_before = storage_retries();
        const std::string run_id = "ckpt-p" + std::to_string(phase) + "-i" +
                                   std::to_string(iter) + "-n" +
                                   std::to_string(n);
        if (checkpoints != nullptr) {
          node.service->set_checkpoints(checkpoints.get(), run_id);
        }
        const NodeCrashEvent* event = nullptr;
        for (const NodeCrashEvent& candidate : config_.crash_schedule) {
          if (candidate.phase == phase && candidate.iteration == iter &&
              candidate.node == n) {
            event = &candidate;
            break;
          }
        }
        core::ProvenanceData provenance;
        const uint64_t update_seed =
            0xdead0000ULL + phase * 1000003ULL + iter * 7919ULL + n;
        // Update numbering is the serial execution order, so it is
        // identical across runs and worker counts; a crash recovery below
        // re-enters this same index.
        const int64_t update_index = ++next_update;
        if (ring_session != nullptr) {
          ring_session->BeginUpdate(update_index);
        }
        const bool collective_crash =
            event != nullptr && event->site != "train.step";
        bool crashed = false;
        if (event == nullptr) {
          MMLIB_RETURN_IF_ERROR(UpdateModel(&node.model, node.service.get(),
                                            update_seed, &provenance));
        } else {
          if (collective_crash) {
            ring_session->ArmWorkerCrash(event->site, update_index,
                                         event->at_step,
                                         static_cast<size_t>(event->worker));
          } else {
            util::CrashPoint::Arm(event->site,
                                  static_cast<uint64_t>(event->at_step));
          }
          try {
            MMLIB_RETURN_IF_ERROR(UpdateModel(&node.model,
                                              node.service.get(),
                                              update_seed, &provenance));
          } catch (const util::CrashException&) {
            crashed = true;
          }
          if (!crashed) {
            // The update finished before step at_step was reached (short
            // runs); the node survives.
            util::CrashPoint::Disarm();
          }
        }
        if (crashed) {
          util::CrashPoint::ResetAfterCrash();
          FlowResult::NodeCounters& counters = result.node_counters[n];
          ++counters.crashes;
          if (backends_.network != nullptr) {
            if (collective_crash) {
              // A mid-all-reduce kill takes down one ring worker, not the
              // node's storage identity: charge the worker's crash/restart
              // lifecycle on the collective side of the network.
              const size_t worker = static_cast<size_t>(event->worker);
              MMLIB_RETURN_IF_ERROR(
                  backends_.network->Crash(simnet::Space::kWorker, worker));
              MMLIB_RETURN_IF_ERROR(
                  backends_.network->Restart(simnet::Space::kWorker, worker));
            } else {
              MMLIB_RETURN_IF_ERROR(
                  backends_.network->Crash(simnet::Space::kNode, n));
              MMLIB_RETURN_IF_ERROR(
                  backends_.network->Restart(simnet::Space::kNode, n));
            }
          }
          ++counters.restarts;
          // The restarted node lost all in-memory state: recover the last
          // durably saved base model, rebuild the train service from
          // configuration, and continue the interrupted update from its
          // latest checkpoint. The provenance captured before the update
          // still describes it — Resume lands bit-identically on the
          // uninterrupted result.
          core::ModelRecoverer recoverer(backends_);
          MMLIB_ASSIGN_OR_RETURN(
              core::RecoveredModel recovered,
              recoverer.Recover(node.base_id, core::RecoverOptions{}));
          node.model = std::move(recovered.model);
          MMLIB_RETURN_IF_ERROR(ApplyRelation(&node.model));
          node.service = std::make_unique<core::ImageTrainService>(
              &u3_dataset, node.train);
          node.service->set_checkpoints(checkpoints.get(), run_id);
          configure_node_service(node.service.get());
          if (ring_session != nullptr) {
            // Re-enter the interrupted update: membership keyed on
            // (update, step) replays identically, and the restarted worker
            // pulls a parameter snapshot before rejoining the ring at the
            // step barrier.
            ring_session->BeginUpdate(update_index);
            if (collective_crash) {
              MMLIB_RETURN_IF_ERROR(ring_session->RejoinWorker(
                  static_cast<size_t>(event->worker),
                  static_cast<uint64_t>(node.model.ParamByteSize())));
            }
          }
          MMLIB_RETURN_IF_ERROR(node.service->Resume(&node.model).status());
          counters.retrained_steps += static_cast<uint64_t>(
              (event->at_step - 1) - node.service->resumed_from_step());
        }
        core::SaveRequest request;
        request.model = &node.model;
        request.code = code;
        request.environment = &environment;
        request.base_model_id = node.base_id;
        request.provenance = &provenance;
        MMLIB_ASSIGN_OR_RETURN(core::SaveResult save,
                               service->SaveModel(request));
        node.base_id = save.model_id;
        record_save("U3-" + std::to_string(phase) + "-" +
                        std::to_string(iter),
                    n, save);
        if (checkpoints != nullptr) {
          // The durable save supersedes the iteration's checkpoints.
          MMLIB_RETURN_IF_ERROR(checkpoints->DeleteRun(run_id));
        }
        result.node_counters[n].retries += storage_retries() - retries_before;
      }
      ++completed_u3_iterations;
      if (scrubber != nullptr &&
          completed_u3_iterations % config_.scrub_every_iterations == 0) {
        MMLIB_RETURN_IF_ERROR(scrubber->ScrubOnce().status());
      }
    }
    return Status::OK();
  };

  // --- Phase 1: node-local updates (U3-1-*). ---
  MMLIB_RETURN_IF_ERROR(run_phase(1));

  // --- U2: the server improves the initial model and deploys the update.
  core::TrainConfig server_train = base_train;
  server_train.seed = base_train.seed + 424243ULL;
  server_train.loader.seed = server_train.seed;
  core::ImageTrainService server_service(&u2_dataset, server_train);
  core::ProvenanceData u2_provenance;
  MMLIB_RETURN_IF_ERROR(UpdateModel(&server_model, &server_service,
                                    0xbeef0001ULL, &u2_provenance));
  core::SaveRequest u2_request;
  u2_request.model = &server_model;
  u2_request.code = code;
  u2_request.environment = &environment;
  u2_request.base_model_id = u1_save.model_id;
  u2_request.provenance = &u2_provenance;
  MMLIB_ASSIGN_OR_RETURN(core::SaveResult u2_save,
                         service->SaveModel(u2_request));
  record_save("U2", /*node=*/-1, u2_save);

  for (int n = 0; n < config_.num_nodes; ++n) {
    MMLIB_ASSIGN_OR_RETURN(nodes[n].model, CloneModel(server_model));
    nodes[n].base_id = u2_save.model_id;
  }

  // --- Phase 2: node-local updates on the deployed update (U3-2-*). ---
  MMLIB_RETURN_IF_ERROR(run_phase(2));

  // A last anti-entropy pass before recovery, so U4 measures reads over a
  // store that background repair has had a chance to heal.
  if (scrubber != nullptr) {
    MMLIB_RETURN_IF_ERROR(scrubber->ScrubOnce().status());
  }

  // --- U4: recover every saved model and measure TTR. ---
  if (config_.recover_models) {
    core::ModelRecoverer recoverer(backends_);
    for (UseCaseRecord& record : result.records) {
      core::PhaseTimer timer(backends_.network);
      MMLIB_ASSIGN_OR_RETURN(
          core::RecoveredModel recovered,
          recoverer.Recover(record.model_id, core::RecoverOptions{}));
      record.ttr_seconds = timer.ElapsedSeconds();
      record.ttr_breakdown = recovered.breakdown;
      record.recovered = true;
    }
  }

  // --- Degraded-mode report: which replicas the run leaned on, and what
  // the transport injected, attributed per operation label. ---
  auto report_replicas = [&](const auto* store) {
    if (store == nullptr) {
      return;
    }
    if (result.replica_counters.size() < store->replica_count()) {
      result.replica_counters.resize(store->replica_count());
    }
    for (size_t r = 0; r < store->replica_count(); ++r) {
      result.replica_counters[r] += store->replica_counters(r);
    }
  };
  report_replicas(replicated_files);
  report_replicas(replicated_docs);
  if (scrubber != nullptr) {
    result.scrub = scrubber->lifetime();
  }
  if (backends_.network != nullptr) {
    result.op_faults = backends_.network->PerOpFaultCounters();
  }
  if (ring_session != nullptr) {
    result.collective = ring_session->report();
  }

  return result;
}

}  // namespace mmlib::dist
