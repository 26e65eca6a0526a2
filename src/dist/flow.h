#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "collective/ring.h"
#include "core/recover.h"
#include "core/save_service.h"
#include "core/train_service.h"
#include "data/dataset.h"
#include "models/zoo.h"
#include "repl/replicated_store.h"
#include "repl/scrubber.h"
#include "simnet/network.h"

namespace mmlib::dist {

/// Which save/recover approach a flow exercises.
enum class ApproachKind {
  kBaseline,
  kParamUpdate,
  kProvenance,
  kAdaptive,
};

std::string_view ApproachName(ApproachKind kind);

/// The model relations of paper Section 2.1 exercised by the evaluation.
enum class ModelRelation {
  kFullyUpdated,
  kPartiallyUpdated,
};

std::string_view RelationName(ModelRelation relation);

/// How derived models are produced in a flow run.
enum class TrainingMode {
  /// Actually run the TrainService (deterministic); required whenever MPA
  /// models will be recovered.
  kReal,
  /// Deterministically perturb the trainable parameters instead of training
  /// — the flow analogue of the paper's pre-trained snapshots ("we train the
  /// models before the actual experiments and load them from snapshots",
  /// Section 4.1). Storage and TTS are unaffected; only use with recovery
  /// disabled for provenance chains.
  kSimulated,
};

/// One scheduled node failure: kill `node` during its `iteration`-th U3
/// update of `phase`, at the top of optimizer step `at_step` (1-based), so
/// exactly `at_step - 1` steps complete before the kill. The flow then
/// restarts the node, recovers its last durably saved base model, and
/// Resume()s the interrupted update from its latest checkpoint — landing
/// bit-identically on the uninterrupted result.
struct NodeCrashEvent {
  int phase = 1;
  int iteration = 1;
  int node = 0;
  int64_t at_step = 1;
  /// Crash site. "train.step" (the default) kills the node's training loop
  /// at the top of step `at_step`. The collective sites "collective.send",
  /// "collective.reduce", and "collective.commit" instead kill ring worker
  /// `worker` at its first participation in that site during the step's
  /// all-reduce — mid-collective. The flow then restarts the worker,
  /// re-syncs it into the ring (RingSession::RejoinWorker), and Resume()s
  /// the update from its latest checkpoint; the flow result is
  /// bit-identical to the crash-free run. Collective sites require
  /// FlowConfig::data_parallel_workers >= 1.
  std::string site = "train.step";
  /// Ring worker killed by a collective-site event; ignored for
  /// "train.step".
  int worker = 0;
};

/// Configuration of one evaluation flow (paper Sections 4.1 and 4.6).
struct FlowConfig {
  ApproachKind approach = ApproachKind::kBaseline;
  models::ModelConfig model = models::DefaultConfig(
      models::Architecture::kMobileNetV2);
  ModelRelation relation = ModelRelation::kFullyUpdated;

  /// Dataset for the node-local updates (U3): CF-512 or CO-512. The server
  /// update (U2) always trains on mINet-val.
  data::PaperDatasetId u3_dataset = data::PaperDatasetId::kCocoOutdoor512;
  uint64_t dataset_divisor = data::kDefaultDatasetDivisor;

  /// Number of nodes (1 = standard flow; 5/10/20 = DIST flows, Table 3).
  int num_nodes = 1;
  /// U3 iterations per phase (4 = standard flow; 10 = DIST flows).
  int u3_iterations = 4;

  /// Training configuration. Flows default to momentum-free SGD: the
  /// paper's MPA storage numbers are dataset-dominated (">99.9%" for
  /// MobileNetV2, Section 4.2), which implies no model-sized optimizer
  /// state files; momentum (and its state files) is exercised by tests and
  /// the optimizer-state ablation instead.
  core::TrainConfig train = [] {
    core::TrainConfig config;
    config.sgd.momentum = 0.0f;
    return config;
  }();
  TrainingMode training_mode = TrainingMode::kReal;

  /// Measure time-to-recover for every saved model (use case U4), with
  /// checksum and environment verification.
  bool recover_models = true;

  /// Checkpoint node training every this many optimizer steps (0 disables
  /// checkpointing). Checkpoints are pruned as they are superseded and the
  /// run's checkpoints are deleted once its model is durably saved, so the
  /// flow's storage measurements are unaffected.
  int64_t checkpoint_every_steps = 0;
  /// Virtual seconds of training compute per optimizer step, charged to the
  /// simnet clock (0 keeps the legacy pure-I/O clock). With this set, every
  /// checkpoint save adds its transfer time to the compute, and every step
  /// a crash forces training to redo costs clock time — the recovery-cost
  /// axis the checkpoint-interval sweep measures.
  double step_compute_seconds = 0.0;
  /// Scheduled node crashes. Requires TrainingMode::kReal (a simulated
  /// update has no steps to crash in) and checkpoint_every_steps >= 1.
  std::vector<NodeCrashEvent> crash_schedule;

  /// Data-parallel training (src/collective): 0 disables. When >= 1, every
  /// node-local (U3) update runs as a synchronous data-parallel job over
  /// this many ring workers: each worker is charged 1/K of the batch on the
  /// virtual clock and the gradients are synchronized with a deterministic
  /// ring all-reduce before every optimizer step. For power-of-two worker
  /// counts the flow's saved models are bit-identical to the single-worker
  /// run (balanced-tree mean, see collective::RingSession); degraded
  /// cohorts are deterministic per seed. Requires TrainingMode::kReal and a
  /// simnet network on the backends.
  int data_parallel_workers = 0;
  /// Fault schedule (stragglers, permanent losses, worker partitions) of
  /// the data-parallel job; the ring charges the flow's
  /// step_compute_seconds per step. The collective channel's fault plan
  /// lives on the Network (set_collective_fault_plan).
  collective::RingOptions ring;

  /// Run one anti-entropy pass (repl::Scrubber::ScrubOnce) after every this
  /// many U3 iterations, and once more before U4 recovery (0 disables).
  /// Only effective when the flow's backends are replicated stores; replica
  /// crash/partition schedules themselves live on the Network
  /// (Network::Schedule), armed before Run().
  int scrub_every_iterations = 0;
};

/// Per-model measurements collected during a flow run.
struct UseCaseRecord {
  /// "U1", "U2", "U3-1-1" ... "U3-2-<k>".
  std::string label;
  /// Node that produced the model; -1 for server models (U1, U2).
  int node = -1;
  std::string model_id;
  double tts_seconds = 0.0;
  int64_t storage_bytes = 0;
  bool recovered = false;
  double ttr_seconds = 0.0;
  core::RecoverBreakdown ttr_breakdown;
};

/// Result of one flow run.
struct FlowResult {
  std::vector<UseCaseRecord> records;

  /// Robustness counters for one node across the whole run.
  struct NodeCounters {
    /// Storage-request retries attributed to this node's U3 iterations
    /// (only counted when the backends are remote stores with a Retrier).
    uint64_t retries = 0;
    uint64_t crashes = 0;
    uint64_t restarts = 0;
    /// Optimizer steps whose results crashes destroyed and training redid:
    /// for each crash, (completed steps before the kill) minus (the
    /// checkpoint step the node resumed from).
    uint64_t retrained_steps = 0;
  };
  /// Indexed by node; sized num_nodes for every run.
  std::vector<NodeCounters> node_counters;

  /// Degraded-mode accounting when the backends are replicated stores
  /// (empty otherwise). Indexed by replica; file- and document-side
  /// counters for the same replica are summed.
  std::vector<repl::ReplicaCounters> replica_counters;
  /// Anti-entropy totals of the flow's scrubber (all-zero when
  /// scrub_every_iterations == 0 or the backends are not replicated).
  repl::ScrubReport scrub;
  /// Transport faults injected during *this* run, by operation label
  /// ("file.load", "doc.insert", ...). Counters are reset at Run() start,
  /// so repeated flows over one network report per-flow numbers.
  std::map<std::string, simnet::FaultCounters> op_faults;

  /// Ring all-reduce accounting when data_parallel_workers >= 1 (all-zero
  /// otherwise): committed/degraded/stalled steps, collective retries, and
  /// per-worker message/exclusion/rejoin counters, summed over every
  /// data-parallel update of the run.
  collective::SessionReport collective;

  uint64_t TotalCrashes() const;
  uint64_t TotalRestarts() const;
  uint64_t TotalRetries() const;
  uint64_t TotalRetrainedSteps() const;

  /// All distinct labels in execution order.
  std::vector<std::string> Labels() const;
  /// Median TTS across nodes for a label (paper aggregates per-use-case
  /// medians over nodes).
  double MedianTts(const std::string& label) const;
  double MedianTtr(const std::string& label) const;
  /// Storage consumption for a label (constant across nodes; returns the
  /// median for robustness).
  int64_t MedianStorage(const std::string& label) const;
  /// Total bytes across all saved models.
  int64_t TotalStorage() const;
};

/// Executes the evaluation flow: U1 (initial model to all nodes), a phase of
/// U3 iterations, U2 (server-side update), a second phase of U3 iterations,
/// and finally U4 (recover every saved model) when configured.
class EvaluationFlow {
 public:
  EvaluationFlow(FlowConfig config, core::StorageBackends backends);

  Result<FlowResult> Run();

  /// Number of models a run saves: 2 + num_nodes * 2 * u3_iterations
  /// (paper Table 3: 10 / 102 / 202 / 402).
  int ExpectedModelCount() const;

 private:
  Result<std::unique_ptr<core::SaveService>> MakeService() const;
  Result<nn::Model> CloneModel(const nn::Model& source) const;
  Status ApplyRelation(nn::Model* model) const;
  /// Produces the next model version in place (real training or simulated
  /// update); fills `provenance` (captured pre-update) when requested.
  Status UpdateModel(nn::Model* model, core::TrainService* service,
                     uint64_t update_seed,
                     core::ProvenanceData* provenance) const;

  FlowConfig config_;
  core::StorageBackends backends_;
};

}  // namespace mmlib::dist

