#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "simnet/network.h"
#include "simnet/retry.h"
#include "util/result.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace mmlib::collective {

/// A worker that runs `slow_factor` times slower than its peers during
/// steps [from_step, to_step] of update `update` (all step coordinates are
/// 1-based within an update; updates are numbered by RingSession::
/// BeginUpdate). While the extra time stays inside the session's bounded
/// wait the cohort absorbs it; past the bound the straggler is excluded
/// from the affected steps and rejoins (with a parameter re-sync) when the
/// window ends.
struct StragglerWindow {
  size_t worker = 0;
  double slow_factor = 4.0;
  int64_t update = 0;
  int64_t from_step = 1;
  int64_t to_step = 1;
};

/// Permanent worker loss: from step `at_step` of update `update` on, the
/// worker never participates again. The surviving cohort continues with
/// deterministically rescaled gradient weights (mean over the alive set).
struct WorkerLossEvent {
  size_t worker = 0;
  int64_t update = 0;
  int64_t at_step = 1;
};

/// Network partition: during steps [from_step, to_step] of update `update`
/// the `minority` workers are cut off from the coordinator's side. While
/// the cut-off side holds a strict majority the session stalls until the
/// partition heals; otherwise the majority continues degraded and the
/// minority rejoins (with parameter re-syncs) at the heal.
struct PartitionWindow {
  std::vector<size_t> minority;
  int64_t update = 0;
  int64_t from_step = 1;
  int64_t to_step = 1;
};

/// Fault schedule of a ring-all-reduce session. Everything is keyed by
/// (update, step) coordinates — never by the virtual clock — so a
/// crash-recovery replay of the same steps sees the exact same membership
/// decisions and the flow lands bit-identical to the crash-free run.
struct RingOptions {
  std::vector<StragglerWindow> stragglers;
  std::vector<WorkerLossEvent> losses;
  std::vector<PartitionWindow> partitions;
};

/// Per-worker robustness counters of one session.
struct RingWorkerCounters {
  /// Ring messages this worker sent (including retransmitted slices).
  uint64_t messages = 0;
  /// Steps this worker sat out (straggler exclusion, partition, loss).
  uint64_t excluded_steps = 0;
  /// Parameter re-syncs charged when the worker rejoined the ring.
  uint64_t rejoin_syncs = 0;

  bool operator==(const RingWorkerCounters& other) const {
    return messages == other.messages &&
           excluded_steps == other.excluded_steps &&
           rejoin_syncs == other.rejoin_syncs;
  }
};

/// Session-wide totals, filled as AllReduce steps run.
struct SessionReport {
  /// AllReduce steps committed.
  uint64_t steps = 0;
  /// Steps committed by a cohort smaller than the configured worker set.
  uint64_t degraded_steps = 0;
  /// Steps that had to wait out a partition before they could commit.
  uint64_t stalled_steps = 0;
  /// Collective messages retried by the session's Retrier.
  uint64_t retries = 0;
  /// Peers removed mid-step after their messages exhausted the retrier.
  uint64_t peers_removed = 0;
  std::vector<RingWorkerCounters> workers;
};

/// Deterministic ring all-reduce over simnet worker nodes.
///
/// The session simulates the messaging of a chunked ring all-reduce —
/// 2*(C-1) rounds over a cohort of C workers, each round moving one slice
/// of ceil(N/C) elements per worker to its right neighbour — with the
/// house fault machinery: every message is a TryTransferBetweenWorkers
/// drawn from the dedicated collective fault stream, retried under the
/// session's Retrier, and every send/reduce/commit passes a crash point
/// ("collective.send", "collective.reduce", "collective.commit").
///
/// The *arithmetic* is decoupled from the message schedule: gradients are
/// reduced in a fixed balanced binary tree over cohort ranks and scaled by
/// 1/C at the end (CommitStep). The tree is a pure function of the cohort,
/// so the result is bit-identical for any pool size and ring topology —
/// and for a full cohort of bit-identical replicas the mean
/// reproduces the single-worker gradient exactly (the tree sum of 2^k
/// equal values is an exponent shift, and 1/C for C in {1,2,4,8} is a
/// power of two). Degraded cohorts (3 survivors of 4) are deterministic
/// per seed but legitimately differ from the clean run.
class RingSession {
 public:
  /// Elements per ring message; a reduce-scatter slice larger than this is
  /// sent in several messages. Also the ParallelFor grain of the reduction;
  /// results are bit-identical for any pool size.
  static constexpr int64_t kChunkElements = 4096;
  /// Bounded wait for a slow peer: a cohort member whose extra compute time
  /// exceeds it is excluded from the step instead of waited for (the
  /// survivors are charged the bound they waited).
  static constexpr double kStragglerWaitSeconds = 1.0;

  /// Declares `workers` ring workers on `network`
  /// (Configure(Space::kWorker, workers)). `step_compute_seconds` is the
  /// virtual compute of one optimizer step over the full batch: each of K
  /// workers shards 1/K of the batch, so its per-step share is
  /// step_compute_seconds / K, and the cohort is charged its slowest
  /// member. The network must outlive the session.
  RingSession(size_t workers, double step_compute_seconds, RingOptions options,
              simnet::Network* network);

  size_t worker_count() const { return workers_; }

  /// Starts (or re-enters) update `update_index`: step coordinates passed
  /// to AllReduce are interpreted within this update. Re-entering the same
  /// index after a crash recovery replays membership identically.
  void BeginUpdate(int64_t update_index);

  /// Arms a one-shot simulated kill of `worker`: crash site `site` (one of
  /// "collective.send", "collective.reduce", "collective.commit") fires at
  /// the worker's first participation in that site during step `at_step`
  /// of update `update`. The CrashException unwinds out of AllReduce; the
  /// caller restarts the worker, calls RejoinWorker, and resumes training
  /// from its checkpoint.
  void ArmWorkerCrash(std::string site, int64_t update, int64_t at_step,
                      size_t worker);

  /// Reduces the cohort's gradients to their rescaled mean: `inputs` holds
  /// one gradient vector per configured worker (excluded workers' entries
  /// are ignored; flows pass the same replica buffer for every worker) and
  /// `out` receives the mean over the alive cohort. `out` may alias an
  /// input. `step` is 1-based within the current update.
  Status AllReduce(int64_t step,
                   const std::vector<const std::vector<float>*>& inputs,
                   std::vector<float>* out);

  /// Marks `worker` freshly restarted and re-synced: charges one parameter
  /// snapshot of `param_bytes` over the ring link and clears the worker's
  /// exclusion so it participates in the next step at full weight.
  Status RejoinWorker(size_t worker, uint64_t param_bytes);

  const SessionReport& report() const { return report_; }

  /// Thread pool of the reduction; the process-wide pool when unset.
  void set_thread_pool(util::ThreadPool* pool) { pool_ = pool; }

 private:
  /// Membership of `step`: the sorted alive cohort after loss events,
  /// partitions, and straggler exclusions keyed by (update_, step).
  std::vector<size_t> CohortForStep(int64_t step, double* wait_seconds);

  /// One ring message plus its crash point; Unavailable/DeadlineExceeded
  /// after retries means the peer is gone and the step must continue
  /// without it.
  Status SendChunk(size_t from, size_t to, uint64_t bytes);
  /// The receiver folds an arrived slice into its accumulator (crash
  /// surface only; the numeric fold is CommitStep's).
  void ReduceChunk(size_t at);
  /// Step barrier: every cohort member installs the reduced gradient; then
  /// the balanced-tree fold and 1/C rescale produce `out`.
  Status CommitStep(const std::vector<size_t>& cohort,
                    const std::vector<const std::vector<float>*>& inputs,
                    std::vector<float>* out);

  /// Simulates the 2*(C-1) ring rounds over `cohort`; removes peers whose
  /// messages exhaust the retrier and restarts with the reduced cohort.
  Status RunRing(std::vector<size_t>* cohort, int64_t elements, int64_t step);

  void ChargeRejoinSync(size_t worker, uint64_t param_bytes);

  size_t workers_;
  double step_compute_seconds_;
  RingOptions options_;
  simnet::Network* network_;
  simnet::Retrier retrier_;
  util::ThreadPool* pool_ = nullptr;
  int64_t update_ = 0;

  struct PendingCrash {
    bool armed = false;
    std::string site;
    int64_t update = 0;
    int64_t at_step = 0;
    size_t worker = 0;
  };
  PendingCrash pending_crash_;

  std::vector<bool> loss_applied_;      // worker Crash issued for this loss
  std::vector<bool> partition_spent_;   // window consumed by a stall-heal
  std::vector<bool> needs_rejoin_;      // missed the previous commit
  std::vector<size_t> current_minority_;  // workers partitioned right now
  SessionReport report_;
};

}  // namespace mmlib::collective
