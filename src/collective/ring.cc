#include "collective/ring.h"

#include <algorithm>

#include "util/crash_point.h"

namespace mmlib::collective {

namespace {

/// Balanced binary tree fold over vals[lo..hi]: a pure function of the
/// index range, so the reduction order depends only on the cohort — never
/// on ring position, chunking, or thread count. For 2^k equal addends the
/// sum is an exact exponent shift, which is what makes the full-cohort
/// mean reproduce the single-worker gradient bit for bit.
float TreeFold(const float* vals, size_t lo, size_t hi) {
  if (lo == hi) {
    return vals[lo];
  }
  const size_t mid = lo + (hi - lo) / 2;
  return TreeFold(vals, lo, mid) + TreeFold(vals, mid + 1, hi);
}

constexpr size_t kNoWorker = static_cast<size_t>(-1);

}  // namespace

RingSession::RingSession(size_t workers, double step_compute_seconds,
                         RingOptions options, simnet::Network* network)
    : workers_(workers),
      step_compute_seconds_(step_compute_seconds),
      options_(std::move(options)),
      network_(network),
      retrier_(network) {
  network_->Configure(simnet::Space::kWorker, workers_);
  loss_applied_.assign(options_.losses.size(), false);
  partition_spent_.assign(options_.partitions.size(), false);
  needs_rejoin_.assign(workers_, false);
  report_.workers.assign(workers_, RingWorkerCounters{});
}

void RingSession::BeginUpdate(int64_t update_index) {
  update_ = update_index;
}

void RingSession::ArmWorkerCrash(std::string site, int64_t update,
                                 int64_t at_step, size_t worker) {
  pending_crash_.armed = true;
  pending_crash_.site = std::move(site);
  pending_crash_.update = update;
  pending_crash_.at_step = at_step;
  pending_crash_.worker = worker;
}

std::vector<size_t> RingSession::CohortForStep(int64_t step,
                                               double* wait_seconds) {
  *wait_seconds = 0.0;
  // Permanent losses active at (update_, step). The alive predicate is a
  // pure function of the step coordinates, so a crash-recovery replay of
  // this step sees the identical cohort; the network-side worker Crash is
  // guarded to fire once.
  std::vector<bool> lost(workers_, false);
  for (size_t i = 0; i < options_.losses.size(); ++i) {
    const WorkerLossEvent& loss = options_.losses[i];
    const bool active = update_ > loss.update ||
                        (update_ == loss.update && step >= loss.at_step);
    if (!active || loss.worker >= workers_) {
      continue;
    }
    lost[loss.worker] = true;
    if (!loss_applied_[i]) {
      loss_applied_[i] = true;
      if (network_->IsUp(simnet::Space::kWorker, loss.worker)) {
        (void)network_->Crash(simnet::Space::kWorker, loss.worker);
      }
    }
  }

  // Partition windows active at (update_, step); overlapping minorities
  // are merged into one cut-off group.
  auto active_partitions = [&]() {
    std::vector<size_t> active;
    for (size_t i = 0; i < options_.partitions.size(); ++i) {
      const PartitionWindow& window = options_.partitions[i];
      if (!partition_spent_[i] && window.update == update_ &&
          step >= window.from_step && step <= window.to_step) {
        active.push_back(i);
      }
    }
    return active;
  };
  auto apply_partitions = [&](const std::vector<size_t>& active) {
    std::vector<size_t> minority;
    for (size_t i : active) {
      for (size_t worker : options_.partitions[i].minority) {
        if (worker < workers_ &&
            std::find(minority.begin(), minority.end(), worker) ==
                minority.end()) {
          minority.push_back(worker);
        }
      }
    }
    std::sort(minority.begin(), minority.end());
    if (minority != current_minority_) {
      if (minority.empty()) {
        network_->Heal(simnet::Space::kWorker);
      } else {
        (void)network_->Partition(simnet::Space::kWorker, {minority});
      }
      current_minority_ = minority;
    }
  };
  std::vector<size_t> active = active_partitions();
  apply_partitions(active);

  auto reachable_cohort = [&]() {
    std::vector<size_t> cohort;
    for (size_t w = 0; w < workers_; ++w) {
      if (!lost[w] && network_->IsReachable(simnet::Space::kWorker, w)) {
        cohort.push_back(w);
      }
    }
    return cohort;
  };
  std::vector<size_t> cohort = reachable_cohort();

  // Partition stall: when the coordinator's side lacks a strict majority
  // it cannot commit — it waits out the partition (idle time charged for
  // the steps the window still covers), the partition heals, and the full
  // cohort commits this step. The consumed windows never re-partition.
  // Losses are permanent, so a majority lost to crashes (not partitions)
  // continues degraded instead of stalling forever.
  if (!active.empty() && cohort.size() * 2 <= workers_) {
    int64_t heal_step = step;
    for (size_t i : active) {
      heal_step = std::max(heal_step, options_.partitions[i].to_step);
      partition_spent_[i] = true;
    }
    const double share =
        workers_ > 0 ? step_compute_seconds_ / workers_ : 0.0;
    *wait_seconds += static_cast<double>(heal_step - step + 1) * share;
    ++report_.stalled_steps;
    apply_partitions({});
    cohort = reachable_cohort();
  }

  // Straggler windows: a cohort member whose extra compute exceeds the
  // bounded wait is excluded from this step; the survivors are charged the
  // bound they waited before giving up on it.
  const double share =
      workers_ > 0 ? step_compute_seconds_ / workers_ : 0.0;
  double slowest = cohort.empty() ? 0.0 : share;
  bool waited_out = false;
  std::vector<size_t> included;
  for (size_t w : cohort) {
    double factor = 1.0;
    for (const StragglerWindow& window : options_.stragglers) {
      if (window.worker == w && window.update == update_ &&
          step >= window.from_step && step <= window.to_step) {
        factor = std::max(factor, window.slow_factor);
      }
    }
    const double extra = share * (factor - 1.0);
    if (extra > kStragglerWaitSeconds) {
      waited_out = true;
      continue;
    }
    slowest = std::max(slowest, share * factor);
    included.push_back(w);
  }
  *wait_seconds += slowest;
  if (waited_out) {
    *wait_seconds += kStragglerWaitSeconds;
  }
  return included;
}

Status RingSession::SendChunk(size_t from, size_t to, uint64_t bytes) {
  MMLIB_CRASH_POINT("collective.send");
  ++report_.workers[from].messages;
  return retrier_.Run([&]() -> Status {
    return network_->TryTransferBetweenWorkers(from, to, bytes).status;
  });
}

Status RingSession::RunRing(std::vector<size_t>* cohort, int64_t elements) {
  for (;;) {
    const size_t size = cohort->size();
    if (size < 2) {
      return Status::OK();
    }
    const int64_t slice =
        (elements + static_cast<int64_t>(size) - 1) /
        static_cast<int64_t>(size);
    size_t failed = kNoWorker;
    const size_t rounds = 2 * (size - 1);
    for (size_t round = 0; round < rounds && failed == kNoWorker; ++round) {
      const bool reduce_phase = round < size - 1;
      for (size_t rank = 0; rank < size; ++rank) {
        const size_t from = (*cohort)[rank];
        const size_t to = (*cohort)[(rank + 1) % size];
        int64_t remaining = slice;
        while (remaining > 0) {
          const int64_t chunk = std::min(kChunkElements, remaining);
          const Status status =
              SendChunk(from, to, static_cast<uint64_t>(chunk) * 4);
          if (!status.ok()) {
            failed = to;
            break;
          }
          remaining -= chunk;
        }
        if (failed != kNoWorker) {
          break;
        }
        if (reduce_phase) {
          // The receiver folds the arrived slice into its accumulator. The
          // fold itself runs once, canonically, in CommitStep — this is the
          // crash surface of the per-worker reduction work.
          MMLIB_CRASH_POINT("collective.reduce");
        }
      }
    }
    if (failed == kNoWorker) {
      return Status::OK();
    }
    // The peer's messages exhausted the retrier: give up on it for this
    // step (bounded wait already charged by the backoff ladder) and rerun
    // the ring over the surviving cohort. Deterministic per seed — the
    // fault stream decides which message dies, not wall time.
    cohort->erase(std::find(cohort->begin(), cohort->end(), failed));
    ++report_.peers_removed;
  }
}

Status RingSession::CommitStep(
    const std::vector<size_t>& cohort,
    const std::vector<const std::vector<float>*>& inputs,
    std::vector<float>* out) {
  for (size_t rank = 0; rank < cohort.size(); ++rank) {
    // Step barrier: each cohort member installs the reduced gradient.
    MMLIB_CRASH_POINT("collective.commit");
  }
  const size_t size = cohort.size();
  const std::vector<float>& first = *inputs[cohort[0]];
  const int64_t elements = static_cast<int64_t>(first.size());
  out->resize(first.size());
  const float inverse = 1.0f / static_cast<float>(size);
  util::ParallelFor(
      pool_, elements, kChunkElements,
      [&](int64_t begin, int64_t end, size_t /*chunk*/) {
        std::vector<float> vals(size);
        for (int64_t j = begin; j < end; ++j) {
          for (size_t r = 0; r < size; ++r) {
            vals[r] = (*inputs[cohort[r]])[static_cast<size_t>(j)];
          }
          (*out)[static_cast<size_t>(j)] =
              TreeFold(vals.data(), 0, size - 1) * inverse;
        }
      });
  return Status::OK();
}

Status RingSession::AllReduce(
    int64_t step, const std::vector<const std::vector<float>*>& inputs,
    std::vector<float>* out) {
  if (workers_ == 0) {
    return Status::FailedPrecondition("ring session has no workers");
  }
  if (inputs.size() != workers_) {
    return Status::InvalidArgument(
        "AllReduce needs one gradient vector per configured worker: got " +
        std::to_string(inputs.size()) + " for " + std::to_string(workers_) +
        " workers");
  }
  for (const std::vector<float>* input : inputs) {
    if (input == nullptr || input->size() != inputs[0]->size()) {
      return Status::InvalidArgument(
          "AllReduce gradient vectors must be non-null and equally sized");
    }
  }

  double wait_seconds = 0.0;
  std::vector<size_t> cohort = CohortForStep(step, &wait_seconds);
  if (cohort.empty()) {
    return Status::Unavailable("no alive workers in the ring at step " +
                               std::to_string(step));
  }

  // One-shot simulated kill: arm the site at the target worker's first
  // participation in it this step. An absent (already dead) worker cannot
  // be killed; a one-worker cohort has no send/reduce traffic to die in.
  if (pending_crash_.armed && pending_crash_.update == update_ &&
      pending_crash_.at_step == step) {
    const auto it =
        std::find(cohort.begin(), cohort.end(), pending_crash_.worker);
    const bool messaging_site = pending_crash_.site != "collective.commit";
    if (it != cohort.end() && !(messaging_site && cohort.size() < 2)) {
      const size_t rank = static_cast<size_t>(it - cohort.begin());
      const size_t size = cohort.size();
      // Sends and commits hit in rank order; in a reduce round the
      // receiver of rank r's slice is rank r+1, so the worker's first
      // reduce hit comes one position earlier.
      const uint64_t hit = pending_crash_.site == "collective.reduce"
                               ? ((rank + size - 1) % size) + 1
                               : rank + 1;
      util::CrashPoint::Arm(pending_crash_.site, hit);
    }
    pending_crash_.armed = false;
  }

  const uint64_t sync_bytes = inputs[0]->size() * 4;
  for (size_t w : cohort) {
    if (needs_rejoin_[w]) {
      ChargeRejoinSync(w, sync_bytes);
    }
  }
  if (wait_seconds > 0.0) {
    network_->ChargeSeconds(wait_seconds);
  }

  MMLIB_RETURN_IF_ERROR(
      RunRing(&cohort, static_cast<int64_t>(inputs[0]->size())));
  if (cohort.empty()) {
    return Status::Unavailable("every ring peer failed at step " +
                               std::to_string(step));
  }
  MMLIB_RETURN_IF_ERROR(CommitStep(cohort, inputs, out));

  ++report_.steps;
  if (cohort.size() < workers_) {
    ++report_.degraded_steps;
  }
  for (size_t w = 0; w < workers_; ++w) {
    const bool committed =
        std::find(cohort.begin(), cohort.end(), w) != cohort.end();
    if (!committed) {
      ++report_.workers[w].excluded_steps;
      needs_rejoin_[w] = true;
    }
  }
  report_.retries = retrier_.retry_count();
  return Status::OK();
}

Status RingSession::RejoinWorker(size_t worker, uint64_t param_bytes) {
  if (worker >= workers_) {
    return Status::InvalidArgument("worker " + std::to_string(worker) +
                                   " is not part of the ring");
  }
  if (!network_->IsUp(simnet::Space::kWorker, worker)) {
    return Status::FailedPrecondition(
        "worker " + std::to_string(worker) +
        " must be restarted before it can rejoin the ring");
  }
  ChargeRejoinSync(worker, param_bytes);
  return Status::OK();
}

void RingSession::ChargeRejoinSync(size_t worker, uint64_t param_bytes) {
  // A rejoining worker pulls the current parameter snapshot from a peer
  // over the ring link before it may contribute gradients again — the
  // step-barrier re-entry the flow's crash recovery relies on.
  network_->Transfer(param_bytes);
  ++report_.workers[worker].rejoin_syncs;
  needs_rejoin_[worker] = false;
}

}  // namespace mmlib::collective
