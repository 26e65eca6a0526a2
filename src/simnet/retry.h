#pragma once

#include <algorithm>
#include <cstdint>

#include "simnet/network.h"
#include "util/random.h"
#include "util/result.h"
#include "util/status.h"

namespace mmlib::simnet {

/// Capped exponential backoff with deterministic jitter: the wait before
/// retry n is initial_backoff_seconds * 2^(n-1), capped at 5 s, then
/// jittered. Waits are charged to the simulated network's virtual clock, so
/// TTS/TTR under a fault plan include the time a real client would spend
/// backing off.
struct RetryPolicy {
  /// Total attempts per operation (first try + retries). Must be >= 1.
  int max_attempts = 6;
  double initial_backoff_seconds = 0.05;
  /// Backoff is scaled by a factor in [1 - jitter, 1 + jitter], drawn from
  /// the seeded jitter stream — deterministic, unlike wall-clock jitter.
  double jitter_fraction = 0.2;
  /// Total virtual-clock budget for one operation, measured from its first
  /// attempt. Once a failed attempt finds the budget spent, the Retrier
  /// stops — even with attempts left — and returns DeadlineExceeded. 0
  /// disables the budget (per-attempt cap only). Quorum reads against a
  /// partitioned replica set rely on this to fail fast instead of spinning
  /// through the full capped backoff ladder.
  double total_deadline_seconds = 0.0;
  /// Seed of the jitter stream.
  uint64_t seed = 0x6a77e7;
};

/// True for transient transport errors a retry can heal: Unavailable and
/// DeadlineExceeded. Everything else (NotFound, Corruption, IoError, ...)
/// reports a real outcome and must surface to the caller.
inline bool IsRetryable(const Status& status) {
  return status.code() == StatusCode::kUnavailable ||
         status.code() == StatusCode::kDeadlineExceeded;
}

/// Deterministic retry driver shared by the remote store clients. Runs an
/// operation until it succeeds, fails with a non-retryable error, or
/// exhausts the policy's attempts; between attempts it charges the jittered
/// backoff to the network's virtual clock. Retries and the jitter stream
/// are consumed in call order, so counts reproduce exactly for a fixed
/// seed.
class Retrier {
 public:
  Retrier(const RetryPolicy& policy, Network* network)
      : policy_(policy), network_(network), jitter_rng_(policy.seed) {}

  /// Runs `op` (returning Status or Result<T>) under the retry policy and
  /// returns its last outcome. A retryable failure past the operation's
  /// virtual-clock budget is replaced by DeadlineExceeded so callers can
  /// distinguish "gave up fast" from the transport's own errors. When the
  /// network carries a request deadline (Network::DeadlineScope, installed
  /// by the serving front end), a retryable failure past that deadline is
  /// abandoned the same way — the client has already given up on the
  /// request, so retrying on its behalf only burns backend capacity.
  template <typename Fn>
  auto Run(Fn&& op) -> decltype(op()) {
    const double start_seconds = NowSeconds();
    for (int attempt = 1;; ++attempt) {
      auto outcome = op();
      if (outcome.ok() || !IsRetryable(StatusOf(outcome))) {
        return outcome;
      }
      if (DeadlineSpent(start_seconds)) {
        ++deadline_exhausted_count_;
        return decltype(op())(Status::DeadlineExceeded(
            "retry budget exhausted: " + StatusOf(outcome).message()));
      }
      if (RequestDeadlineHopeless()) {
        ++deadline_exhausted_count_;
        ++request_deadline_abandoned_count_;
        return decltype(op())(Status::DeadlineExceeded(
            "request deadline expired: " + StatusOf(outcome).message()));
      }
      if (attempt >= std::max(policy_.max_attempts, 1)) {
        return outcome;
      }
      ChargeBackoff(attempt);
      ++retry_count_;
    }
  }

  /// Total retries (attempts beyond the first) across all operations.
  uint64_t retry_count() const { return retry_count_; }

  /// Operations abandoned because their total virtual-clock budget ran out
  /// before the policy's attempt cap did.
  uint64_t deadline_exhausted_count() const {
    return deadline_exhausted_count_;
  }

  /// Subset of deadline_exhausted_count(): operations abandoned because the
  /// propagated *request* deadline (Network::DeadlineScope) expired, not the
  /// retrier's own budget.
  uint64_t request_deadline_abandoned_count() const {
    return request_deadline_abandoned_count_;
  }

  const RetryPolicy& policy() const { return policy_; }

 private:
  static const Status& StatusOf(const Status& status) { return status; }
  template <typename T>
  static const Status& StatusOf(const Result<T>& result) {
    return result.status();
  }

  void ChargeBackoff(int attempt);

  double NowSeconds() const {
    return network_ != nullptr ? network_->TotalTransferSeconds() : 0.0;
  }

  /// True when the per-operation budget is enabled and already consumed.
  /// With no network there is no virtual clock, so the budget cannot tick.
  bool DeadlineSpent(double start_seconds) const {
    return policy_.total_deadline_seconds > 0.0 && network_ != nullptr &&
           NowSeconds() - start_seconds >= policy_.total_deadline_seconds;
  }

  /// True when the network carries an in-flight request deadline that has
  /// already passed — further retries can never help the client.
  bool RequestDeadlineHopeless() const {
    return network_ != nullptr && network_->RequestDeadlineExpired();
  }

  RetryPolicy policy_;
  Network* network_;
  Rng jitter_rng_;
  uint64_t retry_count_ = 0;
  uint64_t deadline_exhausted_count_ = 0;
  uint64_t request_deadline_abandoned_count_ = 0;
};

}  // namespace mmlib::simnet
