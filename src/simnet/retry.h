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
  /// returns its last outcome. When the network carries a request deadline
  /// (Network::DeadlineScope, installed by the serving front end), a
  /// retryable failure past that deadline is replaced by DeadlineExceeded
  /// instead of retried — the client has already given up on the request,
  /// so retrying on its behalf only burns backend capacity.
  template <typename Fn>
  auto Run(Fn&& op) -> decltype(op()) {
    for (int attempt = 1;; ++attempt) {
      auto outcome = op();
      if (outcome.ok() || !IsRetryable(StatusOf(outcome))) {
        return outcome;
      }
      if (RequestDeadlineHopeless()) {
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

  /// Operations abandoned because the propagated request deadline
  /// (Network::DeadlineScope) had expired.
  uint64_t request_deadline_abandoned_count() const {
    return request_deadline_abandoned_count_;
  }

 private:
  static const Status& StatusOf(const Status& status) { return status; }
  template <typename T>
  static const Status& StatusOf(const Result<T>& result) {
    return result.status();
  }

  void ChargeBackoff(int attempt);

  /// True when the network carries an in-flight request deadline that has
  /// already passed — further retries can never help the client.
  bool RequestDeadlineHopeless() const {
    return network_ != nullptr && network_->RequestDeadlineExpired();
  }

  RetryPolicy policy_;
  Network* network_;
  Rng jitter_rng_;
  uint64_t retry_count_ = 0;
  uint64_t request_deadline_abandoned_count_ = 0;
};

}  // namespace mmlib::simnet
