#pragma once

#include <cstdint>

#include "simnet/network.h"
#include "util/random.h"
#include "util/result.h"
#include "util/status.h"

namespace mmlib::simnet {

/// True for transient transport errors a retry can heal: Unavailable and
/// DeadlineExceeded. Everything else (NotFound, Corruption, IoError, ...)
/// reports a real outcome and must surface to the caller.
inline bool IsRetryable(const Status& status) {
  return status.code() == StatusCode::kUnavailable ||
         status.code() == StatusCode::kDeadlineExceeded;
}

/// Deterministic retry driver shared by the remote store clients and the
/// collective channel. Runs an operation until it succeeds, fails with a
/// non-retryable error, or has made kMaxAttempts attempts. Between attempts
/// it charges a capped exponential backoff to the network's virtual clock:
/// the wait before retry n is kInitialBackoffSeconds * 2^(n-1), capped at
/// 5 s, then scaled by a factor in [1 - kJitterFraction, 1 +
/// kJitterFraction] drawn from a stream seeded with kJitterSeed. So TTS/TTR
/// under a fault plan include the time a real client would spend backing
/// off, and retries and the jitter stream are consumed in call order:
/// counts reproduce exactly.
class Retrier {
 public:
  /// Total attempts per operation (first try + retries).
  static constexpr int kMaxAttempts = 6;
  static constexpr double kInitialBackoffSeconds = 0.05;
  static constexpr double kJitterFraction = 0.2;
  static constexpr uint64_t kJitterSeed = 0x6a77e7;

  explicit Retrier(Network* network)
      : network_(network), jitter_rng_(kJitterSeed) {}

  /// Runs `op` (returning Status or Result<T>) under the retry ladder and
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
      if (attempt >= kMaxAttempts) {
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

  Network* network_;
  Rng jitter_rng_;
  uint64_t retry_count_ = 0;
  uint64_t request_deadline_abandoned_count_ = 0;
};

}  // namespace mmlib::simnet
