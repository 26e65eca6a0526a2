#pragma once

#include <cstdint>

namespace mmlib::serve {

struct BreakerOptions {
  /// Consecutive failures that trip the breaker open.
  int failure_threshold = 5;
  /// Virtual seconds the breaker stays open before admitting a probe.
  double open_seconds = 1.0;
};

/// Per-backend circuit breaker on the virtual clock, the standard
/// three-state machine:
///
///   Closed ──(failure_threshold consecutive failures)──> Open
///   Open ──(open_seconds elapsed; next Allow() admits one probe)──> HalfOpen
///   HalfOpen ──(kRecoveryThreshold probe successes)──> Closed
///   HalfOpen ──(any probe failure)──> Open (cooldown restarts)
///
/// While open, Allow() answers false and the front end fails the request
/// fast instead of queueing work a dead backend will time out — under a
/// replica crash this is what keeps worker slots available for the backends
/// that still answer. All timing is virtual-clock seconds passed in by the
/// caller, so the state machine is deterministic per run.
class CircuitBreaker {
 public:
  /// Consecutive probe successes in half-open that close the breaker.
  static constexpr int kRecoveryThreshold = 2;

  explicit CircuitBreaker(const BreakerOptions& options = {})
      : options_(options) {}

  enum class State : uint8_t { kClosed = 0, kOpen = 1, kHalfOpen = 2 };

  /// True when a request may be sent to the backend at `now_seconds`. An
  /// open breaker whose cooldown has elapsed transitions to half-open and
  /// admits exactly this one request as the probe.
  bool Allow(double now_seconds);

  /// Reports the outcome of a request that Allow() admitted.
  void RecordSuccess(double now_seconds);
  void RecordFailure(double now_seconds);

  State state() const { return state_; }
  uint64_t trip_count() const { return trip_count_; }
  uint64_t probe_count() const { return probe_count_; }
  uint64_t recovery_count() const { return recovery_count_; }
  uint64_t fast_reject_count() const { return fast_reject_count_; }

 private:
  void Trip(double now_seconds);

  BreakerOptions options_;
  State state_ = State::kClosed;
  int consecutive_failures_ = 0;
  int half_open_successes_ = 0;
  /// True while the single half-open probe is in flight; further requests
  /// are rejected until its outcome lands.
  bool probe_in_flight_ = false;
  double opened_at_seconds_ = 0.0;
  uint64_t trip_count_ = 0;
  uint64_t probe_count_ = 0;
  uint64_t recovery_count_ = 0;
  uint64_t fast_reject_count_ = 0;
};

}  // namespace mmlib::serve
