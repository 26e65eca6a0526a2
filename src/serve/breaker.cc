#include "serve/breaker.h"

namespace mmlib::serve {

bool CircuitBreaker::Allow(double now_seconds) {
  switch (state_) {
    case State::kClosed:
      return true;
    case State::kOpen:
      if (now_seconds - opened_at_seconds_ >= options_.open_seconds) {
        state_ = State::kHalfOpen;
        half_open_successes_ = 0;
        probe_in_flight_ = true;
        ++probe_count_;
        return true;
      }
      ++fast_reject_count_;
      return false;
    case State::kHalfOpen:
      if (probe_in_flight_) {
        ++fast_reject_count_;
        return false;
      }
      probe_in_flight_ = true;
      ++probe_count_;
      return true;
  }
  return true;
}

void CircuitBreaker::RecordSuccess(double now_seconds) {
  (void)now_seconds;
  switch (state_) {
    case State::kClosed:
      consecutive_failures_ = 0;
      break;
    case State::kHalfOpen:
      probe_in_flight_ = false;
      if (++half_open_successes_ >= kRecoveryThreshold) {
        state_ = State::kClosed;
        consecutive_failures_ = 0;
        ++recovery_count_;
      }
      break;
    case State::kOpen:
      // A late success from a request admitted before the trip; ignore.
      break;
  }
}

void CircuitBreaker::RecordFailure(double now_seconds) {
  switch (state_) {
    case State::kClosed:
      if (++consecutive_failures_ >= options_.failure_threshold) {
        Trip(now_seconds);
      }
      break;
    case State::kHalfOpen:
      // The probe failed: back to open, cooldown restarts.
      probe_in_flight_ = false;
      Trip(now_seconds);
      break;
    case State::kOpen:
      break;
  }
}

void CircuitBreaker::Trip(double now_seconds) {
  state_ = State::kOpen;
  opened_at_seconds_ = now_seconds;
  consecutive_failures_ = 0;
  half_open_successes_ = 0;
  ++trip_count_;
}

}  // namespace mmlib::serve
