#include "simnet/retry.h"

#include <algorithm>
#include <cmath>

namespace mmlib::simnet {
namespace {

constexpr double kBackoffMultiplier = 2.0;
constexpr double kMaxBackoffSeconds = 5.0;

}  // namespace

void Retrier::ChargeBackoff(int attempt) {
  double backoff =
      kInitialBackoffSeconds * std::pow(kBackoffMultiplier, attempt - 1);
  backoff = std::min(backoff, kMaxBackoffSeconds);
  const double unit = jitter_rng_.NextDouble() * 2.0 - 1.0;  // [-1, 1)
  backoff *= 1.0 + kJitterFraction * unit;
  if (network_ != nullptr) {
    network_->ChargeSeconds(backoff);
  }
}

}  // namespace mmlib::simnet
