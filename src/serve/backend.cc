#include "serve/backend.h"

#include <array>

#include "simnet/arrivals.h"

namespace mmlib::serve {
namespace {

/// Uniform double in [0, 1) from a 64-bit hash (53 mantissa bits, the same
/// construction as util::Rng::NextDouble).
double HashUnit(uint64_t h) {
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

/// Base service seconds per RequestKind (save, recover, probe, inference).
constexpr std::array<double, kRequestKindCount> kBaseSeconds = {
    0.020, 0.012, 0.002, 0.004};
/// Service time is scaled by 1 + kJitterFraction * u, u in [0, 1).
constexpr double kJitterFraction = 0.5;
/// With kTailProbability a request lands in the slow tail and its service
/// time is multiplied by kTailMultiplier.
constexpr double kTailProbability = 0.02;
constexpr double kTailMultiplier = 8.0;
/// A batch of n costs base * (1 + (n - 1) * kBatchMarginalFraction).
constexpr double kBatchMarginalFraction = 0.25;
/// Seconds burned learning that an unreachable replica is unreachable (one
/// timeout's worth, not a full retry ladder).
constexpr double kUnavailableSeconds = 0.050;

}  // namespace

BackendOutcome SimulatedBackend::Execute(const Request& request,
                                         size_t batch_size,
                                         double now_seconds) {
  (void)now_seconds;
  BackendOutcome outcome;
  if (network_ != nullptr) {
    network_->ApplyDueReplicaEvents();
    if (!network_->IsReachable(simnet::Space::kReplica, replica_)) {
      outcome.code = StatusCode::kUnavailable;
      outcome.service_seconds = kUnavailableSeconds;
      return outcome;
    }
  }
  // Every draw is keyed by the request identity, not a stream position, so
  // shedding or reordering neighbors never shifts this request's fate.
  const uint64_t identity =
      simnet::MixHash(options_.seed ^ simnet::MixHash(request.sequence));
  const uint64_t kind_salt =
      simnet::MixHash(identity ^ static_cast<uint64_t>(request.kind));

  const double base = kBaseSeconds[static_cast<size_t>(request.kind)];
  double seconds =
      base * (1.0 + kJitterFraction *
                        HashUnit(simnet::MixHash(kind_salt ^ 0x11u)));
  if (HashUnit(simnet::MixHash(kind_salt ^ 0x77u)) < kTailProbability) {
    seconds *= kTailMultiplier;
  }
  if (batch_size > 1) {
    seconds *= 1.0 + (static_cast<double>(batch_size) - 1.0) *
                         kBatchMarginalFraction;
  }
  outcome.service_seconds = seconds;
  return outcome;
}

}  // namespace mmlib::serve
