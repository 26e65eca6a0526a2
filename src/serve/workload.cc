#include "serve/workload.h"

#include <array>
#include <cmath>

namespace mmlib::serve {
namespace {

/// Distinct virtual clients behind the stream (never materialized).
constexpr uint64_t kClientPopulation = 1000000;
/// Request-kind mix weights (save, recover, probe, inference).
constexpr std::array<double, kRequestKindCount> kKindWeights = {0.02, 0.08,
                                                                0.10, 0.80};

double HashUnit(uint64_t h) {
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

}  // namespace

WorkloadGenerator::WorkloadGenerator(const WorkloadSpec& spec,
                                     uint32_t tenant_count)
    : spec_(spec),
      arrivals_(spec.arrival_rate_per_second, spec.seed),
      clients_(kClientPopulation, spec.seed ^ 0xc11e57ULL) {
  double acc = 0.0;
  for (int k = 0; k < kRequestKindCount; ++k) {
    acc += kKindWeights[static_cast<size_t>(k)];
    kind_cdf_[static_cast<size_t>(k)] = acc;
  }
  tenant_cdf_.resize(tenant_count);
  acc = 0.0;
  for (uint32_t t = 0; t < tenant_count; ++t) {
    acc += std::pow(static_cast<double>(t) + 1.0, -spec_.tenant_skew);
    tenant_cdf_[t] = acc;
  }
  next_arrival_seconds_ = arrivals_.NextArrivalSeconds();
}

RequestKind WorkloadGenerator::PickKind(uint64_t identity) const {
  const double u =
      HashUnit(simnet::MixHash(identity ^ 0x6b1dULL)) * kind_cdf_.back();
  for (int k = 0; k < kRequestKindCount; ++k) {
    if (u < kind_cdf_[static_cast<size_t>(k)]) {
      return static_cast<RequestKind>(k);
    }
  }
  return RequestKind::kInference;
}

uint32_t WorkloadGenerator::PickTenant(uint64_t identity) const {
  const double u =
      HashUnit(simnet::MixHash(identity ^ 0x7e4aULL)) * tenant_cdf_.back();
  for (uint32_t t = 0; t < tenant_cdf_.size(); ++t) {
    if (u < tenant_cdf_[t]) {
      return t;
    }
  }
  return static_cast<uint32_t>(tenant_cdf_.size() - 1);
}

Request WorkloadGenerator::Next() {
  Request request;
  request.sequence = sequence_;
  request.client = clients_.ClientFor(sequence_);
  request.arrival_seconds = next_arrival_seconds_;
  const uint64_t identity =
      simnet::MixHash(spec_.seed ^ simnet::MixHash(sequence_));
  request.kind = PickKind(identity);
  request.tenant = PickTenant(identity);
  if (spec_.deadline_seconds > 0.0) {
    request.deadline_seconds =
        request.arrival_seconds + spec_.deadline_seconds;
  }
  ++sequence_;
  next_arrival_seconds_ = arrivals_.NextArrivalSeconds();
  return request;
}

}  // namespace mmlib::serve
