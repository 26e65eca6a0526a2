#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "serve/request.h"
#include "simnet/arrivals.h"

namespace mmlib::serve {

/// Seeded open-loop serving workload: a Poisson arrival stream over a
/// virtual client population, with a request mix and a Zipf-skewed tenant
/// distribution. Everything is a pure function of (seed, spec), so the
/// workload is identical on every run — the precondition for bit-identical
/// serving reports.
struct WorkloadSpec {
  /// Offered load in requests per virtual second.
  double arrival_rate_per_second = 1000.0;
  /// Virtual time covered; arrivals past the horizon are not generated.
  double horizon_seconds = 10.0;
  /// Relative per-request deadline; 0 disables deadlines.
  double deadline_seconds = 0.5;
  /// Zipf exponent of the tenant distribution: tenant t gets weight
  /// 1 / (t+1)^skew. 0 = uniform; larger = one hot tenant dominating — the
  /// fairness scenario.
  double tenant_skew = 1.0;
  uint64_t seed = 1;
};

class WorkloadGenerator {
 public:
  WorkloadGenerator(const WorkloadSpec& spec, uint32_t tenant_count);

  /// True when another arrival exists inside the horizon.
  bool HasNext() const { return next_arrival_seconds_ <= spec_.horizon_seconds; }

  /// The next request (arrival times strictly increasing).
  Request Next();

  const WorkloadSpec& spec() const { return spec_; }

 private:
  RequestKind PickKind(uint64_t identity) const;
  uint32_t PickTenant(uint64_t identity) const;

  WorkloadSpec spec_;
  simnet::ArrivalProcess arrivals_;
  simnet::ClientPopulation clients_;
  uint64_t sequence_ = 0;
  double next_arrival_seconds_ = 0.0;
  /// Cumulative (unnormalized) kind and tenant weights for hash draws.
  std::array<double, kRequestKindCount> kind_cdf_{};
  std::vector<double> tenant_cdf_;
};

}  // namespace mmlib::serve
