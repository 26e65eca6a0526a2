#pragma once

#include <cstdint>

namespace mmlib::serve {

/// Operations the serving front end accepts (paper use cases U1–U3 plus the
/// inference traffic a deployed model store ultimately exists for).
enum class RequestKind : uint8_t {
  kSave = 0,
  kRecover = 1,
  kProbe = 2,
  kInference = 3,
};

inline constexpr int kRequestKindCount = 4;

/// One client request as the front end sees it. Everything about a request
/// — tenant, kind, service-time jitter, replica preference — is a pure
/// function of (workload seed, sequence), so a request carries the same
/// identity on every run regardless of what happens to the requests around
/// it.
struct Request {
  /// Position in the arrival stream; the deterministic identity key.
  uint64_t sequence = 0;
  /// Stable virtual-client id (see simnet::ClientPopulation).
  uint64_t client = 0;
  /// Tenant the client belongs to; admission and scheduling are per-tenant.
  uint32_t tenant = 0;
  RequestKind kind = RequestKind::kInference;
  /// Virtual time the request arrived at its coordinator node.
  double arrival_seconds = 0.0;
  /// Absolute virtual deadline; past it the client has hung up. 0 = none.
  double deadline_seconds = 0.0;
};

/// Terminal outcome of one request, for accounting. Every admitted or shed
/// request ends in exactly one of these.
enum class RequestOutcome : uint8_t {
  /// Served successfully within its deadline.
  kServed = 0,
  /// Rejected at admission because the tenant's queue was full.
  kShed = 1,
  /// Admitted but abandoned: its deadline expired before or during service.
  kDeadlineExpired = 2,
  /// Rejected fast because the target backend's circuit breaker was open.
  kBreakerRejected = 3,
  /// Dispatched but the backend failed it (and retries could not heal it).
  kBackendFailed = 4,
};

inline constexpr int kRequestOutcomeCount = 5;

}  // namespace mmlib::serve
