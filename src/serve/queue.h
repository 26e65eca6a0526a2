#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <vector>

#include "serve/request.h"

namespace mmlib::serve {

struct QueueOptions {
  /// Capacity of each per-tenant queue; arrivals beyond it are shed
  /// (RequestOutcome::kShed). Must be >= 1 — a serving queue is bounded by
  /// definition here (see the no-unbounded-queue lint rule).
  size_t per_tenant_capacity = 64;
};

/// Admission-controlled, fair-scheduled request queues of one coordinator
/// node: one bounded FIFO per tenant, drained by deficit round robin.
///
/// Admission: a tenant's queue never grows past its capacity — the excess
/// is shed immediately, which is the load-shedding half of overload
/// robustness (reject cheap and early; never let queueing delay grow
/// unboundedly for everyone).
///
/// Scheduling: PopNext walks the tenants round-robin, topping each
/// tenant's deficit up by the quantum on every visit and dispatching while
/// deficit lasts. A tenant that floods its queue still gets only its
/// quantum per round once other tenants have backlog — per-tenant fairness
/// — while any tenant alone inherits the node's full capacity.
class TenantQueues {
 public:
  /// Deficit-round-robin quantum: requests one tenant may dispatch per
  /// visit before the scheduler moves on. Keeps a hot tenant from starving
  /// the others while letting it use idle capacity.
  static constexpr uint32_t kDrrQuantum = 4;

  TenantQueues(uint32_t tenant_count, const QueueOptions& options);

  /// Admits `request` to its tenant's queue; false when the queue is full
  /// (the caller sheds the request).
  bool Admit(const Request& request);

  /// Next request to dispatch under DRR, or false when all queues are
  /// empty. Deterministic: depends only on the sequence of Admit/PopNext
  /// calls.
  bool PopNext(Request* out);

  /// Drops queued requests whose deadline is at or before `now_seconds`;
  /// returns them (in queue order per tenant) so the caller can account
  /// each as expired-in-queue. Sweeping at dispatch time keeps dead
  /// requests from consuming worker slots.
  std::vector<Request> ExpireBefore(double now_seconds);

  uint32_t tenant_count() const {
    return static_cast<uint32_t>(queues_.size());
  }

 private:
  QueueOptions options_;
  /// Bounded by options_.per_tenant_capacity (enforced in Admit) — see the
  /// no-unbounded-queue rule.
  std::vector<std::deque<Request>> queues_;
  std::vector<uint32_t> deficits_;
  /// Tenant the DRR scan resumes at.
  uint32_t cursor_ = 0;
};

}  // namespace mmlib::serve
