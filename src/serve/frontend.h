#pragma once

#include <cstdint>
#include <queue>  // std::priority_queue event heap; drained fully every Run
#include <vector>

#include "serve/backend.h"
#include "serve/breaker.h"
#include "serve/queue.h"
#include "serve/request.h"
#include "serve/stats.h"
#include "serve/workload.h"
#include "simnet/network.h"

namespace mmlib::serve {

struct FrontendOptions {
  /// Coordinator nodes accepting requests; each has its own queues and
  /// worker slots. Requests route to a node by client hash.
  uint32_t node_count = 2;
  /// Concurrent requests one node can have in service.
  uint32_t workers_per_node = 8;
  uint32_t tenant_count = 4;
  QueueOptions queue;
  BreakerOptions breaker;
  uint64_t seed = 0xf20d7;
};

/// The overload-robust multi-tenant serving front end: N coordinator nodes
/// over simnet running a discrete-event simulation on the virtual clock.
/// Arrivals are admission-controlled (bounded per-tenant queues), scheduled
/// fairly (deficit round robin), dispatched to per-node backends behind
/// circuit breakers, batched (inference), and abandoned once their deadline
/// has passed. The whole run is deterministic per (workload seed, options):
/// the event heap is ordered by (virtual time, push sequence) and every
/// stochastic decision is keyed by request identity, so degraded runs —
/// replica crashes, partitions, fault seeds — reproduce bit-identically.
///
/// The front end advances the simnet virtual clock alongside its own event
/// clock, so replica events scheduled on the network (Network::Schedule)
/// fire mid-run exactly as they do for the storage flows.
class ServingFrontend {
 public:
  /// `backends` are borrowed, one or more; node i dispatches to backend
  /// i % backends.size(). `network` may be null (no clock sync, backends
  /// always reachable).
  ServingFrontend(const FrontendOptions& options,
                  std::vector<ServeBackend*> backends,
                  simnet::Network* network);

  /// Runs the workload to completion (all admitted requests resolved) and
  /// returns the report. A front end instance runs one workload.
  ServeReport Run(WorkloadGenerator& workload);

  const CircuitBreaker& breaker(size_t backend) const {
    return breakers_[backend];
  }

 private:
  enum class EventType : uint8_t { kArrival, kCompletion, kBatchFlush };

  struct Event {
    double time = 0.0;
    /// Push-order tiebreaker: equal-time events process in push order.
    uint64_t seq = 0;
    EventType type = EventType::kArrival;
    uint32_t node = 0;
    BackendOutcome outcome;
    std::vector<Request> batch;
    uint64_t batch_generation = 0;
  };
  struct EventAfter {
    bool operator()(const Event& a, const Event& b) const {
      return a.time != b.time ? a.time > b.time : a.seq > b.seq;
    }
  };

  struct NodeState {
    NodeState(uint32_t tenants, const QueueOptions& options)
        : queues(tenants, options) {}
    TenantQueues queues;
    uint32_t free_slots = 0;
    std::vector<Request> pending_batch;
    double batch_due_seconds = 0.0;
    /// Bumped on every flush; a flush timer event with a stale generation
    /// is a no-op (its batch already flushed full).
    uint64_t batch_generation = 0;
  };

  void Push(Event event);
  void SyncNetworkClock(double now_seconds);
  uint32_t RouteNode(const Request& request) const;

  void AdmitRequest(const Request& request, double now_seconds);
  void TryDispatch(uint32_t node, double now_seconds);
  bool BatchReady(const NodeState& state, double now_seconds) const;
  void FlushBatch(uint32_t node, double now_seconds);
  /// Dispatches `batch` (size 1 unless inference); consumes a worker slot
  /// unless the breaker rejects it outright.
  void DispatchRequest(uint32_t node, std::vector<Request> batch,
                       double now_seconds);
  void DeliverReply(const Event& event, double now_seconds);
  void RecordOutcome(const Request& request, RequestOutcome outcome,
                     double now_seconds);

  FrontendOptions options_;
  std::vector<ServeBackend*> backends_;
  simnet::Network* network_;
  std::vector<NodeState> nodes_;
  std::vector<CircuitBreaker> breakers_;
  std::priority_queue<Event, std::vector<Event>, EventAfter> events_;
  uint64_t next_event_seq_ = 0;
  ServeReport report_;
  double last_event_seconds_ = 0.0;
};

}  // namespace mmlib::serve
