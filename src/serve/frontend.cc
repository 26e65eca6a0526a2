#include "serve/frontend.h"

#include <algorithm>
#include <utility>

#include "simnet/arrivals.h"
#include "util/crash_point.h"

namespace mmlib::serve {
namespace {

/// Inference batching: up to kBatchMax requests share one backend pass; a
/// partial batch flushes after kBatchFlushSeconds.
constexpr size_t kBatchMax = 8;
constexpr double kBatchFlushSeconds = 0.002;

}  // namespace

ServingFrontend::ServingFrontend(const FrontendOptions& options,
                                 std::vector<ServeBackend*> backends,
                                 simnet::Network* network)
    : options_(options), backends_(std::move(backends)), network_(network) {
  nodes_.reserve(options_.node_count);
  for (uint32_t n = 0; n < options_.node_count; ++n) {
    nodes_.emplace_back(options_.tenant_count, options_.queue);
    nodes_.back().free_slots = options_.workers_per_node;
  }
  breakers_.assign(backends_.size(), CircuitBreaker(options_.breaker));
}

void ServingFrontend::Push(Event event) {
  event.seq = next_event_seq_++;
  events_.push(std::move(event));
}

void ServingFrontend::SyncNetworkClock(double now_seconds) {
  if (network_ == nullptr) {
    return;
  }
  // The network clock never rewinds: a CoreBackend op may already have
  // charged transfers past this event's time.
  const double behind = now_seconds - network_->TotalTransferSeconds();
  if (behind > 0.0) {
    network_->ChargeSeconds(behind);
  }
  network_->ApplyDueReplicaEvents();
}

uint32_t ServingFrontend::RouteNode(const Request& request) const {
  return static_cast<uint32_t>(
      simnet::MixHash(options_.seed ^ simnet::MixHash(request.client)) %
      options_.node_count);
}

ServeReport ServingFrontend::Run(WorkloadGenerator& workload) {
  report_ = ServeReport();
  if (workload.HasNext()) {
    Event arrival;
    arrival.type = EventType::kArrival;
    arrival.batch.push_back(workload.Next());
    arrival.time = arrival.batch.front().arrival_seconds;
    Push(std::move(arrival));
  }
  while (!events_.empty()) {
    Event event = events_.top();
    events_.pop();
    const double now = event.time;
    last_event_seconds_ = now;
    SyncNetworkClock(now);
    switch (event.type) {
      case EventType::kArrival: {
        ++report_.counters.arrivals;
        AdmitRequest(event.batch.front(), now);
        if (workload.HasNext()) {
          Event next;
          next.type = EventType::kArrival;
          next.batch.push_back(workload.Next());
          next.time = next.batch.front().arrival_seconds;
          Push(std::move(next));
        }
        break;
      }
      case EventType::kCompletion:
        DeliverReply(event, now);
        break;
      case EventType::kBatchFlush: {
        NodeState& state = nodes_[event.node];
        if (event.batch_generation == state.batch_generation &&
            !state.pending_batch.empty()) {
          // The timer expired with the batch still partial; flush what is
          // there (TryDispatch handles the no-free-slot case by leaving the
          // batch due, to flush on the next slot release).
          state.batch_due_seconds = now;
          TryDispatch(event.node, now);
        }
        break;
      }
    }
  }
  for (const CircuitBreaker& breaker : breakers_) {
    report_.counters.breaker_trips += breaker.trip_count();
    report_.counters.breaker_probes += breaker.probe_count();
    report_.counters.breaker_recoveries += breaker.recovery_count();
    report_.counters.breaker_fast_rejects += breaker.fast_reject_count();
  }
  report_.horizon_seconds =
      std::max(workload.spec().horizon_seconds, last_event_seconds_);
  if (report_.horizon_seconds > 0.0) {
    report_.goodput_rps =
        static_cast<double>(report_.counters.served()) /
        report_.horizon_seconds;
  }
  return report_;
}

void ServingFrontend::AdmitRequest(const Request& request,
                                   double now_seconds) {
  MMLIB_CRASH_POINT("serve.admit");
  const uint32_t node = RouteNode(request);
  if (!nodes_[node].queues.Admit(request)) {
    ++report_.counters.shed_queue_full;
    RecordOutcome(request, RequestOutcome::kShed, now_seconds);
    return;
  }
  ++report_.counters.admitted;
  TryDispatch(node, now_seconds);
}

bool ServingFrontend::BatchReady(const NodeState& state,
                                 double now_seconds) const {
  return !state.pending_batch.empty() &&
         (state.pending_batch.size() >= kBatchMax ||
          now_seconds >= state.batch_due_seconds);
}

void ServingFrontend::TryDispatch(uint32_t node, double now_seconds) {
  NodeState& state = nodes_[node];
  for (const Request& expired : state.queues.ExpireBefore(now_seconds)) {
    ++report_.counters.expired_in_queue;
    RecordOutcome(expired, RequestOutcome::kDeadlineExpired, now_seconds);
  }
  while (state.free_slots > 0) {
    if (BatchReady(state, now_seconds)) {
      FlushBatch(node, now_seconds);
      continue;
    }
    Request request;
    if (!state.queues.PopNext(&request)) {
      break;
    }
    if (request.kind == RequestKind::kInference) {
      state.pending_batch.push_back(request);
      if (state.pending_batch.size() == 1) {
        state.batch_due_seconds = now_seconds + kBatchFlushSeconds;
        Event flush;
        flush.type = EventType::kBatchFlush;
        flush.time = state.batch_due_seconds;
        flush.node = node;
        flush.batch_generation = state.batch_generation;
        Push(std::move(flush));
      }
      continue;
    }
    DispatchRequest(node, {request}, now_seconds);
  }
}

void ServingFrontend::FlushBatch(uint32_t node, double now_seconds) {
  NodeState& state = nodes_[node];
  std::vector<Request> batch = std::move(state.pending_batch);
  state.pending_batch.clear();
  ++state.batch_generation;
  // Members whose client already hung up are not worth a model pass.
  std::vector<Request> live;
  live.reserve(batch.size());
  for (const Request& request : batch) {
    if (request.deadline_seconds > 0.0 &&
        request.deadline_seconds <= now_seconds) {
      RecordOutcome(request, RequestOutcome::kDeadlineExpired, now_seconds);
    } else {
      live.push_back(request);
    }
  }
  if (live.empty()) {
    return;
  }
  ++report_.counters.batches_flushed;
  if (live.size() > 1) {
    report_.counters.batched += live.size();
  }
  DispatchRequest(node, std::move(live), now_seconds);
}

void ServingFrontend::DispatchRequest(uint32_t node,
                                      std::vector<Request> batch,
                                      double now_seconds) {
  MMLIB_CRASH_POINT("serve.dispatch");
  NodeState& state = nodes_[node];
  const size_t backend_index = node % backends_.size();
  CircuitBreaker& breaker = breakers_[backend_index];
  if (!breaker.Allow(now_seconds)) {
    for (const Request& request : batch) {
      RecordOutcome(request, RequestOutcome::kBreakerRejected, now_seconds);
    }
    return;
  }
  const BackendOutcome outcome = backends_[backend_index]->Execute(
      batch.front(), batch.size(), now_seconds);
  --state.free_slots;
  Event completion;
  completion.type = EventType::kCompletion;
  completion.time = now_seconds + outcome.service_seconds;
  completion.node = node;
  completion.outcome = outcome;
  completion.batch = std::move(batch);
  Push(std::move(completion));
}

void ServingFrontend::DeliverReply(const Event& event, double now_seconds) {
  MMLIB_CRASH_POINT("serve.reply");
  NodeState& state = nodes_[event.node];
  ++state.free_slots;
  CircuitBreaker& breaker = breakers_[event.node % backends_.size()];
  if (event.outcome.code == StatusCode::kOk) {
    breaker.RecordSuccess(now_seconds);
  } else {
    breaker.RecordFailure(now_seconds);
    ++report_.counters.backend_failures;
  }
  for (const Request& request : event.batch) {
    if (event.outcome.code != StatusCode::kOk) {
      RecordOutcome(request, RequestOutcome::kBackendFailed, now_seconds);
    } else if (request.deadline_seconds > 0.0 &&
               request.deadline_seconds < now_seconds) {
      // Served too late: the work was done but the client was gone.
      RecordOutcome(request, RequestOutcome::kDeadlineExpired, now_seconds);
    } else {
      RecordOutcome(request, RequestOutcome::kServed, now_seconds);
    }
  }
  TryDispatch(event.node, now_seconds);
}

void ServingFrontend::RecordOutcome(const Request& request,
                                    RequestOutcome outcome,
                                    double now_seconds) {
  ++report_.counters.outcomes[static_cast<size_t>(outcome)];
  if (outcome == RequestOutcome::kServed) {
    report_.latency.Record(now_seconds - request.arrival_seconds);
  }
}

}  // namespace mmlib::serve
