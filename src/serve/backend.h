#pragma once

#include <cstdint>

#include "serve/request.h"
#include "simnet/network.h"
#include "util/status.h"

namespace mmlib::serve {

/// Outcome of one backend execution: final status code, the virtual-clock
/// seconds the work consumed (the front end holds a worker slot for exactly
/// this long), and payload bytes moved.
struct BackendOutcome {
  StatusCode code = StatusCode::kOk;
  double service_seconds = 0.0;
  uint64_t bytes = 0;
};

/// What a coordinator node dispatches requests to. Implementations must be
/// deterministic: the outcome of a request may depend only on the request's
/// identity (sequence/kind/tenant), the backend's own seed, and the state
/// of the simulated network at dispatch time — never on how other requests
/// were interleaved around it.
class ServeBackend {
 public:
  virtual ~ServeBackend() = default;

  /// Executes `request` at virtual time `now_seconds`. For inference,
  /// `batch_size` >= 1 requests share one model pass and this is called
  /// once for the whole batch (the front end fans the outcome out);
  /// non-inference kinds always see batch_size == 1.
  virtual BackendOutcome Execute(const Request& request, size_t batch_size,
                                 double now_seconds) = 0;
};

/// Arithmetic backend model for saturation-scale runs (millions of
/// requests): per-kind base service times (save 20 ms, recover 12 ms,
/// probe 2 ms, inference 4 ms) scaled by up to 1.5x of hash-keyed jitter,
/// a 2% slow tail at 8x (the tail hedged reads and deadlines exist to
/// fight), and 25% of the base per extra request in a batch; bound to one
/// simnet replica for availability. Costs are computed, not transferred,
/// so a run's wall-clock stays flat no matter the offered load;
/// availability still comes from the real network state (replica crashes,
/// partitions) and so degrades exactly like the real store clients do.
struct SimulatedBackendOptions {
  /// Seed of the hash-keyed jitter and tail draws.
  uint64_t seed = 0x5e21;
};

class SimulatedBackend : public ServeBackend {
 public:
  /// `network` may be null (backend always reachable). `replica` is the
  /// simnet replica node this backend's availability is bound to.
  SimulatedBackend(const SimulatedBackendOptions& options,
                   simnet::Network* network, size_t replica)
      : options_(options), network_(network), replica_(replica) {}

  BackendOutcome Execute(const Request& request, size_t batch_size,
                         double now_seconds) override;

  size_t replica() const { return replica_; }

 private:
  SimulatedBackendOptions options_;
  simnet::Network* network_;
  size_t replica_;
};

}  // namespace mmlib::serve
