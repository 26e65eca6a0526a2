#pragma once

#include <cstdint>

#include "util/random.h"

namespace mmlib::simnet {

/// Seeded open-loop arrival process on the virtual clock: a Poisson stream
/// of request arrival times with exponential interarrival gaps, drawn from
/// a dedicated Rng stream. Open-loop means arrivals are independent of
/// completions — the standing model of a population of clients far larger
/// than the server's capacity (millions of virtual clients), where finished
/// requests do not slow the stream down. This is the arrival model an
/// overload experiment needs: offered load stays constant even while the
/// server drowns, which is exactly when closed-loop generators silently
/// throttle themselves and hide the collapse.
///
/// Deterministic per seed: the arrival sequence is a pure function of
/// (seed, rate), independent of anything the server does.
class ArrivalProcess {
 public:
  /// `rate_per_second` is the offered load in requests per virtual second;
  /// must be > 0.
  ArrivalProcess(double rate_per_second, uint64_t seed)
      : rate_(rate_per_second), rng_(seed) {}

  /// Virtual time of the next arrival (strictly increasing). The first call
  /// returns the first arrival after time 0.
  double NextArrivalSeconds();

 private:
  double rate_;
  Rng rng_;
  double next_seconds_ = 0.0;
};

/// A population of virtual clients behind an arrival stream. The population
/// is never materialized — millions of clients are modeled by hashing each
/// arrival's sequence number into a stable client id — but ids repeat with
/// the right collision statistics, so per-client state (a closed-loop
/// generator's outstanding-request bookkeeping, a server's per-client
/// accounting) sees a realistic id distribution.
class ClientPopulation {
 public:
  /// `size` is the number of distinct virtual clients; must be > 0.
  ClientPopulation(uint64_t size, uint64_t seed)
      : size_(size), seed_(seed) {}

  uint64_t size() const { return size_; }

  /// Stable client id in [0, size) for the `sequence`-th arrival — a pure
  /// hash, so any subset of the stream maps to the same clients on every
  /// run.
  uint64_t ClientFor(uint64_t sequence) const;

 private:
  uint64_t size_;
  uint64_t seed_;
};

/// SplitMix64-style avalanche of a 64-bit key; the stable hash behind
/// ClientPopulation and the serving layer's per-request deterministic
/// draws (service-time jitter, tenant assignment, replica preference).
uint64_t MixHash(uint64_t key);

}  // namespace mmlib::simnet
