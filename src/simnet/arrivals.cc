#include "simnet/arrivals.h"

#include <cmath>

namespace mmlib::simnet {

double ArrivalProcess::NextArrivalSeconds() {
  // Exponential interarrival via inverse transform. NextDouble() is in
  // [0, 1); flip to (0, 1] so the log argument is never zero.
  const double u = 1.0 - rng_.NextDouble();
  next_seconds_ += -std::log(u) / rate_;
  return next_seconds_;
}

uint64_t MixHash(uint64_t key) {
  // SplitMix64 finalizer: full-avalanche 64-bit mix, stable across
  // platforms (same constants as util/random.h's stream expansion).
  uint64_t z = key + 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

uint64_t ClientPopulation::ClientFor(uint64_t sequence) const {
  return MixHash(seed_ ^ MixHash(sequence)) % size_;
}

}  // namespace mmlib::simnet
