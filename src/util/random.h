#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace mmlib {

/// SplitMix64 PRNG: used to expand a single seed into initialization state
/// for other generators. Deterministic across platforms.
class SplitMix64 {
 public:
  explicit SplitMix64(uint64_t seed) : state_(seed) {}

  uint64_t Next();

 private:
  uint64_t state_;
};

/// Complete serializable state of an Rng: the xoshiro256** words plus the
/// Box-Muller gaussian cache. Restoring it continues the stream exactly
/// where the snapshot was taken — training checkpoints persist this so a
/// resumed run consumes the same dropout/augmentation randomness as an
/// uninterrupted one.
struct RngState {
  uint64_t s[4] = {0, 0, 0, 0};
  bool have_cached_gaussian = false;
  float cached_gaussian = 0.0f;
};

/// Xoshiro256** PRNG. mmlib's default generator for weight initialization,
/// data augmentation, dropout masks, and synthetic dataset generation.
/// Fully deterministic given a seed — this is what makes model training
/// reproducible (paper Section 2.3, "Intentional Randomness").
class Rng {
 public:
  explicit Rng(uint64_t seed);

  /// Snapshots the generator mid-stream (checkpointing).
  RngState SaveState() const;

  /// Continues from a snapshot taken with SaveState.
  void RestoreState(const RngState& state);

  /// Returns the next 64 random bits.
  uint64_t NextU64();

  /// Returns a uniformly distributed integer in [0, bound). bound must be > 0.
  uint64_t NextBelow(uint64_t bound);

  /// Returns a float uniformly distributed in [0, 1).
  float NextFloat();

  /// Returns a double uniformly distributed in [0, 1).
  double NextDouble();

  /// Returns a float uniformly distributed in [lo, hi).
  float NextUniform(float lo, float hi);

  /// Returns a standard-normal sample (Box-Muller, deterministic).
  float NextGaussian();

  /// Fisher-Yates shuffles `indices` in place.
  void Shuffle(std::vector<size_t>* indices);

 private:
  uint64_t s_[4];
  bool have_cached_gaussian_ = false;
  float cached_gaussian_ = 0.0f;
};

}  // namespace mmlib

