#include "util/random.h"

#include <cmath>

namespace mmlib {

uint64_t SplitMix64::Next() {
  uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

namespace {
inline uint64_t Rotl(uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}
}  // namespace

Rng::Rng(uint64_t seed) {
  SplitMix64 sm(seed);
  for (auto& s : s_) {
    s = sm.Next();
  }
}

RngState Rng::SaveState() const {
  RngState state;
  for (int i = 0; i < 4; ++i) {
    state.s[i] = s_[i];
  }
  state.have_cached_gaussian = have_cached_gaussian_;
  state.cached_gaussian = cached_gaussian_;
  return state;
}

void Rng::RestoreState(const RngState& state) {
  for (int i = 0; i < 4; ++i) {
    s_[i] = state.s[i];
  }
  have_cached_gaussian_ = state.have_cached_gaussian;
  cached_gaussian_ = state.cached_gaussian;
}

uint64_t Rng::NextU64() {
  const uint64_t result = Rotl(s_[1] * 5, 7) * 9;
  const uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = Rotl(s_[3], 45);
  return result;
}

uint64_t Rng::NextBelow(uint64_t bound) {
  // Rejection sampling to avoid modulo bias; deterministic for a given state.
  const uint64_t threshold = (0 - bound) % bound;
  for (;;) {
    uint64_t r = NextU64();
    if (r >= threshold) {
      return r % bound;
    }
  }
}

float Rng::NextFloat() {
  return static_cast<float>(NextU64() >> 40) * (1.0f / 16777216.0f);
}

double Rng::NextDouble() {
  return static_cast<double>(NextU64() >> 11) *
         (1.0 / 9007199254740992.0);
}

float Rng::NextUniform(float lo, float hi) {
  return lo + (hi - lo) * NextFloat();
}

float Rng::NextGaussian() {
  if (have_cached_gaussian_) {
    have_cached_gaussian_ = false;
    return cached_gaussian_;
  }
  // Box-Muller transform; uses only deterministic libm functions.
  float u1 = NextFloat();
  float u2 = NextFloat();
  if (u1 < 1e-12f) {
    u1 = 1e-12f;
  }
  const float r = std::sqrt(-2.0f * std::log(u1));
  const float theta = 2.0f * 3.14159265358979323846f * u2;
  cached_gaussian_ = r * std::sin(theta);
  have_cached_gaussian_ = true;
  return r * std::cos(theta);
}

void Rng::Shuffle(std::vector<size_t>* indices) {
  if (indices->empty()) {
    return;
  }
  for (size_t i = indices->size() - 1; i > 0; --i) {
    size_t j = NextBelow(i + 1);
    std::swap((*indices)[i], (*indices)[j]);
  }
}

}  // namespace mmlib
