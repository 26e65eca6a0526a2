#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile: the smallest sample such that at least `p`
/// percent of the samples are less than or equal to it (rank
/// ceil(p/100 * n), 1-based). Always returns one of the samples, so a
/// deterministic population yields an exact value. `p` in (0, 100];
/// returns 0 for an empty population.
inline double NearestRank(std::vector<double> values, double p) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double exact = p / 100.0 * static_cast<double>(values.size());
  size_t rank = static_cast<size_t>(std::ceil(exact));
  rank = std::clamp<size_t>(rank, 1, values.size());
  return values[rank - 1];
}

/// Number of samples strictly above the nearest-rank `p`-th percentile's
/// rank: how many observations the percentile rests on beyond itself.
inline size_t SamplesBeyond(size_t n, double p) {
  if (n == 0) {
    return 0;
  }
  size_t rank = static_cast<size_t>(
      std::ceil(p / 100.0 * static_cast<double>(n)));
  rank = std::clamp<size_t>(rank, 1, n);
  return n - rank;
}

/// Smallest population whose nearest-rank `p`-th percentile has at least
/// `beyond` samples above it.
inline size_t MinSamplesFor(double p, size_t beyond) {
  size_t n = beyond + 1;
  while (SamplesBeyond(n, p) < beyond) {
    ++n;
  }
  return n;
}

}  // namespace perfbench
