#include "serve/stats.h"

#include <cmath>

#include "hash/sha256.h"

namespace mmlib::serve {
namespace {

/// Upper bound of bucket `i`: kFirstBucketSeconds * kGrowth^i. Computed by
/// repeated multiplication so every caller sees the identical sequence.
double BucketUpper(size_t i) {
  double upper = LatencyHistogram::kFirstBucketSeconds;
  for (size_t k = 0; k < i; ++k) {
    upper *= LatencyHistogram::kGrowth;
  }
  return upper;
}

void HashU64(Sha256& hasher, uint64_t value) {
  uint8_t bytes[8];
  for (int i = 0; i < 8; ++i) {
    bytes[i] = static_cast<uint8_t>(value >> (8 * i));
  }
  hasher.Update(bytes, sizeof(bytes));
}

}  // namespace

void LatencyHistogram::Record(double seconds) {
  size_t i = 0;
  double upper = kFirstBucketSeconds;
  while (i + 1 < kBuckets && seconds > upper) {
    upper *= kGrowth;
    ++i;
  }
  ++buckets_[i];
  ++total_;
}

double LatencyHistogram::Quantile(double q) const {
  if (total_ == 0) {
    return 0.0;
  }
  if (q < 0.0) {
    q = 0.0;
  }
  if (q > 1.0) {
    q = 1.0;
  }
  // Rank of the q-th sample, 1-based, rounded up (the "nearest rank"
  // definition — integer arithmetic only).
  uint64_t rank = static_cast<uint64_t>(std::ceil(q * total_));
  if (rank == 0) {
    rank = 1;
  }
  uint64_t seen = 0;
  for (size_t i = 0; i < kBuckets; ++i) {
    seen += buckets_[i];
    if (seen >= rank) {
      return BucketUpper(i);
    }
  }
  return BucketUpper(kBuckets - 1);
}

std::string ServeReport::Digest() const {
  Sha256 hasher;
  HashU64(hasher, counters.arrivals);
  HashU64(hasher, counters.admitted);
  for (const uint64_t o : counters.outcomes) {
    HashU64(hasher, o);
  }
  HashU64(hasher, counters.shed_queue_full);
  HashU64(hasher, counters.expired_in_queue);
  HashU64(hasher, counters.batched);
  HashU64(hasher, counters.batches_flushed);
  HashU64(hasher, counters.breaker_trips);
  HashU64(hasher, counters.breaker_probes);
  HashU64(hasher, counters.breaker_recoveries);
  HashU64(hasher, counters.breaker_fast_rejects);
  HashU64(hasher, counters.hedged_reads);
  HashU64(hasher, counters.hedge_wins);
  HashU64(hasher, counters.backend_failures);
  HashU64(hasher, latency.total_count());
  for (size_t i = 0; i < LatencyHistogram::kBuckets; ++i) {
    HashU64(hasher, latency.bucket(i));
  }
  return hasher.Finish().ToHex();
}

}  // namespace mmlib::serve
