#pragma once

#include <array>
#include <cstdint>
#include <string>

#include "serve/request.h"

namespace mmlib::serve {

/// Log-bucketed latency histogram on the virtual clock. Buckets grow
/// geometrically from 0.1 ms, so p50/p99 come out with bounded relative
/// error at any scale and the bucket layout is identical on every platform
/// (no floating-point accumulation order involved: recording is an integer
/// increment). The histogram is part of the run digest, so two runs agree
/// bit-for-bit exactly when every request landed in the same bucket.
class LatencyHistogram {
 public:
  static constexpr size_t kBuckets = 64;
  static constexpr double kFirstBucketSeconds = 1e-4;
  static constexpr double kGrowth = 1.3;

  void Record(double seconds);

  uint64_t total_count() const { return total_; }
  uint64_t bucket(size_t i) const { return buckets_[i]; }

  /// Latency at quantile `q` in [0, 1]: the upper bound of the bucket the
  /// q-th sample falls in (0 when empty). Deterministic by construction.
  double Quantile(double q) const;

 private:
  std::array<uint64_t, kBuckets> buckets_{};
  uint64_t total_ = 0;
};

/// Robustness counters of one serving run; every knob the overload
/// machinery turns shows up here, and the whole struct feeds the run
/// digest.
struct ServeCounters {
  uint64_t arrivals = 0;
  uint64_t admitted = 0;
  /// Outcome histogram, indexed by RequestOutcome.
  std::array<uint64_t, kRequestOutcomeCount> outcomes{};
  /// Sheds because the tenant's queue was full.
  uint64_t shed_queue_full = 0;
  /// Requests whose deadline expired while still queued (never dispatched).
  uint64_t expired_in_queue = 0;
  /// Inference requests served as part of a multi-request batch.
  uint64_t batched = 0;
  uint64_t batches_flushed = 0;
  /// Circuit-breaker lifecycle events across all backends.
  uint64_t breaker_trips = 0;
  uint64_t breaker_probes = 0;
  uint64_t breaker_recoveries = 0;
  uint64_t breaker_fast_rejects = 0;
  /// Hedged-read traffic (repl::ReplicatedFileStore::LoadFileHedged).
  uint64_t hedged_reads = 0;
  uint64_t hedge_wins = 0;
  /// Backend retries / request-deadline abandons observed via simnet.
  uint64_t backend_failures = 0;

  uint64_t served() const {
    return outcomes[static_cast<size_t>(RequestOutcome::kServed)];
  }
  uint64_t shed() const {
    return outcomes[static_cast<size_t>(RequestOutcome::kShed)];
  }
};

/// Result of one serving run: counters, latency distribution of served
/// requests, goodput, and a SHA-256 digest over all of it. The digest is
/// the bit-identity witness: two runs of the same seeded scenario must
/// produce byte-identical digests, degraded or not.
struct ServeReport {
  ServeCounters counters;
  LatencyHistogram latency;
  /// Virtual time the run covered.
  double horizon_seconds = 0.0;
  /// Served requests per virtual second.
  double goodput_rps = 0.0;

  /// Hex SHA-256 over the counters, outcome histogram, and every latency
  /// bucket, serialized in a fixed integer order.
  std::string Digest() const;
};

}  // namespace mmlib::serve
