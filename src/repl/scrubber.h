#pragma once

#include <cstdint>

#include "repl/replicated_store.h"
#include "simnet/network.h"

namespace mmlib::repl {

/// One anti-entropy pass over a replicated store pair's inventories.
struct ScrubReport {
  /// Pairwise sessions attempted (reachable pairs only).
  uint64_t sessions = 0;
  /// Sessions whose root digests already matched — the common case, and
  /// the reason anti-entropy is cheap: one 32-byte message each way.
  uint64_t root_matches = 0;
  /// Merkle node comparisons performed while descending mismatched trees.
  uint64_t bucket_comparisons = 0;
  /// Entries re-copied (or re-deleted) to heal divergence.
  uint64_t repaired_files = 0;
  uint64_t repaired_documents = 0;
  /// Divergent entries with no authority to decide (no recorded digest, no
  /// majority); left alone for a later pass or a quorum write to settle.
  uint64_t unresolved = 0;
  /// True when, after repairs, every replica pair holds identical file and
  /// document trees (only attainable while all replicas are reachable).
  bool converged = false;

  /// Adds a later pass's counts; `converged` becomes that pass's verdict.
  ScrubReport& operator+=(const ScrubReport& pass) {
    sessions += pass.sessions;
    root_matches += pass.root_matches;
    bucket_comparisons += pass.bucket_comparisons;
    repaired_files += pass.repaired_files;
    repaired_documents += pass.repaired_documents;
    unresolved += pass.unresolved;
    converged = pass.converged;
    return *this;
  }
};

/// Merkle-tree anti-entropy between replica pairs, run on the virtual
/// clock. Each replica builds a bucket tree over its inventory *locally*
/// (hashing where the bytes live costs no network); a session then
/// exchanges root digests, descends only into mismatched subtrees, and
/// re-copies divergent entries — so bit-rot injected on one replica heals
/// in O(log buckets) messages plus the damaged bytes, without any read
/// having to observe it (paper Section 3.2's diff trick, turned into
/// Cassandra-style replica repair).
///
/// Repair authority, per divergent key: a tombstone on the coordinator
/// deletes straggler copies; a digest recorded at write time names the
/// good replica; otherwise the majority of replicas decides; otherwise the
/// entry is left unresolved. All replica mutation stays inside this class
/// and the quorum writer (`no-direct-replica-write` lint rule).
class Scrubber {
 public:
  /// Either store may be null (scrub files only / documents only).
  /// Pointers are borrowed; both stores must share `network`.
  Scrubber(ReplicatedFileStore* files, ReplicatedDocumentStore* docs,
           simnet::Network* network)
      : files_(files), docs_(docs), network_(network) {}

  /// Runs one full pass: every reachable replica pair, files then
  /// documents. Deterministic: pairs in index order, keys in sorted order.
  Result<ScrubReport> ScrubOnce();

  /// Totals accumulated over all ScrubOnce calls.
  const ScrubReport& lifetime() const { return lifetime_; }

 private:
  bool CheckConverged() const;

  ReplicatedFileStore* files_;
  ReplicatedDocumentStore* docs_;
  simnet::Network* network_;
  ScrubReport lifetime_;
};

}  // namespace mmlib::repl
