#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "repl/replica_set.h"

namespace mmlib::repl {

/// R-way replicated FileStore over the simulated network: one
/// RemoteFileStore per backend replica (each bound to its own simnet replica
/// node) behind the quorum rules of internal::ReplicaSet. File-only on top:
/// the in-flight damage re-check, hedged reads, and ReportDamaged.
class ReplicatedFileStore
    : public filestore::FileStore,
      private internal::ReplicaSet<internal::FileKind> {
 public:
  /// `replicas` are borrowed; each should be bound to its simnet replica
  /// node (RemoteFileStore::BindReplica). At least one replica is required;
  /// quorums are validated against the replica count.
  static Result<std::unique_ptr<ReplicatedFileStore>> Create(
      std::vector<filestore::RemoteFileStore*> replicas,
      simnet::Network* network, const QuorumConfig& config = {});

  Result<std::string> SaveFile(const Bytes& content) override;
  Result<std::string> AllocateFileId() override;
  Status WriteAllocated(const std::string& id, const Bytes& content) override;
  Result<Bytes> LoadFile(const std::string& id) override;

  /// Tail-tolerant read for the serving front end: fetches `id` from the
  /// preferred replica and, when that fetch fails, serves damaged bytes, or
  /// costs more virtual time than `threshold_seconds`, issues a hedge
  /// fetch to the next replica in the read order and serves whichever
  /// verified copy was cheaper. Both fetches are charged to the virtual
  /// clock — hedging trades backend work for tail latency, and the
  /// accounting must show that. Falls back to the full quorum LoadFile path
  /// (read-repair and all) when neither copy verifies. A threshold <= 0
  /// hedges only on failure.
  Result<Bytes> LoadFileHedged(const std::string& id,
                               double threshold_seconds);

  /// LoadFileHedged calls, hedge fetches actually issued, and hedges whose
  /// copy was the one served (primary failed or was slower).
  uint64_t hedged_read_count() const { return hedged_read_count_; }
  uint64_t hedge_issued_count() const { return hedge_issued_count_; }
  uint64_t hedge_win_count() const { return hedge_win_count_; }

  Status Delete(const std::string& id) override;
  Result<size_t> FileSize(const std::string& id) override;
  Result<std::vector<std::string>> ListFileIds() override;
  Result<Digest> ContentDigest(const std::string& id) override;
  void ReportDamaged(const std::string& id) override;

  /// Logical stored bytes / file count: the most complete replica's view.
  size_t TotalStoredBytes() const override;
  size_t FileCount() const override;

  /// Replica-set accessors and the scrubber's read-only probes (see
  /// ReplicaSet). The Scrubber, a friend, records its repairs on the set.
  using ReplicaSet::replica_count, ReplicaSet::write_quorum,
      ReplicaSet::read_quorum, ReplicaSet::transport,
      ReplicaSet::replica_counters, ReplicaSet::PhysicalStoredBytes,
      ReplicaSet::TransportRetryCount, ReplicaSet::FindExpectedDigest,
      ReplicaSet::IsTombstoned;

 private:
  friend class Scrubber;

  ReplicatedFileStore(std::vector<filestore::RemoteFileStore*> replicas,
                      simnet::Network* network,
                      std::pair<size_t, size_t> quorums)
      : ReplicaSet(std::move(replicas), network, quorums) {}

  /// One hedged-path fetch attempt from `replica`: bytes that verified
  /// against the directory digest (when known), or an error. Reports the
  /// virtual-clock cost of the attempt in `*cost_seconds`.
  Result<Bytes> HedgeFetch(const std::string& id, size_t replica,
                           double* cost_seconds);

  uint64_t hedged_read_count_ = 0;
  uint64_t hedge_issued_count_ = 0;
  uint64_t hedge_win_count_ = 0;
};

/// R-way replicated DocumentStore: the same quorum, read-repair and
/// id-minting rules as ReplicatedFileStore, over one RemoteDocumentStore
/// per replica. Remote document responses are self-describing and rejected
/// when damaged in flight, so a digest mismatch on a served document always
/// means at-rest divergence. Scrubber-interface keys are "collection/id".
class ReplicatedDocumentStore
    : public docstore::DocumentStore,
      private internal::ReplicaSet<internal::DocKind> {
 public:
  static Result<std::unique_ptr<ReplicatedDocumentStore>> Create(
      std::vector<docstore::RemoteDocumentStore*> replicas,
      simnet::Network* network, const QuorumConfig& config = {});

  Result<std::string> Insert(const std::string& collection,
                             json::Value doc) override;
  Result<std::string> AllocateDocId(const std::string& collection) override;
  Status InsertWithId(const std::string& collection, const std::string& id,
                      json::Value doc) override;
  Result<json::Value> Get(const std::string& collection,
                          const std::string& id) override;
  Status Delete(const std::string& collection, const std::string& id) override;
  Result<std::vector<std::string>> ListIds(
      const std::string& collection) override;
  Result<std::vector<std::string>> ListCollections() override;
  Result<Digest> DocumentDigest(const std::string& collection,
                                const std::string& id) override;
  size_t TotalStoredBytes() const override;
  size_t DocumentCount() const override;

  /// Replica-set accessors and the scrubber's read-only probes (see
  /// ReplicaSet). The Scrubber, a friend, records its repairs on the set.
  using ReplicaSet::replica_count, ReplicaSet::write_quorum,
      ReplicaSet::read_quorum, ReplicaSet::transport,
      ReplicaSet::replica_counters, ReplicaSet::PhysicalStoredBytes,
      ReplicaSet::TransportRetryCount, ReplicaSet::FindExpectedDigest,
      ReplicaSet::IsTombstoned;

  static std::string KeyFor(const std::string& collection,
                            const std::string& id) {
    return internal::DocKind::Key(collection, id);
  }

 private:
  friend class Scrubber;

  ReplicatedDocumentStore(std::vector<docstore::RemoteDocumentStore*> replicas,
                          simnet::Network* network,
                          std::pair<size_t, size_t> quorums)
      : ReplicaSet(std::move(replicas), network, quorums) {}
};

}  // namespace mmlib::repl
