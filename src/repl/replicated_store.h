#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "docstore/document_store.h"
#include "filestore/file_store.h"
#include "hash/sha256.h"
#include "simnet/network.h"
#include "util/id_generator.h"

namespace mmlib::repl {

/// Quorum sizes of an R-way replicated store. With N replicas, a write
/// commits once `write_quorum` replicas acknowledge it and a read returns
/// once `read_quorum` replicas confirm the value (served bytes plus digest
/// acks). W + R > N gives read-your-writes through any single failure; the
/// default 0 resolves to a majority (N/2 + 1) on both sides.
struct QuorumConfig {
  size_t write_quorum = 0;
  size_t read_quorum = 0;

  static size_t Majority(size_t replica_count) {
    return replica_count / 2 + 1;
  }
  size_t ResolvedWrite(size_t replica_count) const {
    return write_quorum == 0 ? Majority(replica_count) : write_quorum;
  }
  size_t ResolvedRead(size_t replica_count) const {
    return read_quorum == 0 ? Majority(replica_count) : read_quorum;
  }
};

/// Degraded-mode accounting for one replica; FlowResult reports these so an
/// experiment can attribute exactly which replicas a flow leaned on.
struct ReplicaCounters {
  /// Read attempts this replica failed or served damaged/stale bytes for,
  /// making the read fall through to another replica.
  uint64_t read_fallbacks = 0;
  /// Stale-or-damaged copies on this replica rewritten during a read.
  uint64_t read_repairs = 0;
  /// Writes committed at quorum that could not include this replica (down,
  /// partitioned, or transport gave up) — the staleness anti-entropy heals.
  uint64_t write_skips = 0;
  /// Divergent entries on this replica re-copied by the scrubber.
  uint64_t scrub_repairs = 0;
};

/// R-way replicated FileStore over the simulated network. Wraps one
/// RemoteFileStore per backend replica (each bound to its own simnet
/// replica node): writes go to every reachable replica and commit at the
/// write quorum — below it they roll back and fail Unavailable, fast, via
/// a reachability precheck instead of burning the full retry ladder per
/// replica. Reads try a preferred replica (a pure function of the id, so
/// load spreads deterministically), verify the payload against the digest
/// recorded at write time, fall back on Unavailable/damage, and rewrite
/// stale-or-damaged copies in passing (read-repair). Ids are minted by the
/// coordinator, never by a replica, so every replica stores each file under
/// the same id and the id sequence is identical however many replicas are
/// reachable.
class ReplicatedFileStore : public filestore::FileStore {
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

  /// Logical stored bytes / file count: the most complete replica's view,
  /// so replication does not multiply the paper's storage-consumption
  /// numbers (those measure the model store's logical footprint).
  size_t TotalStoredBytes() const override;
  size_t FileCount() const override;

  /// Physical bytes across all replica backends (logical × replication,
  /// minus whatever staleness the scrubber has not healed yet).
  size_t PhysicalStoredBytes() const;

  size_t replica_count() const { return replicas_.size(); }
  size_t write_quorum() const { return write_quorum_; }
  size_t read_quorum() const { return read_quorum_; }
  filestore::RemoteFileStore* transport(size_t replica) const {
    return replicas_[replica];
  }

  const ReplicaCounters& replica_counters(size_t replica) const {
    return counters_[replica];
  }
  /// Transport-level retries summed across the replica clients.
  uint64_t TransportRetryCount() const;
  /// Operations abandoned on the fail-fast deadline, summed likewise.
  uint64_t DeadlineExhaustedCount() const;

  /// --- Scrubber interface. ---
  /// Digest recorded for `id` at write time; nullptr when unknown.
  const Digest* FindExpectedDigest(const std::string& id) const;
  /// True when `id` was deleted at quorum; a straggler copy resurfacing on
  /// a stale replica must be re-deleted, not re-spread.
  bool IsTombstoned(const std::string& id) const {
    return tombstones_.count(id) != 0;
  }
  void RecordScrubRepair(size_t replica) {
    ++counters_[replica].scrub_repairs;
  }

 private:
  ReplicatedFileStore(std::vector<filestore::RemoteFileStore*> replicas,
                      simnet::Network* network, size_t write_quorum,
                      size_t read_quorum);

  /// Replica the first read attempt for `id` goes to — a stable hash of the
  /// id, so reads spread over replicas but repeat deterministically.
  size_t PreferredReplica(const std::string& id) const;
  /// Read order: rotation starting at the preferred replica, with the
  /// currently suspected replica (ReportDamaged) moved to the back.
  std::vector<size_t> ReadOrder(const std::string& id) const;
  size_t ReachableCount() const;
  Status QuorumWrite(const std::string& id, const Bytes& content);

  /// One hedged-path fetch attempt from `replica`: bytes that verified
  /// against the directory digest (when known), or an error. Reports the
  /// virtual-clock cost of the attempt in `*cost_seconds`.
  Result<Bytes> HedgeFetch(const std::string& id, size_t replica,
                           double* cost_seconds);

  std::vector<filestore::RemoteFileStore*> replicas_;
  simnet::Network* network_;
  size_t write_quorum_;
  size_t read_quorum_;
  IdGenerator id_generator_;
  std::vector<ReplicaCounters> counters_;
  uint64_t hedged_read_count_ = 0;
  uint64_t hedge_issued_count_ = 0;
  uint64_t hedge_win_count_ = 0;
  /// id -> digest of the committed content, recorded by the coordinator at
  /// write time; the read path verifies served bytes against it.
  std::map<std::string, Digest> directory_;
  /// Ids whose digest was adopted from a first read rather than a write;
  /// dropped again if the caller's integrity check rejects those bytes.
  std::set<std::string> adopted_;
  std::set<std::string> tombstones_;
  /// id -> replica that served the most recent successful read.
  std::map<std::string, size_t> last_served_;
  /// id -> replica to try last next time (its bytes failed the caller's
  /// end-to-end check).
  std::map<std::string, size_t> suspects_;
};

/// R-way replicated DocumentStore; the document-side twin of
/// ReplicatedFileStore (same quorum, read-repair, and id-minting rules).
/// Remote document responses are self-describing and rejected when damaged
/// in flight, so a digest mismatch on a served document always means
/// at-rest divergence — no in-flight disambiguation step is needed.
class ReplicatedDocumentStore : public docstore::DocumentStore {
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
  size_t PhysicalStoredBytes() const;

  size_t replica_count() const { return replicas_.size(); }
  size_t write_quorum() const { return write_quorum_; }
  size_t read_quorum() const { return read_quorum_; }
  docstore::RemoteDocumentStore* transport(size_t replica) const {
    return replicas_[replica];
  }

  const ReplicaCounters& replica_counters(size_t replica) const {
    return counters_[replica];
  }
  uint64_t TransportRetryCount() const;
  uint64_t DeadlineExhaustedCount() const;

  /// --- Scrubber interface. Keys are "collection/id". ---
  const Digest* FindExpectedDigest(const std::string& key) const;
  bool IsTombstoned(const std::string& key) const {
    return tombstones_.count(key) != 0;
  }
  void RecordScrubRepair(size_t replica) {
    ++counters_[replica].scrub_repairs;
  }

  static std::string KeyFor(const std::string& collection,
                            const std::string& id) {
    return collection + "/" + id;
  }

 private:
  ReplicatedDocumentStore(std::vector<docstore::RemoteDocumentStore*> replicas,
                          simnet::Network* network, size_t write_quorum,
                          size_t read_quorum);

  size_t PreferredReplica(const std::string& key) const;
  size_t ReachableCount() const;
  Status QuorumInsert(const std::string& collection, const std::string& id,
                      const json::Value& doc);

  std::vector<docstore::RemoteDocumentStore*> replicas_;
  simnet::Network* network_;
  size_t write_quorum_;
  size_t read_quorum_;
  IdGenerator id_generator_;
  std::vector<ReplicaCounters> counters_;
  std::map<std::string, Digest> directory_;
  std::set<std::string> tombstones_;
};

}  // namespace mmlib::repl
