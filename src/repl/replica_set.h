#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "docstore/document_store.h"
#include "filestore/file_store.h"
#include "hash/merkle_tree.h"
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

  ReplicaCounters& operator+=(const ReplicaCounters& other) {
    read_fallbacks += other.read_fallbacks;
    read_repairs += other.read_repairs;
    write_skips += other.write_skips;
    scrub_repairs += other.scrub_repairs;
    return *this;
  }
};

/// The replica-set coordinator behind ReplicatedFileStore and
/// ReplicatedDocumentStore. Callers use those two classes; this namespace
/// is private to src/repl/.
namespace internal {

/// Verdict on a served copy whose digest missed the directory's.
enum class Recheck {
  kDivergedAtRest,   // the stored copy itself diverges: read-repair it
  kDamagedInFlight,  // stored copy fine, but no clean copy came back
  kRefetched,        // a clean copy was re-fetched into the payload
};

/// Kind adapters: everything that differs between the two stores. Every
/// call takes the store's base interface, so the same adapter drives a
/// replica's transport (quorum paths) and its backend (the scrubber).
struct FileKind {
  using Store = filestore::FileStore;
  using Transport = filestore::RemoteFileStore;
  using Payload = Bytes;
  static constexpr uint64_t kIdSeed = 0x4ef11e;
  static constexpr const char* kNoun = "file";

  static Status Write(Store* store, const std::string& key,
                      const Payload& payload) {
    return store->WriteAllocated(key, payload);
  }
  static Result<Payload> Read(Store* store, const std::string& key) {
    return store->LoadFile(key);
  }
  static Status Remove(Store* store, const std::string& key) {
    return store->Delete(key);
  }
  static Result<Digest> Probe(Store* store, const std::string& key) {
    return store->ContentDigest(key);
  }
  static Digest DigestOf(const Payload& payload) {
    return Sha256::Hash(payload);
  }
  static Digest StoredDigest(const std::string& /*key*/,
                             const Payload& payload) {
    return Sha256::Hash(payload);
  }
  static uint64_t WireBytes(const Payload& payload) { return payload.size(); }
  static Result<std::vector<KeyedDigest>> Inventory(Store* backend);
  /// File payloads can be damaged in flight: asks the replica to hash its
  /// stored copy and, when that copy is good, re-fetches once.
  static Recheck RecheckServed(Store* replica, const std::string& key,
                               const Digest& expected, Payload* payload);
};

/// Documents are keyed "collection/id" (collection names hold no '/').
struct DocKind {
  using Store = docstore::DocumentStore;
  using Transport = docstore::RemoteDocumentStore;
  using Payload = json::Value;
  static constexpr uint64_t kIdSeed = 0x4ed0c5;
  static constexpr const char* kNoun = "document";

  static std::string Key(const std::string& collection,
                         const std::string& id) {
    return collection + "/" + id;
  }
  static std::pair<std::string, std::string> Split(const std::string& key) {
    const size_t slash = key.find('/');
    if (slash == std::string::npos) {
      return {key, ""};
    }
    return {key.substr(0, slash), key.substr(slash + 1)};
  }

  static Status Write(Store* store, const std::string& key,
                      const Payload& payload) {
    const auto [collection, id] = Split(key);
    return store->InsertWithId(collection, id, payload);
  }
  static Result<Payload> Read(Store* store, const std::string& key) {
    const auto [collection, id] = Split(key);
    return store->Get(collection, id);
  }
  static Status Remove(Store* store, const std::string& key) {
    const auto [collection, id] = Split(key);
    return store->Delete(collection, id);
  }
  static Result<Digest> Probe(Store* store, const std::string& key) {
    const auto [collection, id] = Split(key);
    return store->DocumentDigest(collection, id);
  }
  static Digest DigestOf(const Payload& payload) {
    return Sha256::Hash(payload.Dump());
  }
  /// The stored form carries "_id"; digest what the replicas actually hold.
  static Digest StoredDigest(const std::string& key, const Payload& payload) {
    json::Value stored = payload;
    stored.Set("_id", Split(key).second);
    return DigestOf(stored);
  }
  static uint64_t WireBytes(const Payload& payload) {
    return payload.Dump().size();
  }
  static Result<std::vector<KeyedDigest>> Inventory(Store* backend);
  /// Remote document responses are rejected when damaged in flight, so a
  /// digest mismatch is always at-rest divergence; no message is sent.
  static Recheck RecheckServed(Store*, const std::string&, const Digest&,
                               Payload*) {
    return Recheck::kDivergedAtRest;
  }
};

/// R replicas of one store kind behind one set of quorum rules; the two
/// replicated stores inherit it privately and re-export its accessors.
/// Writes go to every reachable replica and commit at the write quorum —
/// below it they roll back and fail Unavailable, fast, via a reachability
/// precheck instead of burning the full retry ladder per replica. Reads try
/// a preferred replica (a pure function of the key, so load spreads
/// deterministically), verify the payload against the digest recorded at
/// write time, fall back on Unavailable/damage, and rewrite stale-or-damaged
/// copies in passing (read-repair). Ids are minted here, never by a replica,
/// so every replica stores each entry under the same id and the id sequence
/// is identical however many replicas are reachable.
template <typename Kind>
class ReplicaSet {
 public:
  using Transport = typename Kind::Transport;
  using Payload = typename Kind::Payload;

  /// Validates the transports and resolves the quorum sizes.
  static Result<std::pair<size_t, size_t>> ResolveQuorums(
      const std::vector<Transport*>& replicas, const QuorumConfig& config);

  ReplicaSet(std::vector<Transport*> replicas, simnet::Network* network,
             std::pair<size_t, size_t> quorums)
      : replicas_(std::move(replicas)),
        network_(network),
        write_quorum_(quorums.first),
        read_quorum_(quorums.second),
        id_generator_(Kind::kIdSeed),
        counters_(replicas_.size()) {}

  size_t replica_count() const { return replicas_.size(); }
  size_t write_quorum() const { return write_quorum_; }
  size_t read_quorum() const { return read_quorum_; }
  Transport* transport(size_t replica) const { return replicas_[replica]; }
  simnet::Network* network() const { return network_; }
  const ReplicaCounters& replica_counters(size_t replica) const {
    return counters_[replica];
  }
  ReplicaCounters& counters(size_t replica) { return counters_[replica]; }

  /// Physical bytes across all replica backends (logical × replication,
  /// minus whatever staleness the scrubber has not healed yet).
  size_t PhysicalStoredBytes() const {
    return SumOver(&Transport::TotalStoredBytes);
  }
  /// Transport-level retries summed across the replica clients.
  uint64_t TransportRetryCount() const {
    return SumOver(&Transport::retry_count);
  }
  /// `stat` of the most complete replica: logical sizes and counts, so
  /// replication does not multiply the paper's storage numbers.
  template <typename Stat>
  size_t MaxOver(Stat stat) const {
    size_t best = 0;
    for (const Transport* replica : replicas_) {
      best = std::max<size_t>(best, std::invoke(stat, replica));
    }
    return best;
  }

  /// Minted locally, before any replica is contacted.
  std::string NextId(const std::string& prefix) {
    return id_generator_.Next(prefix);
  }

  /// Read order: rotation starting at the key's preferred replica (a stable
  /// hash of the key), with the currently suspected replica (ReportDamaged)
  /// moved to the back.
  std::vector<size_t> ReadOrder(const std::string& key) const;
  /// Replica indices 0..N-1.
  std::vector<size_t> IndexOrder() const;

  /// Quorum write with rollback below quorum.
  Status Write(const std::string& key, const Payload& payload);
  /// Quorum read with fall-through, read-repair and digest probes.
  Result<Payload> Read(const std::string& key);
  /// Quorum delete; records a tombstone for the scrubber.
  Status Remove(const std::string& key);
  /// Committed digest from the directory, else the first replica's answer.
  Result<Digest> CommittedDigest(const std::string& key);
  /// The caller's end-to-end check rejected the last read's payload.
  void ReportDamaged(const std::string& key);

  /// First successful `call(replica)` over `order`, else the last error.
  template <typename Call>
  auto FirstSuccess(const std::vector<size_t>& order, Status last_error,
                    Call call) -> decltype(call(size_t{})) {
    network_->ApplyDueReplicaEvents();
    for (const size_t r : order) {
      auto result = call(r);
      if (result.ok()) {
        return result;
      }
      last_error = result.status();
    }
    return last_error;
  }

  /// --- Scrubber interface. ---
  /// Digest recorded for `key` at write time; nullptr when unknown.
  const Digest* FindExpectedDigest(const std::string& key) const {
    const auto it = directory_.find(key);
    return it != directory_.end() ? &it->second : nullptr;
  }
  /// True when `key` was deleted at quorum; a straggler copy resurfacing on
  /// a stale replica must be re-deleted, not re-spread.
  bool IsTombstoned(const std::string& key) const {
    return tombstones_.count(key) != 0;
  }
  void RecordScrubRepair(size_t replica) {
    ++counters_[replica].scrub_repairs;
  }

 private:
  template <typename Stat>
  uint64_t SumOver(Stat stat) const {
    uint64_t total = 0;
    for (const Transport* replica : replicas_) {
      total += std::invoke(stat, replica);
    }
    return total;
  }

  /// Unavailable unless `quorum` replicas are reachable: with the quorum
  /// provably unreachable, per-replica retry ladders cannot succeed.
  Status CheckReachable(size_t quorum, const char* what) const;

  std::vector<Transport*> replicas_;
  simnet::Network* network_;
  size_t write_quorum_;
  size_t read_quorum_;
  IdGenerator id_generator_;
  std::vector<ReplicaCounters> counters_;
  /// key -> digest of the committed content, recorded at write time; the
  /// read path verifies served payloads against it.
  std::map<std::string, Digest> directory_;
  /// Keys whose digest was adopted from a first read rather than a write;
  /// dropped again if the caller's integrity check rejects that payload.
  std::set<std::string> adopted_;
  std::set<std::string> tombstones_;
  /// key -> replica that served the most recent successful read.
  std::map<std::string, size_t> last_served_;
  /// key -> replica to try last next time (its payload failed the caller's
  /// end-to-end check).
  std::map<std::string, size_t> suspects_;
};

extern template class ReplicaSet<FileKind>;
extern template class ReplicaSet<DocKind>;

}  // namespace internal
}  // namespace mmlib::repl
