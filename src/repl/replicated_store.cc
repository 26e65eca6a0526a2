#include "repl/replicated_store.h"

#include <algorithm>

namespace mmlib::repl {

namespace {

/// Validates quorum sizes against the replica count and resolves majority
/// defaults. Shared by both store factories.
Result<std::pair<size_t, size_t>> ResolveQuorums(size_t replica_count,
                                                 const QuorumConfig& config) {
  if (replica_count == 0) {
    return Status::InvalidArgument("replicated store requires >= 1 replica");
  }
  const size_t w = config.ResolvedWrite(replica_count);
  const size_t r = config.ResolvedRead(replica_count);
  if (w < 1 || w > replica_count || r < 1 || r > replica_count) {
    return Status::InvalidArgument(
        "quorums must lie in [1, replica count]: W=" + std::to_string(w) +
        " R=" + std::to_string(r) + " N=" + std::to_string(replica_count));
  }
  return std::make_pair(w, r);
}

}  // namespace

ReplicatedFileStore::ReplicatedFileStore(
    std::vector<filestore::RemoteFileStore*> replicas,
    simnet::Network* network, size_t write_quorum, size_t read_quorum)
    : replicas_(std::move(replicas)),
      network_(network),
      write_quorum_(write_quorum),
      read_quorum_(read_quorum),
      id_generator_(0x4ef11e),
      counters_(replicas_.size()) {}

Result<std::unique_ptr<ReplicatedFileStore>> ReplicatedFileStore::Create(
    std::vector<filestore::RemoteFileStore*> replicas,
    simnet::Network* network, const QuorumConfig& config) {
  for (const filestore::RemoteFileStore* replica : replicas) {
    if (replica == nullptr) {
      return Status::InvalidArgument("null replica transport");
    }
  }
  MMLIB_ASSIGN_OR_RETURN(auto quorums,
                         ResolveQuorums(replicas.size(), config));
  return std::unique_ptr<ReplicatedFileStore>(new ReplicatedFileStore(
      std::move(replicas), network, quorums.first, quorums.second));
}

size_t ReplicatedFileStore::PreferredReplica(const std::string& id) const {
  return Crc32(reinterpret_cast<const uint8_t*>(id.data()), id.size()) %
         replicas_.size();
}

std::vector<size_t> ReplicatedFileStore::ReadOrder(
    const std::string& id) const {
  const size_t n = replicas_.size();
  std::vector<size_t> order;
  order.reserve(n);
  const size_t start = PreferredReplica(id);
  for (size_t i = 0; i < n; ++i) {
    order.push_back((start + i) % n);
  }
  const auto suspect = suspects_.find(id);
  if (suspect != suspects_.end() && n > 1) {
    auto it = std::find(order.begin(), order.end(), suspect->second);
    if (it != order.end()) {
      order.erase(it);
      order.push_back(suspect->second);
    }
  }
  return order;
}

size_t ReplicatedFileStore::ReachableCount() const {
  size_t reachable = 0;
  for (size_t r = 0; r < replicas_.size(); ++r) {
    if (network_->IsReplicaReachable(r)) {
      ++reachable;
    }
  }
  return reachable;
}

Result<std::string> ReplicatedFileStore::SaveFile(const Bytes& content) {
  MMLIB_ASSIGN_OR_RETURN(std::string id, AllocateFileId());
  MMLIB_RETURN_IF_ERROR(WriteAllocated(id, content));
  return id;
}

Result<std::string> ReplicatedFileStore::AllocateFileId() {
  // The coordinator mints ids locally — before any replica is contacted —
  // so every replica stores a file under the same id and the sequence is
  // identical whether zero or N-1 replicas are unreachable.
  return id_generator_.Next("file");
}

Status ReplicatedFileStore::WriteAllocated(const std::string& id,
                                           const Bytes& content) {
  return QuorumWrite(id, content);
}

Status ReplicatedFileStore::QuorumWrite(const std::string& id,
                                        const Bytes& content) {
  network_->ApplyDueReplicaEvents();
  if (ReachableCount() < write_quorum_) {
    // Fail fast: with the quorum provably unreachable, per-replica retry
    // ladders cannot succeed — don't burn their full backoff budget.
    return Status::Unavailable(
        "write quorum unreachable: " + std::to_string(ReachableCount()) +
        " of " + std::to_string(replicas_.size()) + " replicas, need " +
        std::to_string(write_quorum_));
  }
  std::vector<size_t> acked;
  for (size_t r = 0; r < replicas_.size(); ++r) {
    if (!network_->IsReplicaReachable(r)) {
      ++counters_[r].write_skips;
      continue;
    }
    const Status status = replicas_[r]->WriteAllocated(id, content);
    if (status.ok()) {
      acked.push_back(r);
    } else if (simnet::IsRetryable(status)) {
      // Transport gave up on this replica; the quorum decides below and
      // anti-entropy re-copies the miss.
      ++counters_[r].write_skips;
    } else {
      // A structural error (invalid id, IO failure) would repeat on every
      // replica; roll back and surface it.
      for (size_t a : acked) {
        (void)replicas_[a]->Delete(id);
      }
      return status;
    }
  }
  if (acked.size() < write_quorum_) {
    // Below quorum nothing may stay visible — a later read quorum could
    // otherwise observe a write the coordinator reported as failed.
    for (size_t a : acked) {
      (void)replicas_[a]->Delete(id);
    }
    return Status::Unavailable(
        "write quorum not met for " + id + ": " +
        std::to_string(acked.size()) + " acks, need " +
        std::to_string(write_quorum_));
  }
  directory_[id] = Sha256::Hash(content);
  adopted_.erase(id);
  tombstones_.erase(id);
  return Status::OK();
}

Result<Bytes> ReplicatedFileStore::LoadFile(const std::string& id) {
  network_->ApplyDueReplicaEvents();
  if (ReachableCount() < read_quorum_) {
    return Status::Unavailable(
        "read quorum unreachable: " + std::to_string(ReachableCount()) +
        " of " + std::to_string(replicas_.size()) + " replicas, need " +
        std::to_string(read_quorum_));
  }
  const auto expected_it = directory_.find(id);
  const Digest* expected =
      expected_it != directory_.end() ? &expected_it->second : nullptr;
  Status last_error = Status::Unavailable("no replica reachable for " + id);
  size_t not_found = 0;
  size_t attempts = 0;
  std::vector<size_t> stale;  // at-rest damaged/stale copies seen on the way
  const std::vector<size_t> order = ReadOrder(id);
  for (const size_t r : order) {
    ++attempts;
    auto loaded = replicas_[r]->LoadFile(id);
    if (!loaded.ok()) {
      last_error = loaded.status();
      if (last_error.code() == StatusCode::kNotFound) {
        ++not_found;
      }
      ++counters_[r].read_fallbacks;
      continue;
    }
    Bytes bytes = std::move(loaded).value();
    Digest digest = Sha256::Hash(bytes);
    if (expected != nullptr && digest != *expected) {
      // Damaged in flight or damaged at rest? Ask the replica to hash its
      // stored copy: a matching server-side digest means the copy is fine
      // and the wire did it — re-fetch once from the same replica.
      auto server_digest = replicas_[r]->ContentDigest(id);
      if (server_digest.ok() && server_digest.value() == *expected) {
        auto again = replicas_[r]->LoadFile(id);
        if (again.ok() &&
            Sha256::Hash(again.value()) == *expected) {
          bytes = std::move(again).value();
          digest = *expected;
        } else {
          ++counters_[r].read_fallbacks;
          last_error = Status::Unavailable("replica " + std::to_string(r) +
                                           " served damaged bytes");
          continue;
        }
      } else {
        // The stored copy itself diverges: stale pre-crash data or bit-rot.
        // Remember it for read-repair once a good copy is in hand.
        stale.push_back(r);
        ++counters_[r].read_fallbacks;
        last_error = Status::Unavailable("replica " + std::to_string(r) +
                                         " holds divergent bytes");
        continue;
      }
    }
    if (expected == nullptr) {
      // First contact with an id written by an earlier store instance:
      // adopt the digest, provisionally — the caller's end-to-end check
      // (ReportDamaged) revokes it if these bytes turn out damaged.
      directory_[id] = digest;
      adopted_.insert(id);
    }
    // Read-repair the divergent copies found on the way here.
    for (const size_t s : stale) {
      if (replicas_[s]->WriteAllocated(id, bytes).ok()) {
        ++counters_[s].read_repairs;
      }
    }
    // Read quorum: the serving replica counts once, every repaired replica
    // acknowledged the correct bytes, and the rest confirm by digest.
    size_t acks = 1 + stale.size();
    for (size_t i = attempts; i < replicas_.size() && acks < read_quorum_;
         ++i) {
      const size_t peer = order[i];
      auto peer_digest = replicas_[peer]->ContentDigest(id);
      if (peer_digest.ok() && peer_digest.value() == digest) {
        ++acks;
      } else if (peer_digest.ok() || peer_digest.status().code() ==
                                         StatusCode::kNotFound) {
        // Reachable but divergent or missing: repair it now and count its
        // write acknowledgement toward the quorum.
        if (replicas_[peer]->WriteAllocated(id, bytes).ok()) {
          ++counters_[peer].read_repairs;
          ++acks;
        }
      }
    }
    if (acks < read_quorum_) {
      return Status::Unavailable(
          "read quorum not met for " + id + ": " + std::to_string(acks) +
          " acks, need " + std::to_string(read_quorum_));
    }
    last_served_[id] = r;
    suspects_.erase(id);
    return bytes;
  }
  if (not_found == attempts && expected == nullptr) {
    return Status::NotFound("no file " + id + " on any replica");
  }
  return last_error;
}

Result<Bytes> ReplicatedFileStore::HedgeFetch(const std::string& id,
                                              size_t replica,
                                              double* cost_seconds) {
  const double start = network_->TotalTransferSeconds();
  auto loaded = replicas_[replica]->LoadFile(id);
  *cost_seconds = network_->TotalTransferSeconds() - start;
  if (!loaded.ok()) {
    ++counters_[replica].read_fallbacks;
    return loaded.status();
  }
  const auto expected_it = directory_.find(id);
  if (expected_it != directory_.end() &&
      Sha256::Hash(loaded.value()) != expected_it->second) {
    ++counters_[replica].read_fallbacks;
    return Status::Unavailable("replica " + std::to_string(replica) +
                               " served unverifiable bytes");
  }
  return loaded;
}

Result<Bytes> ReplicatedFileStore::LoadFileHedged(
    const std::string& id, double threshold_seconds) {
  network_->ApplyDueReplicaEvents();
  ++hedged_read_count_;
  const std::vector<size_t> order = ReadOrder(id);

  double primary_cost = 0.0;
  Result<Bytes> primary = HedgeFetch(id, order[0], &primary_cost);
  const bool primary_slow =
      threshold_seconds > 0.0 && primary_cost > threshold_seconds;
  if (primary.ok() && !primary_slow) {
    return primary;
  }

  if (order.size() > 1) {
    ++hedge_issued_count_;
    double hedge_cost = 0.0;
    Result<Bytes> hedge = HedgeFetch(id, order[1], &hedge_cost);
    if (hedge.ok() && (!primary.ok() || hedge_cost < primary_cost)) {
      ++hedge_win_count_;
      return hedge;
    }
  }
  if (primary.ok()) {
    return primary;
  }
  // Neither copy verified cheaply; the quorum read path knows how to heal
  // (fallback rotation, in-flight re-fetch, read-repair).
  return LoadFile(id);
}

Status ReplicatedFileStore::Delete(const std::string& id) {
  network_->ApplyDueReplicaEvents();
  if (ReachableCount() < write_quorum_) {
    return Status::Unavailable(
        "write quorum unreachable: " + std::to_string(ReachableCount()) +
        " of " + std::to_string(replicas_.size()) + " replicas, need " +
        std::to_string(write_quorum_));
  }
  size_t acks = 0;
  size_t deleted = 0;
  for (size_t r = 0; r < replicas_.size(); ++r) {
    if (!network_->IsReplicaReachable(r)) {
      ++counters_[r].write_skips;
      continue;
    }
    const Status status = replicas_[r]->Delete(id);
    if (status.ok()) {
      ++acks;
      ++deleted;
    } else if (status.code() == StatusCode::kNotFound) {
      ++acks;  // already absent — the goal state
    } else if (simnet::IsRetryable(status)) {
      ++counters_[r].write_skips;
    } else {
      return status;
    }
  }
  if (acks < write_quorum_) {
    return Status::Unavailable(
        "delete quorum not met for " + id + ": " + std::to_string(acks) +
        " acks, need " + std::to_string(write_quorum_));
  }
  directory_.erase(id);
  adopted_.erase(id);
  suspects_.erase(id);
  last_served_.erase(id);
  tombstones_.insert(id);
  return deleted > 0 ? Status::OK()
                     : Status::NotFound("no file " + id + " on any replica");
}

Result<size_t> ReplicatedFileStore::FileSize(const std::string& id) {
  network_->ApplyDueReplicaEvents();
  Status last_error = Status::Unavailable("no replica reachable for " + id);
  for (const size_t r : ReadOrder(id)) {
    auto size = replicas_[r]->FileSize(id);
    if (size.ok()) {
      return size;
    }
    last_error = size.status();
  }
  return last_error;
}

Result<std::vector<std::string>> ReplicatedFileStore::ListFileIds() {
  network_->ApplyDueReplicaEvents();
  Status last_error = Status::Unavailable("no replica reachable");
  for (size_t r = 0; r < replicas_.size(); ++r) {
    auto ids = replicas_[r]->ListFileIds();
    if (ids.ok()) {
      return ids;
    }
    last_error = ids.status();
  }
  return last_error;
}

Result<Digest> ReplicatedFileStore::ContentDigest(const std::string& id) {
  // The coordinator already knows the committed digest; serving it locally
  // costs no messages. Unknown ids fall back to asking the replicas.
  const auto it = directory_.find(id);
  if (it != directory_.end()) {
    return it->second;
  }
  network_->ApplyDueReplicaEvents();
  Status last_error = Status::NotFound("no file " + id + " on any replica");
  for (const size_t r : ReadOrder(id)) {
    auto digest = replicas_[r]->ContentDigest(id);
    if (digest.ok()) {
      return digest;
    }
    last_error = digest.status();
  }
  return last_error;
}

void ReplicatedFileStore::ReportDamaged(const std::string& id) {
  // The caller's end-to-end check (per-chunk CRC-32) rejected the bytes the
  // last read served. Steer the next read away from that replica...
  const auto served = last_served_.find(id);
  if (served != last_served_.end()) {
    suspects_[id] = served->second;
  }
  // ...and revoke a digest adopted from those very bytes, so the next read
  // does not "verify" other replicas against a damaged reference.
  if (adopted_.erase(id) > 0) {
    directory_.erase(id);
  }
}

size_t ReplicatedFileStore::TotalStoredBytes() const {
  size_t best = 0;
  for (const filestore::RemoteFileStore* replica : replicas_) {
    best = std::max(best, replica->TotalStoredBytes());
  }
  return best;
}

size_t ReplicatedFileStore::FileCount() const {
  size_t best = 0;
  for (const filestore::RemoteFileStore* replica : replicas_) {
    best = std::max(best, replica->FileCount());
  }
  return best;
}

size_t ReplicatedFileStore::PhysicalStoredBytes() const {
  size_t total = 0;
  for (const filestore::RemoteFileStore* replica : replicas_) {
    total += replica->TotalStoredBytes();
  }
  return total;
}

uint64_t ReplicatedFileStore::TransportRetryCount() const {
  uint64_t total = 0;
  for (const filestore::RemoteFileStore* replica : replicas_) {
    total += replica->retry_count();
  }
  return total;
}

uint64_t ReplicatedFileStore::DeadlineExhaustedCount() const {
  uint64_t total = 0;
  for (const filestore::RemoteFileStore* replica : replicas_) {
    total += replica->deadline_exhausted_count();
  }
  return total;
}

const Digest* ReplicatedFileStore::FindExpectedDigest(
    const std::string& id) const {
  const auto it = directory_.find(id);
  return it != directory_.end() ? &it->second : nullptr;
}

ReplicatedDocumentStore::ReplicatedDocumentStore(
    std::vector<docstore::RemoteDocumentStore*> replicas,
    simnet::Network* network, size_t write_quorum, size_t read_quorum)
    : replicas_(std::move(replicas)),
      network_(network),
      write_quorum_(write_quorum),
      read_quorum_(read_quorum),
      id_generator_(0x4ed0c5),
      counters_(replicas_.size()) {}

Result<std::unique_ptr<ReplicatedDocumentStore>>
ReplicatedDocumentStore::Create(
    std::vector<docstore::RemoteDocumentStore*> replicas,
    simnet::Network* network, const QuorumConfig& config) {
  for (const docstore::RemoteDocumentStore* replica : replicas) {
    if (replica == nullptr) {
      return Status::InvalidArgument("null replica transport");
    }
  }
  MMLIB_ASSIGN_OR_RETURN(auto quorums,
                         ResolveQuorums(replicas.size(), config));
  return std::unique_ptr<ReplicatedDocumentStore>(new ReplicatedDocumentStore(
      std::move(replicas), network, quorums.first, quorums.second));
}

size_t ReplicatedDocumentStore::PreferredReplica(
    const std::string& key) const {
  return Crc32(reinterpret_cast<const uint8_t*>(key.data()), key.size()) %
         replicas_.size();
}

size_t ReplicatedDocumentStore::ReachableCount() const {
  size_t reachable = 0;
  for (size_t r = 0; r < replicas_.size(); ++r) {
    if (network_->IsReplicaReachable(r)) {
      ++reachable;
    }
  }
  return reachable;
}

Result<std::string> ReplicatedDocumentStore::Insert(
    const std::string& collection, json::Value doc) {
  MMLIB_ASSIGN_OR_RETURN(std::string id, AllocateDocId(collection));
  MMLIB_RETURN_IF_ERROR(InsertWithId(collection, id, std::move(doc)));
  return id;
}

Result<std::string> ReplicatedDocumentStore::AllocateDocId(
    const std::string& collection) {
  // Minted by the coordinator, like file ids — see AllocateFileId.
  return id_generator_.Next(collection);
}

Status ReplicatedDocumentStore::InsertWithId(const std::string& collection,
                                             const std::string& id,
                                             json::Value doc) {
  if (!doc.is_object()) {
    return Status::InvalidArgument("documents must be JSON objects");
  }
  return QuorumInsert(collection, id, doc);
}

Status ReplicatedDocumentStore::QuorumInsert(const std::string& collection,
                                             const std::string& id,
                                             const json::Value& doc) {
  network_->ApplyDueReplicaEvents();
  if (ReachableCount() < write_quorum_) {
    return Status::Unavailable(
        "write quorum unreachable: " + std::to_string(ReachableCount()) +
        " of " + std::to_string(replicas_.size()) + " replicas, need " +
        std::to_string(write_quorum_));
  }
  std::vector<size_t> acked;
  for (size_t r = 0; r < replicas_.size(); ++r) {
    if (!network_->IsReplicaReachable(r)) {
      ++counters_[r].write_skips;
      continue;
    }
    const Status status = replicas_[r]->InsertWithId(collection, id, doc);
    if (status.ok()) {
      acked.push_back(r);
    } else if (simnet::IsRetryable(status)) {
      ++counters_[r].write_skips;
    } else {
      for (size_t a : acked) {
        (void)replicas_[a]->Delete(collection, id);
      }
      return status;
    }
  }
  if (acked.size() < write_quorum_) {
    for (size_t a : acked) {
      (void)replicas_[a]->Delete(collection, id);
    }
    return Status::Unavailable(
        "write quorum not met for " + KeyFor(collection, id) + ": " +
        std::to_string(acked.size()) + " acks, need " +
        std::to_string(write_quorum_));
  }
  // The stored form carries "_id"; digest what the replicas actually hold.
  json::Value stored = doc;
  stored.Set("_id", id);
  directory_[KeyFor(collection, id)] = Sha256::Hash(stored.Dump());
  tombstones_.erase(KeyFor(collection, id));
  return Status::OK();
}

Result<json::Value> ReplicatedDocumentStore::Get(const std::string& collection,
                                                 const std::string& id) {
  network_->ApplyDueReplicaEvents();
  if (ReachableCount() < read_quorum_) {
    return Status::Unavailable(
        "read quorum unreachable: " + std::to_string(ReachableCount()) +
        " of " + std::to_string(replicas_.size()) + " replicas, need " +
        std::to_string(read_quorum_));
  }
  const std::string key = KeyFor(collection, id);
  const auto expected_it = directory_.find(key);
  const Digest* expected =
      expected_it != directory_.end() ? &expected_it->second : nullptr;
  const size_t n = replicas_.size();
  const size_t start = PreferredReplica(key);
  Status last_error = Status::Unavailable("no replica reachable for " + key);
  size_t not_found = 0;
  std::vector<size_t> stale;
  for (size_t i = 0; i < n; ++i) {
    const size_t r = (start + i) % n;
    auto loaded = replicas_[r]->Get(collection, id);
    if (!loaded.ok()) {
      last_error = loaded.status();
      if (last_error.code() == StatusCode::kNotFound) {
        ++not_found;
      }
      ++counters_[r].read_fallbacks;
      continue;
    }
    json::Value doc = std::move(loaded).value();
    const Digest digest = Sha256::Hash(doc.Dump());
    if (expected != nullptr && digest != *expected) {
      // Remote document responses are rejected when damaged in flight, so
      // a mismatch here is at-rest divergence — no disambiguation needed.
      stale.push_back(r);
      ++counters_[r].read_fallbacks;
      last_error = Status::Unavailable("replica " + std::to_string(r) +
                                       " holds a divergent document");
      continue;
    }
    if (expected == nullptr) {
      directory_[key] = digest;
    }
    for (const size_t s : stale) {
      if (replicas_[s]->InsertWithId(collection, id, doc).ok()) {
        ++counters_[s].read_repairs;
      }
    }
    size_t acks = 1 + stale.size();
    for (size_t j = i + 1; j < n && acks < read_quorum_; ++j) {
      const size_t peer = (start + j) % n;
      auto peer_digest = replicas_[peer]->DocumentDigest(collection, id);
      if (peer_digest.ok() && peer_digest.value() == digest) {
        ++acks;
      } else if (peer_digest.ok() || peer_digest.status().code() ==
                                         StatusCode::kNotFound) {
        if (replicas_[peer]->InsertWithId(collection, id, doc).ok()) {
          ++counters_[peer].read_repairs;
          ++acks;
        }
      }
    }
    if (acks < read_quorum_) {
      return Status::Unavailable(
          "read quorum not met for " + key + ": " + std::to_string(acks) +
          " acks, need " + std::to_string(read_quorum_));
    }
    return doc;
  }
  if (not_found == n && expected == nullptr) {
    return Status::NotFound("no document " + key + " on any replica");
  }
  return last_error;
}

Status ReplicatedDocumentStore::Delete(const std::string& collection,
                                       const std::string& id) {
  network_->ApplyDueReplicaEvents();
  if (ReachableCount() < write_quorum_) {
    return Status::Unavailable(
        "write quorum unreachable: " + std::to_string(ReachableCount()) +
        " of " + std::to_string(replicas_.size()) + " replicas, need " +
        std::to_string(write_quorum_));
  }
  const std::string key = KeyFor(collection, id);
  size_t acks = 0;
  size_t deleted = 0;
  for (size_t r = 0; r < replicas_.size(); ++r) {
    if (!network_->IsReplicaReachable(r)) {
      ++counters_[r].write_skips;
      continue;
    }
    const Status status = replicas_[r]->Delete(collection, id);
    if (status.ok()) {
      ++acks;
      ++deleted;
    } else if (status.code() == StatusCode::kNotFound) {
      ++acks;
    } else if (simnet::IsRetryable(status)) {
      ++counters_[r].write_skips;
    } else {
      return status;
    }
  }
  if (acks < write_quorum_) {
    return Status::Unavailable(
        "delete quorum not met for " + key + ": " + std::to_string(acks) +
        " acks, need " + std::to_string(write_quorum_));
  }
  directory_.erase(key);
  tombstones_.insert(key);
  return deleted > 0
             ? Status::OK()
             : Status::NotFound("no document " + key + " on any replica");
}

Result<std::vector<std::string>> ReplicatedDocumentStore::ListIds(
    const std::string& collection) {
  network_->ApplyDueReplicaEvents();
  const size_t start = PreferredReplica(collection);
  Status last_error = Status::Unavailable("no replica reachable");
  for (size_t i = 0; i < replicas_.size(); ++i) {
    const size_t r = (start + i) % replicas_.size();
    auto ids = replicas_[r]->ListIds(collection);
    if (ids.ok()) {
      return ids;
    }
    last_error = ids.status();
  }
  return last_error;
}

Result<std::vector<std::string>> ReplicatedDocumentStore::ListCollections() {
  network_->ApplyDueReplicaEvents();
  Status last_error = Status::Unavailable("no replica reachable");
  for (size_t r = 0; r < replicas_.size(); ++r) {
    auto names = replicas_[r]->ListCollections();
    if (names.ok()) {
      return names;
    }
    last_error = names.status();
  }
  return last_error;
}

Result<Digest> ReplicatedDocumentStore::DocumentDigest(
    const std::string& collection, const std::string& id) {
  const auto it = directory_.find(KeyFor(collection, id));
  if (it != directory_.end()) {
    return it->second;
  }
  network_->ApplyDueReplicaEvents();
  Status last_error =
      Status::NotFound("no document " + KeyFor(collection, id));
  const size_t start = PreferredReplica(KeyFor(collection, id));
  for (size_t i = 0; i < replicas_.size(); ++i) {
    const size_t r = (start + i) % replicas_.size();
    auto digest = replicas_[r]->DocumentDigest(collection, id);
    if (digest.ok()) {
      return digest;
    }
    last_error = digest.status();
  }
  return last_error;
}

size_t ReplicatedDocumentStore::TotalStoredBytes() const {
  size_t best = 0;
  for (const docstore::RemoteDocumentStore* replica : replicas_) {
    best = std::max(best, replica->TotalStoredBytes());
  }
  return best;
}

size_t ReplicatedDocumentStore::DocumentCount() const {
  size_t best = 0;
  for (const docstore::RemoteDocumentStore* replica : replicas_) {
    best = std::max(best, replica->DocumentCount());
  }
  return best;
}

size_t ReplicatedDocumentStore::PhysicalStoredBytes() const {
  size_t total = 0;
  for (const docstore::RemoteDocumentStore* replica : replicas_) {
    total += replica->TotalStoredBytes();
  }
  return total;
}

uint64_t ReplicatedDocumentStore::TransportRetryCount() const {
  uint64_t total = 0;
  for (const docstore::RemoteDocumentStore* replica : replicas_) {
    total += replica->retry_count();
  }
  return total;
}

uint64_t ReplicatedDocumentStore::DeadlineExhaustedCount() const {
  uint64_t total = 0;
  for (const docstore::RemoteDocumentStore* replica : replicas_) {
    total += replica->deadline_exhausted_count();
  }
  return total;
}

const Digest* ReplicatedDocumentStore::FindExpectedDigest(
    const std::string& key) const {
  const auto it = directory_.find(key);
  return it != directory_.end() ? &it->second : nullptr;
}

}  // namespace mmlib::repl
