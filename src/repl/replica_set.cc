#include "repl/replica_set.h"

#include <algorithm>
#include <numeric>

namespace mmlib::repl::internal {

Result<std::vector<KeyedDigest>> FileKind::Inventory(Store* backend) {
  std::vector<KeyedDigest> items;
  MMLIB_ASSIGN_OR_RETURN(std::vector<std::string> ids,
                         backend->ListFileIds());
  items.reserve(ids.size());
  for (const std::string& id : ids) {
    MMLIB_ASSIGN_OR_RETURN(Digest digest, backend->ContentDigest(id));
    items.emplace_back(id, digest);
  }
  return items;
}

Recheck FileKind::RecheckServed(Store* replica, const std::string& key,
                                const Digest& expected, Payload* payload) {
  // Damaged in flight or damaged at rest? A matching server-side digest
  // means the stored copy is fine and the wire did it.
  auto server_digest = replica->ContentDigest(key);
  if (!server_digest.ok() || server_digest.value() != expected) {
    return Recheck::kDivergedAtRest;
  }
  auto again = replica->LoadFile(key);
  if (!again.ok() || Sha256::Hash(again.value()) != expected) {
    return Recheck::kDamagedInFlight;
  }
  *payload = std::move(again).value();
  return Recheck::kRefetched;
}

Result<std::vector<KeyedDigest>> DocKind::Inventory(Store* backend) {
  std::vector<KeyedDigest> items;
  MMLIB_ASSIGN_OR_RETURN(std::vector<std::string> collections,
                         backend->ListCollections());
  for (const std::string& collection : collections) {
    MMLIB_ASSIGN_OR_RETURN(std::vector<std::string> ids,
                           backend->ListIds(collection));
    for (const std::string& id : ids) {
      MMLIB_ASSIGN_OR_RETURN(Digest digest,
                             backend->DocumentDigest(collection, id));
      items.emplace_back(Key(collection, id), digest);
    }
  }
  return items;
}

template <typename Kind>
Result<std::pair<size_t, size_t>> ReplicaSet<Kind>::ResolveQuorums(
    const std::vector<Transport*>& replicas, const QuorumConfig& config) {
  for (const Transport* replica : replicas) {
    if (replica == nullptr) {
      return Status::InvalidArgument("null replica transport");
    }
  }
  const size_t n = replicas.size();
  if (n == 0) {
    return Status::InvalidArgument("replicated store requires >= 1 replica");
  }
  const size_t w = config.ResolvedWrite(n);
  const size_t r = config.ResolvedRead(n);
  if (w < 1 || w > n || r < 1 || r > n) {
    return Status::InvalidArgument(
        "quorums must lie in [1, replica count]: W=" + std::to_string(w) +
        " R=" + std::to_string(r) + " N=" + std::to_string(n));
  }
  return std::make_pair(w, r);
}

template <typename Kind>
std::vector<size_t> ReplicaSet<Kind>::ReadOrder(const std::string& key) const {
  std::vector<size_t> order = IndexOrder();
  const size_t start =
      Crc32(reinterpret_cast<const uint8_t*>(key.data()), key.size()) %
      order.size();
  std::rotate(order.begin(), order.begin() + start, order.end());
  const auto suspect = suspects_.find(key);
  if (suspect != suspects_.end()) {
    auto it = std::find(order.begin(), order.end(), suspect->second);
    if (it != order.end()) {
      std::rotate(it, it + 1, order.end());
    }
  }
  return order;
}

template <typename Kind>
std::vector<size_t> ReplicaSet<Kind>::IndexOrder() const {
  std::vector<size_t> order(replicas_.size());
  std::iota(order.begin(), order.end(), size_t{0});
  return order;
}

template <typename Kind>
Status ReplicaSet<Kind>::CheckReachable(size_t quorum,
                                        const char* what) const {
  size_t reachable = 0;
  for (size_t r = 0; r < replicas_.size(); ++r) {
    if (network_->IsReachable(simnet::Space::kReplica, r)) {
      ++reachable;
    }
  }
  if (reachable >= quorum) {
    return Status::OK();
  }
  return Status::Unavailable(
      std::string(what) + " quorum unreachable: " + std::to_string(reachable) +
      " of " + std::to_string(replicas_.size()) + " replicas, need " +
      std::to_string(quorum));
}

template <typename Kind>
Status ReplicaSet<Kind>::Write(const std::string& key,
                               const Payload& payload) {
  network_->ApplyDueReplicaEvents();
  MMLIB_RETURN_IF_ERROR(CheckReachable(write_quorum_, "write"));
  std::vector<size_t> acked;
  Status failure = Status::OK();
  for (size_t r = 0; r < replicas_.size() && failure.ok(); ++r) {
    if (!network_->IsReachable(simnet::Space::kReplica, r)) {
      ++counters_[r].write_skips;
      continue;
    }
    const Status status = Kind::Write(replicas_[r], key, payload);
    if (status.ok()) {
      acked.push_back(r);
    } else if (simnet::IsRetryable(status)) {
      // Transport gave up on this replica; the quorum decides below and
      // anti-entropy re-copies the miss.
      ++counters_[r].write_skips;
    } else {
      // A structural error (invalid id, IO failure) would repeat on every
      // replica; roll back and surface it.
      failure = status;
    }
  }
  if (failure.ok() && acked.size() >= write_quorum_) {
    directory_[key] = Kind::StoredDigest(key, payload);
    adopted_.erase(key);
    tombstones_.erase(key);
    return Status::OK();
  }
  // Below quorum nothing may stay visible — a later read quorum could
  // otherwise observe a write the coordinator reported as failed.
  for (const size_t a : acked) {
    (void)Kind::Remove(replicas_[a], key);
  }
  if (!failure.ok()) {
    return failure;
  }
  return Status::Unavailable(
      "write quorum not met for " + key + ": " +
      std::to_string(acked.size()) + " acks, need " +
      std::to_string(write_quorum_));
}

template <typename Kind>
Result<typename Kind::Payload> ReplicaSet<Kind>::Read(const std::string& key) {
  network_->ApplyDueReplicaEvents();
  MMLIB_RETURN_IF_ERROR(CheckReachable(read_quorum_, "read"));
  const Digest* expected = FindExpectedDigest(key);
  Status last_error = Status::Unavailable("no replica reachable for " + key);
  size_t not_found = 0;
  std::vector<size_t> stale;  // at-rest damaged/stale copies seen on the way
  const std::vector<size_t> order = ReadOrder(key);
  for (size_t i = 0; i < order.size(); ++i) {
    const size_t r = order[i];
    auto loaded = Kind::Read(replicas_[r], key);
    if (!loaded.ok()) {
      last_error = loaded.status();
      if (last_error.code() == StatusCode::kNotFound) {
        ++not_found;
      }
      ++counters_[r].read_fallbacks;
      continue;
    }
    Payload payload = std::move(loaded).value();
    Digest digest = Kind::DigestOf(payload);
    if (expected != nullptr && digest != *expected) {
      const Recheck recheck =
          Kind::RecheckServed(replicas_[r], key, *expected, &payload);
      if (recheck != Recheck::kRefetched) {
        ++counters_[r].read_fallbacks;
        if (recheck == Recheck::kDivergedAtRest) {
          // Stale pre-crash data or bit-rot: remember it for read-repair
          // once a good copy is in hand.
          stale.push_back(r);
          last_error = Status::Unavailable("replica " + std::to_string(r) +
                                           " holds a divergent " +
                                           Kind::kNoun);
        } else {
          last_error = Status::Unavailable("replica " + std::to_string(r) +
                                           " served damaged bytes");
        }
        continue;
      }
      digest = *expected;
    }
    if (expected == nullptr) {
      // First contact with a key written by an earlier coordinator: adopt
      // the digest, provisionally — the caller's end-to-end check
      // (ReportDamaged) revokes it if this payload turns out damaged.
      directory_[key] = digest;
      adopted_.insert(key);
    }
    for (const size_t s : stale) {
      if (Kind::Write(replicas_[s], key, payload).ok()) {
        ++counters_[s].read_repairs;
      }
    }
    // Read quorum: the serving replica counts once, every repaired replica
    // acknowledged the correct payload, and the rest confirm by digest.
    size_t acks = 1 + stale.size();
    for (size_t j = i + 1; j < order.size() && acks < read_quorum_; ++j) {
      const size_t peer = order[j];
      auto peer_digest = Kind::Probe(replicas_[peer], key);
      if (peer_digest.ok() && peer_digest.value() == digest) {
        ++acks;
      } else if (peer_digest.ok() || peer_digest.status().code() ==
                                         StatusCode::kNotFound) {
        // Reachable but divergent or missing: repair it now and count its
        // write acknowledgement toward the quorum.
        if (Kind::Write(replicas_[peer], key, payload).ok()) {
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
    last_served_[key] = r;
    suspects_.erase(key);
    return payload;
  }
  if (not_found == order.size() && expected == nullptr) {
    return Status::NotFound(std::string("no ") + Kind::kNoun + " " + key +
                            " on any replica");
  }
  return last_error;
}

template <typename Kind>
Status ReplicaSet<Kind>::Remove(const std::string& key) {
  network_->ApplyDueReplicaEvents();
  MMLIB_RETURN_IF_ERROR(CheckReachable(write_quorum_, "write"));
  size_t acks = 0;
  size_t deleted = 0;
  for (size_t r = 0; r < replicas_.size(); ++r) {
    if (!network_->IsReachable(simnet::Space::kReplica, r)) {
      ++counters_[r].write_skips;
      continue;
    }
    const Status status = Kind::Remove(replicas_[r], key);
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
        "delete quorum not met for " + key + ": " + std::to_string(acks) +
        " acks, need " + std::to_string(write_quorum_));
  }
  directory_.erase(key);
  adopted_.erase(key);
  suspects_.erase(key);
  last_served_.erase(key);
  tombstones_.insert(key);
  return deleted > 0 ? Status::OK()
                     : Status::NotFound(std::string("no ") + Kind::kNoun +
                                        " " + key + " on any replica");
}

template <typename Kind>
Result<Digest> ReplicaSet<Kind>::CommittedDigest(const std::string& key) {
  // The directory serves a known digest locally, costing no messages.
  if (const Digest* known = FindExpectedDigest(key)) {
    return *known;
  }
  return FirstSuccess(
      ReadOrder(key),
      Status::NotFound(std::string("no ") + Kind::kNoun + " " + key +
                       " on any replica"),
      [&](size_t r) { return Kind::Probe(replicas_[r], key); });
}

template <typename Kind>
void ReplicaSet<Kind>::ReportDamaged(const std::string& key) {
  // Steer the next read away from the replica that served the payload...
  const auto served = last_served_.find(key);
  if (served != last_served_.end()) {
    suspects_[key] = served->second;
  }
  // ...and revoke a digest adopted from that very payload, so the next read
  // does not "verify" other replicas against a damaged reference.
  if (adopted_.erase(key) > 0) {
    directory_.erase(key);
  }
}

template class ReplicaSet<FileKind>;
template class ReplicaSet<DocKind>;

}  // namespace mmlib::repl::internal
