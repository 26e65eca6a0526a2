#include "repl/scrubber.h"

#include <algorithm>
#include <map>
#include <set>
#include <utility>

namespace mmlib::repl {

namespace {

using internal::DocKind;
using internal::FileKind;
using internal::ReplicaSet;

/// Bytes of one digest on the wire.
constexpr uint64_t kDigestBytes = 32;

struct Inventory {
  std::vector<KeyedDigest> items;
  MerkleTree tree;
};

/// Built entirely replica-side: enumeration and hashing run where the
/// bytes live, so an inventory costs no network traffic — only the tree
/// comparison does. This locality is the entire point of anti-entropy.
template <typename Kind>
Result<Inventory> BuildInventory(const ReplicaSet<Kind>& set, size_t replica) {
  Inventory inventory;
  MMLIB_ASSIGN_OR_RETURN(inventory.items,
                         Kind::Inventory(set.transport(replica)->backend()));
  MMLIB_ASSIGN_OR_RETURN(inventory.tree,
                         BuildBucketTree(inventory.items, kScrubBucketCount));
  return inventory;
}

/// True when every replica of `set` builds the same tree.
template <typename Kind>
bool TreesMatch(const ReplicaSet<Kind>& set) {
  Digest reference;
  for (size_t r = 0; r < set.replica_count(); ++r) {
    auto inventory = BuildInventory(set, r);
    if (!inventory.ok()) {
      return false;
    }
    if (r == 0) {
      reference = inventory.value().tree.root();
    } else if (inventory.value().tree.root() != reference) {
      return false;
    }
  }
  return true;
}

/// Keys of `items` that fall into one of `buckets`, with their digests.
std::map<std::string, Digest> BucketSlice(const std::vector<KeyedDigest>& items,
                                          const std::set<size_t>& buckets) {
  std::map<std::string, Digest> slice;
  for (const auto& [key, digest] : items) {
    if (buckets.count(BucketForKey(key, kScrubBucketCount)) != 0) {
      slice.emplace(key, digest);
    }
  }
  return slice;
}

/// Wire size of a bucket listing: each entry's key plus its digest.
uint64_t SliceBytes(const std::map<std::string, Digest>& slice) {
  uint64_t bytes = 0;
  for (const auto& [key, digest] : slice) {
    bytes += key.size() + kDigestBytes;
  }
  return bytes;
}

/// One store kind's share of a scrub session between two replicas.
template <typename Kind>
class PairScrub {
 public:
  /// `repaired` is the report field this kind's repairs count into.
  PairScrub(ReplicaSet<Kind>* set, simnet::Network* network,
            ScrubReport* report, uint64_t* repaired)
      : set_(set), network_(network), report_(report), repaired_(repaired) {}

  Status Run(size_t a, size_t b);

 private:
  typename Kind::Store* Backend(size_t replica) const {
    return set_->transport(replica)->backend();
  }

  /// Replica holding the digest most common across all replicas for `key`
  /// (absence counts as a vote); kNoReplica on a tie. The majority fallback
  /// when no write-time digest exists.
  size_t MajorityHolder(const std::string& key, bool* delete_wins) const;

  /// Copies `key` from replica `from` to replica `to` (charged as
  /// replica-to-replica traffic). Direct backend writes are legal here and
  /// only here.
  Status RepairCopy(size_t from, size_t to, const std::string& key);

  /// Reconciles one divergent key between replicas `a` and `b`;
  /// `digest_a`/`digest_b` are null for a side missing the key.
  Status Reconcile(size_t a, size_t b, const std::string& key,
                   const Digest* digest_a, const Digest* digest_b);

  ReplicaSet<Kind>* set_;
  simnet::Network* network_;
  ScrubReport* report_;
  uint64_t* repaired_;
};

template <typename Kind>
size_t PairScrub<Kind>::MajorityHolder(const std::string& key,
                                       bool* delete_wins) const {
  // digest -> (votes, lowest replica holding it); absence is one more
  // candidate, which leads while best_holder stays kNoReplica.
  std::map<Digest, std::pair<size_t, size_t>> votes;
  size_t absent_votes = 0;
  for (size_t r = 0; r < set_->replica_count(); ++r) {
    auto digest = Kind::Probe(Backend(r), key);
    if (digest.ok()) {
      ++votes.try_emplace(digest.value(), 0, r).first->second.first;
    } else {
      ++absent_votes;
    }
  }
  size_t best_count = absent_votes;
  size_t best_holder = simnet::kNoReplica;
  bool tie = false;
  for (const auto& [digest, tally] : votes) {
    if (tally.first > best_count) {
      best_count = tally.first;
      best_holder = tally.second;
      tie = false;
    } else if (tally.first == best_count) {
      tie = true;
    }
  }
  *delete_wins = !tie && best_holder == simnet::kNoReplica && best_count > 0;
  return tie ? simnet::kNoReplica : best_holder;
}

template <typename Kind>
Status PairScrub<Kind>::RepairCopy(size_t from, size_t to,
                                   const std::string& key) {
  MMLIB_ASSIGN_OR_RETURN(typename Kind::Payload payload,
                         Kind::Read(Backend(from), key));
  const simnet::TransferAttempt attempt = network_->TryTransferBetweenReplicas(
      from, to, Kind::WireBytes(payload));
  if (!attempt.status.ok()) {
    ++report_->unresolved;  // pair went unreachable mid-session; next pass
    return Status::OK();
  }
  MMLIB_RETURN_IF_ERROR(Kind::Write(Backend(to), key, payload));
  ++*repaired_;
  set_->RecordScrubRepair(to);
  return Status::OK();
}

template <typename Kind>
Status PairScrub<Kind>::Reconcile(size_t a, size_t b, const std::string& key,
                                  const Digest* digest_a,
                                  const Digest* digest_b) {
  bool should_delete = false;
  size_t source = simnet::kNoReplica;
  if (set_->IsTombstoned(key)) {
    should_delete = true;
  } else if (const Digest* expected = set_->FindExpectedDigest(key)) {
    if (digest_a != nullptr && *digest_a == *expected) {
      source = a;
    } else if (digest_b != nullptr && *digest_b == *expected) {
      source = b;
    } else {
      // Neither session side holds the good copy; any other replica with
      // it can supply the repair.
      for (size_t r = 0; r < set_->replica_count(); ++r) {
        if (r == a || r == b) {
          continue;
        }
        auto digest = Kind::Probe(Backend(r), key);
        if (digest.ok() && digest.value() == *expected) {
          source = r;
          break;
        }
      }
    }
  } else {
    source = MajorityHolder(key, &should_delete);
  }
  if (should_delete) {
    // A straggler copy of a quorum-deleted (or majority-absent) entry must
    // be re-deleted, not re-spread.
    for (const auto& [side, digest] :
         {std::make_pair(a, digest_a), std::make_pair(b, digest_b)}) {
      if (digest != nullptr) {
        const simnet::TransferAttempt attempt =
            network_->TryTransferBetweenReplicas(side == a ? b : a, side,
                                                 key.size());
        if (attempt.status.ok() && Kind::Remove(Backend(side), key).ok()) {
          ++*repaired_;
          set_->RecordScrubRepair(side);
        }
      }
    }
    return Status::OK();
  }
  if (source == simnet::kNoReplica) {
    ++report_->unresolved;
    return Status::OK();
  }
  MMLIB_ASSIGN_OR_RETURN(Digest good, Kind::Probe(Backend(source), key));
  for (const auto& [side, digest] :
       {std::make_pair(a, digest_a), std::make_pair(b, digest_b)}) {
    if (side == source) {
      continue;
    }
    if (digest == nullptr || *digest != good) {
      MMLIB_RETURN_IF_ERROR(RepairCopy(source, side, key));
    }
  }
  return Status::OK();
}

template <typename Kind>
Status PairScrub<Kind>::Run(size_t a, size_t b) {
  MMLIB_ASSIGN_OR_RETURN(Inventory inv_a, BuildInventory(*set_, a));
  MMLIB_ASSIGN_OR_RETURN(Inventory inv_b, BuildInventory(*set_, b));
  // Root exchange: one digest each way.
  if (!network_->TryTransferBetweenReplicas(a, b, kDigestBytes).status.ok() ||
      !network_->TryTransferBetweenReplicas(b, a, kDigestBytes).status.ok()) {
    return Status::OK();  // pair lost mid-session; next pass retries
  }
  if (inv_a.tree.root() == inv_b.tree.root()) {
    ++report_->root_matches;
    return Status::OK();
  }
  MMLIB_ASSIGN_OR_RETURN(MerkleDiff diff,
                         MerkleTree::Diff(inv_a.tree, inv_b.tree));
  report_->bucket_comparisons += diff.comparisons;
  // Descent traffic: the compared node digests travel both ways.
  (void)network_->TryTransferBetweenReplicas(a, b,
                                             diff.comparisons * kDigestBytes);
  (void)network_->TryTransferBetweenReplicas(b, a,
                                             diff.comparisons * kDigestBytes);
  const std::set<size_t> buckets(diff.changed_leaves.begin(),
                                 diff.changed_leaves.end());
  const auto slice_a = BucketSlice(inv_a.items, buckets);
  const auto slice_b = BucketSlice(inv_b.items, buckets);
  // Bucket listing exchange: each side ships its slice of the mismatched
  // buckets (keys + digests) to the other.
  (void)network_->TryTransferBetweenReplicas(a, b, SliceBytes(slice_a));
  (void)network_->TryTransferBetweenReplicas(b, a, SliceBytes(slice_b));
  std::set<std::string> keys;
  for (const auto* slice : {&slice_a, &slice_b}) {
    for (const auto& [key, digest] : *slice) {
      keys.insert(key);
    }
  }
  for (const std::string& key : keys) {
    const auto it_a = slice_a.find(key);
    const auto it_b = slice_b.find(key);
    const Digest* digest_a = it_a != slice_a.end() ? &it_a->second : nullptr;
    const Digest* digest_b = it_b != slice_b.end() ? &it_b->second : nullptr;
    if (digest_a != nullptr && digest_b != nullptr &&
        *digest_a == *digest_b) {
      continue;  // same key, same content — a different key diverged
    }
    MMLIB_RETURN_IF_ERROR(Reconcile(a, b, key, digest_a, digest_b));
  }
  return Status::OK();
}

}  // namespace

bool Scrubber::CheckConverged() const {
  return (files_ == nullptr || TreesMatch<FileKind>(*files_)) &&
         (docs_ == nullptr || TreesMatch<DocKind>(*docs_));
}

Result<ScrubReport> Scrubber::ScrubOnce() {
  network_->ApplyDueReplicaEvents();
  ScrubReport report;
  const size_t file_replicas = files_ != nullptr ? files_->replica_count() : 0;
  const size_t doc_replicas = docs_ != nullptr ? docs_->replica_count() : 0;
  const size_t replica_count = std::max(file_replicas, doc_replicas);
  for (size_t a = 0; a < replica_count; ++a) {
    for (size_t b = a + 1; b < replica_count; ++b) {
      if (!network_->PairReachable(simnet::Space::kReplica, a, b)) {
        continue;
      }
      ++report.sessions;
      if (b < file_replicas) {
        MMLIB_RETURN_IF_ERROR(
            PairScrub<FileKind>(files_, network_, &report,
                                &report.repaired_files)
                .Run(a, b));
      }
      if (b < doc_replicas) {
        MMLIB_RETURN_IF_ERROR(
            PairScrub<DocKind>(docs_, network_, &report,
                               &report.repaired_documents)
                .Run(a, b));
      }
    }
  }
  report.converged = CheckConverged();
  lifetime_ += report;
  return report;
}

}  // namespace mmlib::repl
