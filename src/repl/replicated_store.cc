#include "repl/replicated_store.h"

namespace mmlib::repl {

Result<std::unique_ptr<ReplicatedFileStore>> ReplicatedFileStore::Create(
    std::vector<filestore::RemoteFileStore*> replicas,
    simnet::Network* network, const QuorumConfig& config) {
  MMLIB_ASSIGN_OR_RETURN(auto quorums, ResolveQuorums(replicas, config));
  return std::unique_ptr<ReplicatedFileStore>(
      new ReplicatedFileStore(std::move(replicas), network, quorums));
}

Result<std::string> ReplicatedFileStore::SaveFile(const Bytes& content) {
  MMLIB_ASSIGN_OR_RETURN(std::string id, AllocateFileId());
  MMLIB_RETURN_IF_ERROR(WriteAllocated(id, content));
  return id;
}

Result<std::string> ReplicatedFileStore::AllocateFileId() {
  return NextId("file");
}

Status ReplicatedFileStore::WriteAllocated(const std::string& id,
                                           const Bytes& content) {
  return ReplicaSet::Write(id, content);
}

Result<Bytes> ReplicatedFileStore::LoadFile(const std::string& id) {
  return ReplicaSet::Read(id);
}

Result<Bytes> ReplicatedFileStore::HedgeFetch(const std::string& id,
                                              size_t replica,
                                              double* cost_seconds) {
  const double start = network()->TotalTransferSeconds();
  auto loaded = transport(replica)->LoadFile(id);
  *cost_seconds = network()->TotalTransferSeconds() - start;
  if (!loaded.ok()) {
    ++counters(replica).read_fallbacks;
    return loaded.status();
  }
  const Digest* expected = FindExpectedDigest(id);
  if (expected != nullptr && Sha256::Hash(loaded.value()) != *expected) {
    ++counters(replica).read_fallbacks;
    return Status::Unavailable("replica " + std::to_string(replica) +
                               " served unverifiable bytes");
  }
  return loaded;
}

Result<Bytes> ReplicatedFileStore::LoadFileHedged(
    const std::string& id, double threshold_seconds) {
  network()->ApplyDueReplicaEvents();
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
  return ReplicaSet::Remove(id);
}

Result<size_t> ReplicatedFileStore::FileSize(const std::string& id) {
  return FirstSuccess(
      ReadOrder(id),
      Status::Unavailable("no replica reachable for " + id),
      [&](size_t r) { return transport(r)->FileSize(id); });
}

Result<std::vector<std::string>> ReplicatedFileStore::ListFileIds() {
  return FirstSuccess(
      IndexOrder(), Status::Unavailable("no replica reachable"),
      [&](size_t r) { return transport(r)->ListFileIds(); });
}

Result<Digest> ReplicatedFileStore::ContentDigest(const std::string& id) {
  return CommittedDigest(id);
}

void ReplicatedFileStore::ReportDamaged(const std::string& id) {
  ReplicaSet::ReportDamaged(id);
}

size_t ReplicatedFileStore::TotalStoredBytes() const {
  return MaxOver(&filestore::RemoteFileStore::TotalStoredBytes);
}

size_t ReplicatedFileStore::FileCount() const {
  return MaxOver(&filestore::RemoteFileStore::FileCount);
}

Result<std::unique_ptr<ReplicatedDocumentStore>>
ReplicatedDocumentStore::Create(
    std::vector<docstore::RemoteDocumentStore*> replicas,
    simnet::Network* network, const QuorumConfig& config) {
  MMLIB_ASSIGN_OR_RETURN(auto quorums, ResolveQuorums(replicas, config));
  return std::unique_ptr<ReplicatedDocumentStore>(
      new ReplicatedDocumentStore(std::move(replicas), network, quorums));
}

Result<std::string> ReplicatedDocumentStore::Insert(
    const std::string& collection, json::Value doc) {
  MMLIB_ASSIGN_OR_RETURN(std::string id, AllocateDocId(collection));
  MMLIB_RETURN_IF_ERROR(InsertWithId(collection, id, std::move(doc)));
  return id;
}

Result<std::string> ReplicatedDocumentStore::AllocateDocId(
    const std::string& collection) {
  return NextId(collection);
}

Status ReplicatedDocumentStore::InsertWithId(const std::string& collection,
                                             const std::string& id,
                                             json::Value doc) {
  if (!doc.is_object()) {
    return Status::InvalidArgument("documents must be JSON objects");
  }
  return ReplicaSet::Write(KeyFor(collection, id), doc);
}

Result<json::Value> ReplicatedDocumentStore::Get(const std::string& collection,
                                                 const std::string& id) {
  return ReplicaSet::Read(KeyFor(collection, id));
}

Status ReplicatedDocumentStore::Delete(const std::string& collection,
                                       const std::string& id) {
  return ReplicaSet::Remove(KeyFor(collection, id));
}

Result<std::vector<std::string>> ReplicatedDocumentStore::ListIds(
    const std::string& collection) {
  // Listings rotate from the collection's preferred replica.
  return FirstSuccess(
      ReadOrder(collection), Status::Unavailable("no replica reachable"),
      [&](size_t r) { return transport(r)->ListIds(collection); });
}

Result<std::vector<std::string>> ReplicatedDocumentStore::ListCollections() {
  return FirstSuccess(
      IndexOrder(), Status::Unavailable("no replica reachable"),
      [&](size_t r) { return transport(r)->ListCollections(); });
}

Result<Digest> ReplicatedDocumentStore::DocumentDigest(
    const std::string& collection, const std::string& id) {
  return CommittedDigest(KeyFor(collection, id));
}

size_t ReplicatedDocumentStore::TotalStoredBytes() const {
  return MaxOver(&docstore::RemoteDocumentStore::TotalStoredBytes);
}

size_t ReplicatedDocumentStore::DocumentCount() const {
  return MaxOver(&docstore::RemoteDocumentStore::DocumentCount);
}

}  // namespace mmlib::repl
