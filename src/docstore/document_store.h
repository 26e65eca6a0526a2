#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "hash/sha256.h"
#include "json/json.h"
#include "simnet/remote.h"
#include "util/id_generator.h"
#include "persist/journal.h"
#include "util/result.h"

namespace mmlib::docstore {

/// A JSON document database organized in named collections — mmlib's
/// MongoDB substitute (paper Section 3.1: model metadata is saved as JSON
/// documents identified by generated ids and persisted in a document
/// database).
class DocumentStore {
 public:
  virtual ~DocumentStore() = default;

  /// Inserts `doc` into `collection` and returns its generated id. The id
  /// is also written into the stored document as member "_id".
  virtual Result<std::string> Insert(const std::string& collection,
                                     json::Value doc) = 0;

  /// Two-phase insert, first half: reserves and returns the id a following
  /// InsertWithId will store under, without writing anything. Journaled
  /// saves log the id as a durable intent between the two phases (see
  /// FileStore::AllocateFileId). Stores without two-phase support report
  /// Unimplemented and only work on the non-journaled path.
  virtual Result<std::string> AllocateDocId(const std::string& collection) {
    (void)collection;
    return Status::Unimplemented("store does not support two-phase inserts");
  }

  /// Two-phase insert, second half: stores `doc` under a previously
  /// allocated id (written into the document as "_id"). Idempotent —
  /// rewriting the same id is allowed (retries).
  virtual Status InsertWithId(const std::string& collection,
                              const std::string& id, json::Value doc) {
    (void)collection;
    (void)id;
    (void)doc;
    return Status::Unimplemented("store does not support two-phase inserts");
  }

  /// Loads the document with `id`.
  virtual Result<json::Value> Get(const std::string& collection,
                                  const std::string& id) = 0;

  /// Deletes a document; NotFound if absent, IoError if removal failed.
  virtual Status Delete(const std::string& collection,
                        const std::string& id) = 0;

  /// Ids of all documents in a collection, sorted.
  virtual Result<std::vector<std::string>> ListIds(
      const std::string& collection) = 0;

  /// Ids of documents whose top-level member `key` is the string `value`
  /// (MongoDB-style equality query). The base implementation scans the
  /// collection; stores may override with indexed lookups.
  virtual Result<std::vector<std::string>> FindByField(
      const std::string& collection, const std::string& key,
      const std::string& value);

  /// Names of all non-empty collections, sorted — the enumeration primitive
  /// of the replication scrubber. Stores that cannot enumerate report
  /// Unimplemented.
  virtual Result<std::vector<std::string>> ListCollections() {
    return Status::Unimplemented("store does not support enumeration");
  }

  /// SHA-256 of the canonical serialization of a stored document (with its
  /// "_id" member) — computed where the document lives, so a replica can
  /// answer an anti-entropy probe without shipping the document. The base
  /// implementation loads and hashes locally.
  virtual Result<Digest> DocumentDigest(const std::string& collection,
                                        const std::string& id);

  /// Total bytes of all stored documents (canonical serialization).
  virtual size_t TotalStoredBytes() const = 0;

  /// Number of stored documents across collections.
  virtual size_t DocumentCount() const = 0;
};

/// Heap-backed store; the reference implementation.
class InMemoryDocumentStore : public DocumentStore {
 public:
  InMemoryDocumentStore();

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
  size_t TotalStoredBytes() const override;
  size_t DocumentCount() const override;

 private:
  IdGenerator id_generator_;
  // collection -> id -> canonical JSON text.
  std::map<std::string, std::map<std::string, std::string>> collections_;
};

/// Disk-backed store: one file per document under
/// `root/<collection>/<id>.json`. Documents survive process restarts.
/// Writes are crash-safe (tmp + rename; a failed write cleans up its
/// temporary), and only `*.json` entries count as stored documents.
/// Opening with a SaveJournal garbage-collects leftover temporaries and
/// replays pending journal records, undoing document inserts of
/// half-finished saves (see persist/journal.h).
class PersistentDocumentStore : public DocumentStore {
 public:
  /// Opens (and creates if needed) the store rooted at `root`.
  static Result<std::unique_ptr<PersistentDocumentStore>> Open(
      const std::string& root, persist::SaveJournal* journal = nullptr);

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
  size_t TotalStoredBytes() const override;
  size_t DocumentCount() const override;

 private:
  explicit PersistentDocumentStore(std::string root);

  Result<std::string> PathFor(const std::string& collection,
                              const std::string& id) const;

  std::string root_;
  IdGenerator id_generator_;
};

/// Decorator charging every operation to a simulated network link as a
/// request/response message pair (simnet::RemoteEndpoint) — models a
/// MongoDB instance running on a separate machine, as in the paper's
/// three-machine setup (Section 4.1). Writes are at-most-once: a corrupted
/// upload is malformed JSON at the receiver and rejected before the backend
/// mutates, and acknowledgements are reliable. Document payloads are small
/// and self-describing, so a corrupted response is detected by the client
/// and retried, never delivered as damaged metadata.
class RemoteDocumentStore : public DocumentStore {
 public:
  RemoteDocumentStore(DocumentStore* backend, simnet::Network* network)
      : backend_(backend), endpoint_(network) {}

  /// Routes this store's messages to simnet replica node `replica` — while
  /// that replica is down or partitioned away, every faultable operation
  /// fails Unavailable. The replicated store binds one RemoteDocumentStore
  /// per backend replica.
  void BindReplica(size_t replica) { endpoint_.BindReplica(replica); }

  /// Retries performed (attempts beyond the first) across all operations.
  uint64_t retry_count() const { return endpoint_.retry_count(); }

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
  Result<std::vector<std::string>> FindByField(
      const std::string& collection, const std::string& key,
      const std::string& value) override;
  Result<std::vector<std::string>> ListCollections() override;
  Result<Digest> DocumentDigest(const std::string& collection,
                                const std::string& id) override;
  size_t TotalStoredBytes() const override;
  size_t DocumentCount() const override;

  /// The wrapped backend (the scrubber repairs replicas through it).
  DocumentStore* backend() const { return backend_; }

 private:
  DocumentStore* backend_;
  simnet::RemoteEndpoint endpoint_;
};

}  // namespace mmlib::docstore

