#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "hash/sha256.h"
#include "simnet/remote.h"
#include "util/bytes.h"
#include "util/id_generator.h"
#include "persist/journal.h"
#include "util/result.h"

namespace mmlib::filestore {

/// Binary file persistence keyed by generated file ids — mmlib's shared
/// file system substitute (paper Section 3.1: "To save files, we use a
/// shared file system and insert an automatically generated file identifier
/// as a reference in the appropriate JSON document").
class FileStore {
 public:
  virtual ~FileStore() = default;

  /// Persists `content` and returns its generated id.
  virtual Result<std::string> SaveFile(const Bytes& content) = 0;

  /// Two-phase write, first half: reserves and returns the id a following
  /// WriteAllocated will store under, without writing anything. Journaled
  /// saves (core::SaveTransaction) log the id as a durable intent *between*
  /// the two phases, so a crash can never produce a stored file the journal
  /// does not know about. Stores without two-phase support report
  /// Unimplemented and only work on the non-journaled path.
  virtual Result<std::string> AllocateFileId() {
    return Status::Unimplemented("store does not support two-phase writes");
  }

  /// Two-phase write, second half: persists `content` under a previously
  /// allocated id. Idempotent — rewriting the same id is allowed (retries).
  virtual Status WriteAllocated(const std::string& id, const Bytes& content) {
    (void)id;
    (void)content;
    return Status::Unimplemented("store does not support two-phase writes");
  }

  /// Loads the file with `id`.
  virtual Result<Bytes> LoadFile(const std::string& id) = 0;

  /// Removes the file; NotFound if absent, IoError if removal failed.
  virtual Status Delete(const std::string& id) = 0;

  /// Size of a stored file in bytes.
  virtual Result<size_t> FileSize(const std::string& id) = 0;

  /// Ids of all stored files, sorted — the enumeration primitive of the
  /// replication scrubber (repl::Scrubber). Stores that cannot enumerate
  /// report Unimplemented.
  virtual Result<std::vector<std::string>> ListFileIds() {
    return Status::Unimplemented("store does not support enumeration");
  }

  /// SHA-256 of the stored content — computed where the bytes live, so a
  /// replica can answer an anti-entropy probe without shipping the file.
  /// The base implementation loads and hashes locally.
  virtual Result<Digest> ContentDigest(const std::string& id);

  /// Hint from a caller whose end-to-end integrity check (per-chunk CRC-32)
  /// rejected the bytes this store returned for `id`. Plain stores ignore
  /// it; the replicated store uses it to steer the next fetch to a
  /// different replica and queue a read-repair.
  virtual void ReportDamaged(const std::string& id) { (void)id; }

  /// Total bytes of all stored files.
  virtual size_t TotalStoredBytes() const = 0;

  /// Number of stored files.
  virtual size_t FileCount() const = 0;
};

/// Heap-backed store; the reference implementation.
class InMemoryFileStore : public FileStore {
 public:
  InMemoryFileStore();

  Result<std::string> SaveFile(const Bytes& content) override;
  Result<std::string> AllocateFileId() override;
  Status WriteAllocated(const std::string& id, const Bytes& content) override;
  Result<Bytes> LoadFile(const std::string& id) override;
  Status Delete(const std::string& id) override;
  Result<size_t> FileSize(const std::string& id) override;
  Result<std::vector<std::string>> ListFileIds() override;
  size_t TotalStoredBytes() const override;
  size_t FileCount() const override { return files_.size(); }

 private:
  IdGenerator id_generator_;
  std::map<std::string, Bytes> files_;
};

/// Disk-backed store writing one `<id>.bin` file per id under a root
/// directory. Writes are crash-safe: content goes to a `.tmp` sibling that
/// is renamed into place only after a successful flush, so an interrupted
/// save never leaves a truncated `.bin` visible, and a failed write cleans
/// up its partial temporary. Only `*.bin` entries count as stored files —
/// leftover temporaries and foreign files do not skew the paper's
/// storage-consumption numbers. Opening with a SaveJournal garbage-collects
/// leftover temporaries and replays pending journal records, undoing
/// file writes of half-finished saves (see persist/journal.h).
class LocalDirFileStore : public FileStore {
 public:
  static Result<std::unique_ptr<LocalDirFileStore>> Open(
      const std::string& root, persist::SaveJournal* journal = nullptr);

  Result<std::string> SaveFile(const Bytes& content) override;
  Result<std::string> AllocateFileId() override;
  Status WriteAllocated(const std::string& id, const Bytes& content) override;
  Result<Bytes> LoadFile(const std::string& id) override;
  Status Delete(const std::string& id) override;
  Result<size_t> FileSize(const std::string& id) override;
  Result<std::vector<std::string>> ListFileIds() override;
  size_t TotalStoredBytes() const override;
  size_t FileCount() const override;

 private:
  explicit LocalDirFileStore(std::string root);
  Result<std::string> PathFor(const std::string& id) const;

  std::string root_;
  IdGenerator id_generator_;
};

/// Decorator charging every operation to a simulated network link as a
/// request/response message pair (simnet::RemoteEndpoint) — models external
/// shared storage reached over the evaluation cluster's link. Writes are
/// at-most-once: a corrupted upload is rejected before the backend mutates
/// and acknowledgements are reliable. A corrupted LoadFile response is
/// delivered damaged; every other corrupted response is retried.
class RemoteFileStore : public FileStore {
 public:
  RemoteFileStore(FileStore* backend, simnet::Network* network)
      : backend_(backend), endpoint_(network) {}

  /// Routes this store's messages to simnet replica node `replica` — while
  /// that replica is down or partitioned away, every faultable operation
  /// fails Unavailable. The replicated store binds one RemoteFileStore per
  /// backend replica.
  void BindReplica(size_t replica) { endpoint_.BindReplica(replica); }

  /// Retries performed (attempts beyond the first) across all operations.
  uint64_t retry_count() const { return endpoint_.retry_count(); }

  Result<std::string> SaveFile(const Bytes& content) override;
  Result<std::string> AllocateFileId() override;
  Status WriteAllocated(const std::string& id, const Bytes& content) override;
  Result<Bytes> LoadFile(const std::string& id) override;
  Status Delete(const std::string& id) override;
  Result<size_t> FileSize(const std::string& id) override;
  Result<std::vector<std::string>> ListFileIds() override;
  Result<Digest> ContentDigest(const std::string& id) override;
  size_t TotalStoredBytes() const override;
  size_t FileCount() const override;

  /// The wrapped backend (the scrubber repairs replicas through it).
  FileStore* backend() const { return backend_; }

 private:
  FileStore* backend_;
  simnet::RemoteEndpoint endpoint_;
};

}  // namespace mmlib::filestore
