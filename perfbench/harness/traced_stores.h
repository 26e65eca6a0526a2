#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "docstore/document_store.h"
#include "filestore/file_store.h"
#include "trace.h"

namespace perfbench {

/// Work counted at one store boundary. Bytes are file contents as the
/// caller sees them; the document decorator counts calls only.
struct StoreCounters {
  uint64_t calls = 0;
  uint64_t bytes_written = 0;
  uint64_t bytes_read = 0;

  StoreCounters operator-(const StoreCounters& before) const {
    return {calls - before.calls, bytes_written - before.bytes_written,
            bytes_read - before.bytes_read};
  }
};

/// FileStore decorator that records one span per call ("filestore.<Op>")
/// and counts calls and bytes, then forwards to `inner`. Every virtual of
/// FileStore is forwarded — including the two-phase writes, ContentDigest
/// and ReportDamaged — so code above it takes the same path with or
/// without the decorator.
class TracedFileStore : public mmlib::filestore::FileStore {
 public:
  TracedFileStore(mmlib::filestore::FileStore* inner, Tracer* tracer)
      : inner_(inner), tracer_(tracer) {}

  mmlib::Result<std::string> SaveFile(const mmlib::Bytes& content) override;
  mmlib::Result<std::string> AllocateFileId() override;
  mmlib::Status WriteAllocated(const std::string& id,
                               const mmlib::Bytes& content) override;
  mmlib::Result<mmlib::Bytes> LoadFile(const std::string& id) override;
  mmlib::Status Delete(const std::string& id) override;
  mmlib::Result<size_t> FileSize(const std::string& id) override;
  mmlib::Result<std::vector<std::string>> ListFileIds() override;
  mmlib::Result<mmlib::Digest> ContentDigest(const std::string& id) override;
  void ReportDamaged(const std::string& id) override;
  size_t TotalStoredBytes() const override;
  size_t FileCount() const override;

  const StoreCounters& counters() const { return counters_; }

 private:
  mmlib::filestore::FileStore* inner_;
  Tracer* tracer_;
  mutable StoreCounters counters_;  // the stats queries are const calls
};

/// DocumentStore decorator; the document-side twin of TracedFileStore
/// ("docstore.<Op>" spans).
class TracedDocumentStore : public mmlib::docstore::DocumentStore {
 public:
  TracedDocumentStore(mmlib::docstore::DocumentStore* inner, Tracer* tracer)
      : inner_(inner), tracer_(tracer) {}

  mmlib::Result<std::string> Insert(const std::string& collection,
                                    mmlib::json::Value doc) override;
  mmlib::Result<std::string> AllocateDocId(
      const std::string& collection) override;
  mmlib::Status InsertWithId(const std::string& collection,
                             const std::string& id,
                             mmlib::json::Value doc) override;
  mmlib::Result<mmlib::json::Value> Get(const std::string& collection,
                                        const std::string& id) override;
  mmlib::Status Delete(const std::string& collection,
                       const std::string& id) override;
  mmlib::Result<std::vector<std::string>> ListIds(
      const std::string& collection) override;
  mmlib::Result<std::vector<std::string>> FindByField(
      const std::string& collection, const std::string& key,
      const std::string& value) override;
  mmlib::Result<std::vector<std::string>> ListCollections() override;
  mmlib::Result<mmlib::Digest> DocumentDigest(const std::string& collection,
                                              const std::string& id) override;
  size_t TotalStoredBytes() const override;
  size_t DocumentCount() const override;

  const StoreCounters& counters() const { return counters_; }

 private:
  mmlib::docstore::DocumentStore* inner_;
  Tracer* tracer_;
  mutable StoreCounters counters_;  // the stats queries are const calls
};

}  // namespace perfbench
