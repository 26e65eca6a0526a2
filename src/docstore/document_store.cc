#include "docstore/document_store.h"

#include <sys/stat.h>
#include <sys/types.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "check/validators.h"
#include "util/crash_point.h"
#include "util/fs.h"
#include "util/strings.h"

namespace mmlib::docstore {

namespace {

/// Suffix of persisted documents; only these count as stored data.
constexpr const char* kJsonSuffix = ".json";

Result<std::string> ReadWholeFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::NotFound("cannot open " + path);
  }
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  return content;
}

/// Crash-safe document write (tmp + rename; partials cleaned up on error).
Status WriteWholeFile(const std::string& path, const std::string& content) {
  return util::AtomicWriteFile(
      path, reinterpret_cast<const uint8_t*>(content.data()), content.size());
}

Status ValidateDocName(const std::string& name, std::string_view what) {
  return check::ValidateResourceName(name, /*allow_dot=*/true, what);
}

}  // namespace

Result<std::vector<std::string>> DocumentStore::FindByField(
    const std::string& collection, const std::string& key,
    const std::string& value) {
  MMLIB_ASSIGN_OR_RETURN(std::vector<std::string> ids, ListIds(collection));
  std::vector<std::string> matches;
  for (const std::string& id : ids) {
    MMLIB_ASSIGN_OR_RETURN(json::Value doc, Get(collection, id));
    const json::Value* member = doc.FindMember(key);
    if (member != nullptr && member->is_string() &&
        member->as_string() == value) {
      matches.push_back(id);
    }
  }
  return matches;
}

Result<Digest> DocumentStore::DocumentDigest(const std::string& collection,
                                             const std::string& id) {
  MMLIB_ASSIGN_OR_RETURN(json::Value doc, Get(collection, id));
  return Sha256::Hash(doc.Dump());
}

InMemoryDocumentStore::InMemoryDocumentStore() : id_generator_(0xd0c5) {}

Result<std::string> InMemoryDocumentStore::Insert(
    const std::string& collection, json::Value doc) {
  MMLIB_ASSIGN_OR_RETURN(std::string id, AllocateDocId(collection));
  MMLIB_RETURN_IF_ERROR(InsertWithId(collection, id, std::move(doc)));
  return id;
}

Result<std::string> InMemoryDocumentStore::AllocateDocId(
    const std::string& collection) {
  return id_generator_.Next(collection);
}

Status InMemoryDocumentStore::InsertWithId(const std::string& collection,
                                           const std::string& id,
                                           json::Value doc) {
  if (!doc.is_object()) {
    return Status::InvalidArgument("documents must be JSON objects");
  }
  doc.Set("_id", id);
  collections_[collection][id] = doc.Dump();
  return Status::OK();
}

Result<json::Value> InMemoryDocumentStore::Get(const std::string& collection,
                                               const std::string& id) {
  auto coll_it = collections_.find(collection);
  if (coll_it == collections_.end()) {
    return Status::NotFound("no collection " + collection);
  }
  auto doc_it = coll_it->second.find(id);
  if (doc_it == coll_it->second.end()) {
    return Status::NotFound("no document " + id + " in " + collection);
  }
  return json::Parse(doc_it->second);
}

Status InMemoryDocumentStore::Delete(const std::string& collection,
                                     const std::string& id) {
  auto coll_it = collections_.find(collection);
  if (coll_it == collections_.end() || coll_it->second.erase(id) == 0) {
    return Status::NotFound("no document " + id + " in " + collection);
  }
  return Status::OK();
}

Result<std::vector<std::string>> InMemoryDocumentStore::ListIds(
    const std::string& collection) {
  std::vector<std::string> ids;
  auto coll_it = collections_.find(collection);
  if (coll_it != collections_.end()) {
    for (const auto& [id, text] : coll_it->second) {
      ids.push_back(id);
    }
  }
  return ids;
}

Result<std::vector<std::string>> InMemoryDocumentStore::ListCollections() {
  std::vector<std::string> names;
  for (const auto& [name, docs] : collections_) {
    if (!docs.empty()) {
      names.push_back(name);
    }
  }
  return names;  // std::map iterates in sorted key order
}

size_t InMemoryDocumentStore::TotalStoredBytes() const {
  size_t total = 0;
  for (const auto& [name, docs] : collections_) {
    for (const auto& [id, text] : docs) {
      total += text.size();
    }
  }
  return total;
}

size_t InMemoryDocumentStore::DocumentCount() const {
  size_t count = 0;
  for (const auto& [name, docs] : collections_) {
    count += docs.size();
  }
  return count;
}

PersistentDocumentStore::PersistentDocumentStore(std::string root)
    : root_(std::move(root)), id_generator_(0xd15c) {}

Result<std::unique_ptr<PersistentDocumentStore>> PersistentDocumentStore::Open(
    const std::string& root, persist::SaveJournal* journal) {
  std::error_code ec;
  std::filesystem::create_directories(root, ec);
  if (ec) {
    return Status::IoError("cannot create " + root + ": " + ec.message());
  }
  std::unique_ptr<PersistentDocumentStore> store(
      new PersistentDocumentStore(root));
  // Leftover temporaries are writes that died before their rename; they
  // were never visible as stored data, discard them.
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(root, ec)) {
    if (EndsWith(entry.path().filename().string(), util::kTmpSuffix)) {
      std::error_code remove_ec;
      std::filesystem::remove(entry.path(), remove_ec);
    }
  }
  if (journal != nullptr) {
    MMLIB_RETURN_IF_ERROR(journal->Replay(
        persist::kJournalDocStore, [&store](const persist::JournalOp& op) {
          return store->Delete(op.collection, op.id);
        }));
  }
  return store;
}

Result<std::string> PersistentDocumentStore::PathFor(
    const std::string& collection, const std::string& id) const {
  MMLIB_RETURN_IF_ERROR(ValidateDocName(collection, "collection"));
  MMLIB_RETURN_IF_ERROR(ValidateDocName(id, "document id"));
  return root_ + "/" + collection + "/" + id + ".json";
}

Result<std::string> PersistentDocumentStore::Insert(
    const std::string& collection, json::Value doc) {
  MMLIB_ASSIGN_OR_RETURN(std::string id, AllocateDocId(collection));
  MMLIB_RETURN_IF_ERROR(InsertWithId(collection, id, std::move(doc)));
  return id;
}

Result<std::string> PersistentDocumentStore::AllocateDocId(
    const std::string& collection) {
  MMLIB_RETURN_IF_ERROR(ValidateDocName(collection, "collection"));
  std::string id = id_generator_.Next(collection);
  MMLIB_ASSIGN_OR_RETURN(std::string path, PathFor(collection, id));
  // A reopened store restarts the deterministic id stream at zero; skip
  // ids whose destination already exists instead of overwriting them.
  while (std::filesystem::exists(path)) {
    id = id_generator_.Next(collection);
    MMLIB_ASSIGN_OR_RETURN(path, PathFor(collection, id));
  }
  return id;
}

Status PersistentDocumentStore::InsertWithId(const std::string& collection,
                                             const std::string& id,
                                             json::Value doc) {
  if (!doc.is_object()) {
    return Status::InvalidArgument("documents must be JSON objects");
  }
  MMLIB_RETURN_IF_ERROR(ValidateDocName(collection, "collection"));
  std::error_code ec;
  std::filesystem::create_directories(root_ + "/" + collection, ec);
  if (ec) {
    return Status::IoError("cannot create collection dir: " + ec.message());
  }
  MMLIB_ASSIGN_OR_RETURN(std::string path, PathFor(collection, id));
  doc.Set("_id", id);
  MMLIB_CRASH_POINT("docstore.insert");
  return WriteWholeFile(path, doc.Dump());
}

Result<json::Value> PersistentDocumentStore::Get(const std::string& collection,
                                                 const std::string& id) {
  MMLIB_ASSIGN_OR_RETURN(std::string path, PathFor(collection, id));
  MMLIB_ASSIGN_OR_RETURN(std::string content, ReadWholeFile(path));
  return json::Parse(content);
}

Status PersistentDocumentStore::Delete(const std::string& collection,
                                       const std::string& id) {
  MMLIB_ASSIGN_OR_RETURN(std::string path, PathFor(collection, id));
  return util::RemoveFileStrict(path,
                                "document " + id + " in " + collection);
}

Result<std::vector<std::string>> PersistentDocumentStore::ListIds(
    const std::string& collection) {
  std::vector<std::string> ids;
  MMLIB_RETURN_IF_ERROR(ValidateDocName(collection, "collection"));
  const std::string dir = root_ + "/" + collection;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    const std::string filename = entry.path().filename().string();
    if (EndsWith(filename, ".json")) {
      ids.push_back(filename.substr(0, filename.size() - 5));
    }
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

Result<std::vector<std::string>> PersistentDocumentStore::ListCollections() {
  std::vector<std::string> names;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(root_, ec)) {
    if (!entry.is_directory()) {
      continue;
    }
    // Only collections that currently hold documents count; an empty
    // directory is an artifact, not data, and must not skew anti-entropy.
    const std::string dir = entry.path().string();
    if (util::CountFilesWithSuffix(dir, kJsonSuffix) > 0) {
      names.push_back(entry.path().filename().string());
    }
  }
  if (ec) {
    return Status::IoError("cannot list " + root_ + ": " + ec.message());
  }
  std::sort(names.begin(), names.end());
  return names;
}

size_t PersistentDocumentStore::TotalStoredBytes() const {
  return util::TotalBytesWithSuffix(root_, kJsonSuffix, /*recursive=*/true);
}

size_t PersistentDocumentStore::DocumentCount() const {
  return util::CountFilesWithSuffix(root_, kJsonSuffix, /*recursive=*/true);
}

using simnet::Reply;

Result<std::string> RemoteDocumentStore::Insert(const std::string& collection,
                                                json::Value doc) {
  return endpoint_.Call<Reply::kAck>(
      "doc.insert", collection.size() + doc.Dump().size(),
      [&] { return backend_->Insert(collection, doc); });
}

Result<std::string> RemoteDocumentStore::AllocateDocId(
    const std::string& collection) {
  // A lost request burns an id on the backend's generator; ids are never
  // reused, so a re-sent allocation is harmless.
  return endpoint_.Call<Reply::kAck>(
      "doc.alloc", collection.size(),
      [&] { return backend_->AllocateDocId(collection); });
}

Status RemoteDocumentStore::InsertWithId(const std::string& collection,
                                         const std::string& id,
                                         json::Value doc) {
  // Writing a pre-allocated id is idempotent (same id, same document), so
  // unlike Insert a retried upload cannot create a duplicate.
  return endpoint_.Call<Reply::kAck>(
      "doc.insert", collection.size() + id.size() + doc.Dump().size(),
      [&] { return backend_->InsertWithId(collection, id, doc); });
}

Result<json::Value> RemoteDocumentStore::Get(const std::string& collection,
                                             const std::string& id) {
  return endpoint_.Call<Reply::kChecked>(
      "doc.get", collection.size() + id.size(),
      [&] { return backend_->Get(collection, id); },
      [](const json::Value& doc) -> uint64_t { return doc.Dump().size(); });
}

Status RemoteDocumentStore::Delete(const std::string& collection,
                                   const std::string& id) {
  return endpoint_.Call<Reply::kAck>(
      "doc.delete", collection.size() + id.size(),
      [&] { return backend_->Delete(collection, id); });
}

Result<std::vector<std::string>> RemoteDocumentStore::ListIds(
    const std::string& collection) {
  return endpoint_.Call<Reply::kChecked>(
      "doc.list", collection.size(),
      [&] { return backend_->ListIds(collection); });
}

Result<std::vector<std::string>> RemoteDocumentStore::FindByField(
    const std::string& collection, const std::string& key,
    const std::string& value) {
  // The query executes on the database host; only the matching ids travel.
  return endpoint_.Call<Reply::kChecked>(
      "doc.find", collection.size() + key.size() + value.size(),
      [&] { return backend_->FindByField(collection, key, value); });
}

Result<std::vector<std::string>> RemoteDocumentStore::ListCollections() {
  return endpoint_.Call<Reply::kChecked>(
      "doc.list", simnet::kScalarResponseBytes,
      [&] { return backend_->ListCollections(); });
}

Result<Digest> RemoteDocumentStore::DocumentDigest(
    const std::string& collection, const std::string& id) {
  // The server hashes where the document lives; only the 32-byte digest
  // travels. This is what makes anti-entropy probes cheap.
  return endpoint_.Call<Reply::kChecked>(
      "doc.digest", collection.size() + id.size(),
      [&] { return backend_->DocumentDigest(collection, id); });
}

size_t RemoteDocumentStore::TotalStoredBytes() const {
  return endpoint_.Query([&] { return backend_->TotalStoredBytes(); });
}

size_t RemoteDocumentStore::DocumentCount() const {
  return endpoint_.Query([&] { return backend_->DocumentCount(); });
}

}  // namespace mmlib::docstore
